"""Fixed-priority preemptive simulation of a small task set.

The kernel is a discrete-event simulator over integer nanoseconds: releases,
preemptions and completions all happen at exact integer instants, so runs are
reproducible bit for bit. Tasks release periodically starting at t = 0, queue
their own jobs FIFO (an overrunning job is never aborted; its successor waits),
and compete for one CPU by static priority. Period changes requested mid-flight
take effect at the task's next release.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, repeat
from math import fsum, inf
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .frozen import Frozen


NS = 1_000_000_000  # nanoseconds per second


def seconds_to_ns(seconds: float) -> int:
    """The integer-nanosecond instant nearest to `seconds`, as the kernel counts time."""

    return int(round(seconds * NS))


class TaskKind(enum.Enum):
    """What a task does in the co-simulation; the kernel itself ignores this."""

    CONTROL = "control"
    LOAD = "load"
    SCHEDULER = "scheduler"


class ExecSchedule(Frozen):
    """Piecewise-constant mean execution time over simulated time.

    Segments are (start_ns, end_ns, mean_ns), contiguous from t = 0. Releases
    past the final segment hold its value, and so do times before 0.
    """

    _fields = ("segments",)
    __slots__ = (*_fields, "_ends", "_means")  # `_means`: one per segment, then the last again

    def __init__(self, segments: tuple[tuple[int, int, int], ...]):
        if not segments:
            raise ValueError("execution schedule needs at least one segment")
        expected_start = 0
        for start, end, mean in segments:
            if type(start) is not int or type(end) is not int or type(mean) is not int:
                raise ValueError(f"execution segments hold int nanoseconds, got {(start, end, mean)!r}")
            if start != expected_start:
                raise ValueError(f"execution segments must be contiguous from 0, got start {start}")
            if end <= start:
                raise ValueError(f"empty execution segment [{start}, {end})")
            if mean <= 0:
                raise ValueError("mean execution time must be positive")
            expected_start = end
        means = tuple(mean for _, _, mean in segments)
        self._set(segments, _ends=tuple(end for _, end, _ in segments), _means=means + means[-1:])

    FOREVER = 2**63 - 1

    @classmethod
    def constant(cls, mean_ns: int) -> "ExecSchedule":
        return cls(((0, cls.FOREVER, mean_ns),))

    def mean_at(self, t_ns: int) -> int:
        if t_ns < 0:
            return self._means[-1]
        return self._means[bisect_right(self._ends, t_ns)]  # the first segment ending after t_ns

    def span_at(self, t_ns: int) -> tuple[float, int]:
        """`(end, mean_at(t_ns))` for `t_ns >= 0`, where `mean_at` returns that
        mean from `t_ns` until `end`: the end of the segment holding `t_ns`,
        or infinity from the final segment end on. `Kernel.run` is its only
        caller.
        """

        k = bisect_right(self._ends, t_ns)
        return (self._ends[k] if k < len(self._ends) else inf), self._means[k]


class TaskSpec(Frozen):
    """A periodic task as the kernel schedules it: name, kind, fixed priority
    (a lower number preempts a higher one), period and execution-time means."""

    __slots__ = _fields = ("name", "kind", "priority", "period_ns", "exec_schedule")

    def __init__(self, name: str, kind: TaskKind, priority: int, period_ns: int, exec_schedule: ExecSchedule):
        if not name:
            raise ValueError("task name must be non-empty")
        if type(period_ns) is not int or period_ns <= 0:
            raise ValueError(f"task {name}: period must be a positive int of nanoseconds")
        if type(priority) is not int or priority <= 0:
            raise ValueError(f"task {name}: priority must be a positive integer")
        self._set(name, kind, priority, period_ns, exec_schedule)


class JobRecord(NamedTuple):
    """One completed job, as handed to the finish hook."""

    task: str
    index: int
    release_ns: int
    deadline_ns: int
    exec_ns: int
    start_ns: int
    finish_ns: int
    missed: bool


class TaskStats(NamedTuple):
    released: int
    completed: int
    missed: int
    preemptions: int


class WindowData(NamedTuple):
    """The job timeline of one sampling window, per task name.

    `samples` holds the execution times of the jobs released before `end_ns`
    since the previous snapshot, `releases` their release instants and
    `finishes` the completion instants before `end_ns` since the previous
    snapshot, all in time order. The lists are the kernel's own filed lists,
    handed over uncopied: from the snapshot on they belong to the caller,
    and the kernel never touches them again. The co-simulation replays its
    control loops from `releases` and `finishes` once per scheduler
    invocation instead of in per-job hooks. That is exact because the loops
    never feed back into the kernel: the scheduler reads only the
    utilization measured from `samples`.
    """

    end_ns: int
    samples: Mapping[str, list[int]]
    releases: Mapping[str, list[int]]
    finishes: Mapping[str, list[int]]


class UtilizationSample(NamedTuple):
    """A utilization measurement; `value` is `raw` clamped to the unit interval."""

    value: float
    raw: float


NOISE_BLOCK = 256  # standard-normal values per block of a noise stream
# a standard-normal draw from numpy never reaches this bound (its ziggurat
# tail stops below 14), so a limit scaled by it holds for every draw
NORMAL_BOUND = 40.0
EXEC_FLOOR_FRAC = 0.01  # shortest drawn execution time, as a fraction of the mean


def normal_blocks(seed: int, stream: int) -> Iterator[np.ndarray]:
    """Noise stream `stream` of the run seeded `seed`: the standard-normal
    values of numpy's Generator over `SeedSequence([seed, stream])`, yielded
    `NOISE_BLOCK` at a time. The blocks follow one another in the order that
    repeated scalar `standard_normal()` calls on that Generator yield.

    This is the only place a run's random values are drawn. numpy is
    imported, and the Generator built, at the first `next`, so a run that
    reads no stream never imports numpy.
    """

    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    while True:
        yield rng.standard_normal(NOISE_BLOCK)


def sample_execution_time(mean_ns: int, normals: np.ndarray, rel_std: float) -> list[int]:
    """One execution time per standard-normal value `z` in `normals`:
    `max(floor, round(mean_ns * (1 + rel_std * z)))` in float64, rounding half
    to even as `round` does, with the floor `EXEC_FLOOR_FRAC * mean_ns` (at
    least 1 ns) so a job can never run backwards or for free.
    """

    import numpy as np

    if mean_ns <= 0:
        raise ValueError("mean execution time must be positive")
    if not rel_std >= 0:
        raise ValueError("rel_std must be non-negative")
    floor = max(1, round(EXEC_FLOOR_FRAC * mean_ns))
    times = np.maximum(np.rint(mean_ns * (1.0 + rel_std * normals)), floor)
    # Python compares a float with an int exactly; float64 cannot hold FOREVER
    if float(times.max(initial=0)) > ExecSchedule.FOREVER:
        raise ValueError(f"execution time past {ExecSchedule.FOREVER} ns")
    return times.astype(np.int64).tolist()


class ExecDraws:
    """One task's noisy execution times, converted a block of normals at a time.

    `times(mean_ns, job)` is the task's execution-time source: an iterator
    over the times at the mean the kernel found of job `job` (from 0, in the
    block last taken or the next one) and of every later job, each job
    spending its own standard-normal value. It converts the rest of the
    job's block with one `sample` call (`sample_execution_time`'s
    signature), then each later block with one more as the iterator reaches
    it; a block is the next array of values from the iterator `blocks` (a
    run's is `normal_blocks`; any non-empty block size will do). Nothing is
    taken from `blocks` until a time is asked for, and an iterator is read
    only until the next `times` call.
    """

    __slots__ = ("_blocks", "_rel_std", "_sample", "_normals", "_end")

    def __init__(self, blocks: Iterator[np.ndarray], rel_std: float, sample: Callable):
        self._blocks = blocks
        self._rel_std = rel_std
        self._sample = sample
        self._normals = ()  # the block last taken
        self._end = 0  # the job after the block's last

    def times(self, mean_ns: int, job: int) -> Iterator[int]:
        return chain.from_iterable(self._conversions(mean_ns, job))

    def _conversions(self, mean_ns: int, job: int) -> Iterator[list[int]]:
        """One list per block, converted when reached: from job `job` to its block's end, then whole blocks."""
        j = job - self._end  # the job's value as a negative index into the block last taken
        while True:
            if j >= 0:
                normals = self._normals = next(self._blocks)
                self._end += len(normals)
                j -= len(normals)
            if not -len(self._normals) <= j < 0:
                raise ValueError(f"job {job} lies outside the block last taken and the next one")
            yield self._sample(mean_ns, self._normals[j:], self._rel_std)
            j = 0


def measure_utilization(
    window: WindowData,
    periods_ns: Mapping[str, int],
    normals: Iterator[float] | None = None,
    noise_std: float = 0.0,
) -> UtilizationSample:
    """Estimate CPU utilization from one window of released jobs.

    Each task named in `periods_ns` contributes the mean sampled execution
    time of its window jobs divided by its current period; tasks absent from
    the mapping (e.g. the scheduler itself) are ignored. Measurement noise,
    when enabled, is additive Gaussian on the total before clamping to [0, 1]:
    `noise_std` times the next float of `normals`, one per call. A `raw`
    inside the interval is returned as `value` itself, the same object, and
    one at or below 0 (-0.0 included) as +0.0.
    """

    total = 0.0
    for name, period_ns in periods_ns.items():
        if period_ns <= 0:
            raise ValueError(f"task {name}: period must be positive")
        samples = window.samples.get(name, ())
        if samples:
            total += fsum(samples) / len(samples) / period_ns  # statistics.fmean's arithmetic
    raw = total
    if noise_std > 0:
        if normals is None:
            raise ValueError("noise_std > 0 requires normals")
        raw += noise_std * next(normals)
    value = 0.0 if raw <= 0.0 else 1.0 if raw > 1.0 else raw
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"clamped utilization out of range: {value}")
    return tuple.__new__(UtilizationSample, (value, raw))  # skips UtilizationSample.__new__


class _TaskRuntime:
    """One task's state inside the kernel; the slots keep every attribute load off a `__dict__`."""

    __slots__ = (
        "spec", "name", "period_ns", "exec_time", "on_job_start", "next_release_ns", "queue", "head_start_ns",
        "head_remaining_ns", "span_end", "exec_times", "completed", "missed", "preemptions", "pending_releases",
        "pending_execs", "pending_finishes",
    )

    def __init__(self, spec: TaskSpec, name: str, period_ns: int, exec_time: ExecTimeSource | None, on_job_start):
        self.spec = spec
        self.name = name
        self.period_ns = period_ns
        self.exec_time = exec_time  # bound once per task; None: each job runs for the mean itself
        self.on_job_start: StartHook | None = on_job_start  # None once the hook has opted the task out
        self.next_release_ns = 0
        # queued jobs, oldest first, as (release_ns, deadline_ns, exec_ns); jobs
        # complete FIFO, so the head's index is `completed`, and `released` is
        # `completed + len(queue)`
        self.queue: deque[tuple[int, int, int]] = deque()
        self.head_start_ns = -1  # the head job's first start, -1 until it gets the CPU
        self.head_remaining_ns = 0  # the started head job's remaining time, kept when a slice ends early
        # the end of the schedule span the last release entered (0 before the
        # first); releases only move forward from 0
        self.span_end: float = 0
        self.exec_times: Iterator[int] = iter(())  # the times of the span's later jobs, replaced at span entry
        self.completed = 0
        self.missed = 0
        self.preemptions = 0
        # release instants and execution times of jobs, and completion instants,
        # not yet taken by a window snapshot, in time order
        self.pending_releases: list[int] = []
        self.pending_execs: list[int] = []
        self.pending_finishes: list[int] = []


ReleaseHook = Callable[[str, int], None]  # (task name, release_ns)
StartHook = Callable[[str, int, int], bool | None]  # (task name, release_ns, start_ns); False opts the task out
FinishHook = Callable[[JobRecord], None]
ExecTimeSource = Callable[[int, int], Iterable[int]]  # (mean_ns, job) -> the times of that job and every later one
ExecTimeFn = Callable[[TaskSpec], ExecTimeSource | None]  # spec -> the task's source, or None


class Kernel:
    """Single-CPU fixed-priority preemptive kernel.

    The kernel finds the mean of a task's `exec_schedule` in force at each
    release, the one `mean_at` gives, looking the schedule up (`span_at`)
    only when the release enters a span past the last one's end.
    `exec_time_of` is called once per task, at construction, with its spec.
    The function it returns is that task's execution-time source (this is
    where callers inject sampling noise): called when a release enters a
    span, with the span's mean and the index of the job released (from 0),
    it returns the times of that job and of every later job at that mean,
    and each release in the span takes the next time. Each time must be a
    positive int; a bad one, or a source that runs out, fails the release
    that takes it, before the job is queued. With no factory, or `None`
    from it, every job runs for the mean itself.
    `on_job_release` fires at the release instant (the time-triggered point
    where a control job latches its inputs), `on_job_start` the first time a
    job gets the CPU, `on_job_finish` when it completes. A start hook that
    returns `False` for a task's job opts that task out: the kernel never
    calls it for the task again (any other return, `None` included, changes
    nothing). A deadline equals the release plus the period in force at that
    release, and a miss is counted when the job completes after it, not on
    it. `now_ns` holds the instant of the event served at each source and
    hook call, and `until_ns` once `run` returns; hooks may call
    `set_period` and `window_snapshot`.
    """

    def __init__(
        self,
        tasks: Iterable[TaskSpec],
        *,
        exec_time_of: ExecTimeFn | None = None,
        on_job_release: ReleaseHook | None = None,
        on_job_start: StartHook | None = None,
        on_job_finish: FinishHook | None = None,
    ):
        specs = list(tasks)
        if not specs:
            raise ValueError("kernel needs at least one task")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        if len({s.priority for s in specs}) != len(specs):
            raise ValueError("task priorities must be unique")
        self._tasks = {
            s.name: _TaskRuntime(s, s.name, s.period_ns, exec_time_of(s) if exec_time_of else None, on_job_start)
            for s in specs
        }
        self._by_priority = sorted(self._tasks.values(), key=lambda rt: rt.spec.priority)
        self._on_job_release = on_job_release
        self._on_job_finish = on_job_finish
        self._running: _TaskRuntime | None = None
        self._next_release_ns = 0  # earliest pending release over all tasks
        self.now_ns = 0

    def set_period(self, name: str, period_ns: int) -> None:
        """Change a task's period, effective from its next release on.

        The next release instant itself stays put, so this is safe to call
        from any hook while `run` is in progress.
        """
        if type(period_ns) is not int or period_ns <= 0:
            raise ValueError(f"task {name}: period must be a positive int of nanoseconds")
        self._tasks[name].period_ns = period_ns

    def stats(self, name: str) -> TaskStats:
        rt = self._tasks[name]
        return TaskStats(rt.completed + len(rt.queue), rt.completed, rt.missed, rt.preemptions)

    def window_snapshot(self, window_end_ns: int) -> WindowData:
        """Take the releases, execution samples and completions filed before
        `window_end_ns`.

        The filed lists themselves become the window's: the events at or
        after the boundary move to fresh lists that stay filed for the next
        window, so back-to-back snapshots partition the release and
        completion timelines exactly: each event lands in one window, and the
        windows keep time order. A replay that has advanced to the boundary
        meets an event on the boundary itself at the start of the next
        window, with a zero step.
        """

        samples: dict[str, list[int]] = {}
        releases: dict[str, list[int]] = {}
        finishes: dict[str, list[int]] = {}
        for rt in self._by_priority:
            name = rt.name
            filed, execs, done = rt.pending_releases, rt.pending_execs, rt.pending_finishes
            n = bisect_left(filed, window_end_ns)  # releases before the boundary
            rt.pending_releases, rt.pending_execs = filed[n:], execs[n:]
            del filed[n:], execs[n:]
            n = bisect_left(done, window_end_ns)
            rt.pending_finishes = done[n:]
            del done[n:]
            releases[name], samples[name], finishes[name] = filed, execs, done
        return tuple.__new__(WindowData, (window_end_ns, samples, releases, finishes))  # skips WindowData.__new__

    def run(self, until_ns: int) -> None:
        """Advance simulated time to exactly `until_ns`.

        Releases falling on `until_ns` itself are queued (so a follow-up call
        resumes seamlessly) but get no CPU.
        """

        now = self.now_ns
        if type(until_ns) is not int:
            raise ValueError(f"until_ns must be an int of nanoseconds, got {until_ns!r}")
        if until_ns < now:
            raise ValueError("cannot run backwards")
        by_priority = self._by_priority
        on_job_release = self._on_job_release
        on_job_finish = self._on_job_finish
        new_tuple = tuple.__new__  # builds a JobRecord without its Python-level __new__
        running = self._running  # the task whose head job holds the CPU unfinished
        next_release = self._next_release_ns  # earliest pending release over all tasks
        while True:
            if now >= next_release:
                # release every job due now, in priority order, and find the
                # earliest pending release in the same pass; no dispatch pass
                # runs past a release, so a due release is due exactly now
                self.now_ns = now
                next_release = inf  # later than any release; the pass's starting minimum
                for rt in by_priority:
                    release_ns = rt.next_release_ns
                    if release_ns <= now:
                        period = rt.period_ns  # the period in force fixes deadline and successor
                        if release_ns >= rt.span_end:  # the release enters the schedule's next span
                            rt.span_end, mean = rt.spec.exec_schedule.span_at(release_ns)
                            source = rt.exec_time
                            job = rt.completed + len(rt.queue)
                            rt.exec_times = repeat(mean) if source is None else iter(source(mean, job))
                        exec_ns = next(rt.exec_times, 0)  # 0 once a source runs out
                        if type(exec_ns) is not int or exec_ns <= 0:
                            raise ValueError(f"task {rt.name}: execution time must be a positive int, got {exec_ns!r}")
                        rt.queue.append((release_ns, release_ns + period, exec_ns))
                        rt.pending_releases.append(release_ns)
                        rt.pending_execs.append(exec_ns)
                        rt.next_release_ns = release_ns + period
                        if on_job_release is not None:
                            on_job_release(rt.name, release_ns)
                        release_ns += period
                    if release_ns < next_release:
                        next_release = release_ns
            if now >= until_ns:
                break
            # no job is released before `bound`, and no hook can move it, so
            # one pass down the priority list runs each task's head jobs until
            # it: a queue drained on the way stays empty till the bound
            bound = next_release if next_release < until_ns else until_ns
            for rt in by_priority:
                queue = rt.queue
                if not queue:
                    continue
                # a task left with an unfinished head job has been preempted
                if running is not rt and running is not None:
                    running.preemptions += 1
                running = rt
                while True:
                    release_ns, deadline_ns, exec_ns = queue[0]
                    start_ns = rt.head_start_ns
                    if start_ns < 0:  # the job's first time on the CPU
                        start_ns = rt.head_start_ns = now
                        end = now + exec_ns
                        on_job_start = rt.on_job_start
                        if on_job_start is not None:
                            self.now_ns = now
                            if on_job_start(rt.name, release_ns, now) is False:
                                rt.on_job_start = None
                    else:
                        end = now + rt.head_remaining_ns
                    if end > bound:
                        rt.head_remaining_ns = end - bound
                        now = bound
                        break
                    now = end
                    queue.popleft()
                    rt.completed += 1
                    rt.head_start_ns = -1
                    rt.pending_finishes.append(now)
                    missed = now > deadline_ns  # past the deadline
                    if missed:
                        rt.missed += 1
                    if on_job_finish is not None:
                        self.now_ns = now
                        record = (rt.name, rt.completed - 1, release_ns, deadline_ns, exec_ns, start_ns, now, missed)
                        on_job_finish(new_tuple(JobRecord, record))
                    if now == bound or not queue:
                        running = None
                        break
                if now == bound:
                    break
            else:
                now = bound  # every queue drained: idle until the bound
        self.now_ns = now
        self._running = running
        self._next_release_ns = next_release
