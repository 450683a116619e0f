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
from dataclasses import dataclass, field
from math import fsum
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np


NS = 1_000_000_000  # nanoseconds per second


def seconds_to_ns(seconds: float) -> int:
    """The integer-nanosecond instant nearest to `seconds`, as the kernel counts time."""

    return int(round(seconds * NS))


class TaskKind(enum.Enum):
    """What a task does in the co-simulation; the kernel itself ignores this."""

    CONTROL = "control"
    LOAD = "load"
    SCHEDULER = "scheduler"


@dataclass(frozen=True)
class ExecSchedule:
    """Piecewise-constant mean execution time over simulated time.

    Segments are (start_ns, end_ns, mean_ns), contiguous from t = 0. Releases
    past the final segment hold its value, and so do times before 0.
    """

    segments: tuple[tuple[int, int, int], ...]
    _ends: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _means: tuple[int, ...] = field(init=False, repr=False, compare=False)  # one per segment, then the last again

    def __post_init__(self):
        if not self.segments:
            raise ValueError("execution schedule needs at least one segment")
        expected_start = 0
        for start, end, mean in self.segments:
            if start != expected_start:
                raise ValueError(f"execution segments must be contiguous from 0, got start {start}")
            if end <= start:
                raise ValueError(f"empty execution segment [{start}, {end})")
            if mean <= 0:
                raise ValueError("mean execution time must be positive")
            expected_start = end
        object.__setattr__(self, "_ends", tuple(end for _, end, _ in self.segments))
        object.__setattr__(self, "_means", tuple(mean for _, _, mean in self.segments) + (self.segments[-1][2],))

    FOREVER = 2**63 - 1

    @classmethod
    def constant(cls, mean_ns: int) -> "ExecSchedule":
        return cls(((0, cls.FOREVER, int(mean_ns)),))

    def mean_at(self, t_ns: int) -> int:
        if t_ns < 0:
            return self._means[-1]
        return self._means[bisect_right(self._ends, t_ns)]  # the first segment ending after t_ns


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: TaskKind
    priority: int  # lower number preempts higher
    period_ns: int
    exec_schedule: ExecSchedule

    def __post_init__(self):
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.period_ns <= 0:
            raise ValueError(f"task {self.name}: period must be positive")
        if self.priority <= 0:
            raise ValueError(f"task {self.name}: priority must be a positive integer")


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


@dataclass(frozen=True)
class TaskStats:
    released: int
    completed: int
    missed: int
    preemptions: int


class Segment(NamedTuple):
    """A contiguous stretch of CPU given to one job (recorded on request)."""

    task: str
    index: int
    start_ns: int
    end_ns: int


class WindowData(NamedTuple):
    """Execution-time samples of the jobs released inside one sampling window."""

    end_ns: int
    samples: Mapping[str, tuple[int, ...]]


class UtilizationSample(NamedTuple):
    """A utilization measurement; `value` is `raw` clamped to the unit interval."""

    value: float
    raw: float


NOISE_BLOCK = 256  # standard-normal values drawn per refill of an ExecDraws


def sample_execution_time(mean_ns: int, normals: np.ndarray, rel_std: float, floor_frac: float = 0.01) -> list[int]:
    """One execution time per standard-normal value `z` in `normals`:
    `max(floor, round(mean_ns * (1 + rel_std * z)))` in float64, rounding half
    to even as `round` does, with the floor `floor_frac * mean_ns` (at least
    1 ns) so a job can never run backwards or for free.
    """

    if mean_ns <= 0:
        raise ValueError("mean execution time must be positive")
    if not rel_std >= 0:
        raise ValueError("rel_std must be non-negative")
    floor = max(1, round(floor_frac * mean_ns))
    times = np.maximum(np.rint(mean_ns * (1.0 + rel_std * normals)), floor)
    # Python compares a float with an int exactly; float64 cannot hold FOREVER
    if float(times.max(initial=0)) > ExecSchedule.FOREVER:
        raise ValueError(f"execution time past {ExecSchedule.FOREVER} ns")
    return times.astype(np.int64).tolist()


class ExecDraws:
    """One task's noisy execution times, converted `NOISE_BLOCK` jobs at a time.

    Each refill takes the next `NOISE_BLOCK` values of `rng.standard_normal(n)`,
    which for numpy's Generator is the same sequence that repeated scalar
    `rng.standard_normal()` calls yield, and turns them into times with one
    `sample` call (`sample_execution_time`'s signature); a new mean mid-block
    converts the rest of the block again. Nothing is drawn until asked for.
    """

    __slots__ = ("_rng", "_rel_std", "_sample", "_normals", "_times", "_mean", "_next")

    def __init__(self, rng: np.random.Generator, rel_std: float, sample: Callable[..., list[int]]):
        self._rng = rng
        self._rel_std = rel_std
        self._sample = sample
        self._normals = np.empty(0)
        self._times: list[int] = []
        self._mean: int | None = None  # the mean `_times[_next:]` was converted for
        self._next = NOISE_BLOCK  # the block is used up: the first call refills it

    def draw(self, mean_ns: int) -> int:
        i = self._next
        if i == NOISE_BLOCK:
            self._normals = self._rng.standard_normal(NOISE_BLOCK)
            self._mean, i = None, 0
        if mean_ns != self._mean:
            self._times[i:] = self._sample(mean_ns, self._normals[i:], self._rel_std)
            self._mean = mean_ns
        self._next = i + 1
        return self._times[i]


def measure_utilization(
    window: WindowData,
    periods_ns: Mapping[str, int],
    rng: np.random.Generator | None = None,
    noise_std: float = 0.0,
) -> UtilizationSample:
    """Estimate CPU utilization from one window of released jobs.

    Each task named in `periods_ns` contributes the mean sampled execution
    time of its window jobs divided by its current period; tasks absent from
    the mapping (e.g. the scheduler itself) are ignored. Measurement noise,
    when enabled, is additive Gaussian on the total before clamping to [0, 1].
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
        if rng is None:
            raise ValueError("noise_std > 0 requires an rng")
        raw += noise_std * float(rng.standard_normal())
    value = min(1.0, max(0.0, raw))
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"clamped utilization out of range: {value}")
    return UtilizationSample(value, raw)


@dataclass(slots=True)
class _TaskRuntime:
    spec: TaskSpec
    name: str
    period_ns: int
    next_release_ns: int = 0
    # queued jobs, oldest first, as [index, release_ns, deadline_ns, exec_ns,
    # remaining_ns, start_ns]; start_ns is -1 until the job first gets the CPU
    queue: deque[list[int]] = field(default_factory=deque)
    released: int = 0
    completed: int = 0
    missed: int = 0
    preemptions: int = 0
    # release instants and execution times of jobs not yet taken by a window
    # snapshot, in release order
    pending_releases: list[int] = field(default_factory=list)
    pending_execs: list[int] = field(default_factory=list)


_NEVER = float("inf")  # later than any release; the drain's starting minimum

ReleaseHook = Callable[[str, int], None]  # (task name, release_ns)
StartHook = Callable[[str, int, int], None]  # (task name, release_ns, start_ns)
FinishHook = Callable[[JobRecord], None]
ExecTimeFn = Callable[[TaskSpec, int], int]  # (spec, release_ns) -> exec_ns


class Kernel:
    """Single-CPU fixed-priority preemptive kernel.

    `exec_time_of` decides each job's execution time at its release (this is
    where callers inject sampling noise); the default uses the task's mean
    schedule unchanged. `on_job_release` fires at the release instant (the
    time-triggered point where a control job latches its inputs),
    `on_job_start` the first time a job gets the CPU, `on_job_finish` when it
    completes. A deadline equals the release plus the period in force at
    that release, and a miss is counted when the job completes after it.
    Hooks may read `now_ns`, which holds the instant of the event they
    report, and may call `period_of`, `set_period` and `window_snapshot`.
    """

    def __init__(
        self,
        tasks: Iterable[TaskSpec],
        *,
        exec_time_of: ExecTimeFn | None = None,
        on_job_release: ReleaseHook | None = None,
        on_job_start: StartHook | None = None,
        on_job_finish: FinishHook | None = None,
        record_segments: bool = False,
    ):
        specs = list(tasks)
        if not specs:
            raise ValueError("kernel needs at least one task")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        if len({s.priority for s in specs}) != len(specs):
            raise ValueError("task priorities must be unique")
        self._tasks = {s.name: _TaskRuntime(spec=s, name=s.name, period_ns=s.period_ns) for s in specs}
        self._by_priority = sorted(self._tasks.values(), key=lambda rt: rt.spec.priority)
        self._exec_time_of = exec_time_of or (lambda spec, release_ns: spec.exec_schedule.mean_at(release_ns))
        self._on_job_release = on_job_release
        self._on_job_start = on_job_start
        self._on_job_finish = on_job_finish
        self._record_segments = record_segments
        self.segments: list[Segment] = []
        self._running: _TaskRuntime | None = None
        self._next_release_ns = 0  # earliest pending release over all tasks
        self.now_ns = 0

    def period_of(self, name: str) -> int:
        return self._tasks[name].period_ns

    def set_period(self, name: str, period_ns: int) -> None:
        """Change a task's period, effective from its next release on.

        The next release instant itself stays put, so this is safe to call
        from any hook while `run` is in progress.
        """
        if period_ns <= 0:
            raise ValueError(f"task {name}: period must be positive")
        self._tasks[name].period_ns = int(period_ns)

    def stats(self, name: str) -> TaskStats:
        rt = self._tasks[name]
        return TaskStats(rt.released, rt.completed, rt.missed, rt.preemptions)

    def window_snapshot(self, window_end_ns: int) -> WindowData:
        """Take (and clear) the execution samples of jobs released before `window_end_ns`.

        Jobs released at or after the boundary stay filed for the next window,
        so back-to-back snapshots partition the release timeline exactly.
        """

        samples: dict[str, tuple[int, ...]] = {}
        for rt in self._by_priority:
            n = bisect_left(rt.pending_releases, window_end_ns)  # releases before the boundary
            samples[rt.name] = tuple(rt.pending_execs[:n])
            del rt.pending_releases[:n], rt.pending_execs[:n]
        return WindowData(window_end_ns, samples)

    def run(self, until_ns: int) -> None:
        """Advance simulated time to exactly `until_ns`.

        Releases falling on `until_ns` itself are queued (so a follow-up call
        resumes seamlessly) but get no CPU.
        """

        now = self.now_ns
        if until_ns < now:
            raise ValueError("cannot run backwards")
        by_priority = self._by_priority
        exec_time_of = self._exec_time_of
        on_job_release = self._on_job_release
        on_job_start = self._on_job_start
        on_job_finish = self._on_job_finish
        record_segments = self._record_segments
        new_tuple = tuple.__new__  # builds a JobRecord without its Python-level __new__
        running = self._running  # the task whose head job holds the CPU unfinished
        next_release = self._next_release_ns  # earliest pending release over all tasks
        # `now` lives in a local; `self.now_ns` is written back whenever it
        # moves, so every hook reads its own event instant there.
        while True:
            if now >= next_release:
                # release every job due by now, in priority order, and find
                # the earliest pending release in the same pass (no hook can
                # move a release: `set_period` acts from the next one on)
                next_release = _NEVER
                for rt in by_priority:
                    release_ns = rt.next_release_ns
                    while release_ns <= now:
                        period = rt.period_ns  # the period in force fixes deadline and successor
                        exec_ns = int(exec_time_of(rt.spec, release_ns))
                        if exec_ns <= 0:
                            raise ValueError(f"task {rt.name}: sampled execution time must be positive")
                        rt.queue.append([rt.released, release_ns, release_ns + period, exec_ns, exec_ns, -1])
                        rt.released += 1
                        rt.pending_releases.append(release_ns)
                        rt.pending_execs.append(exec_ns)
                        rt.next_release_ns = release_ns + period
                        if on_job_release is not None:
                            on_job_release(rt.name, release_ns)
                        release_ns = rt.next_release_ns
                    if release_ns < next_release:
                        next_release = release_ns
            if now >= until_ns:
                break
            for rt in by_priority:
                queue = rt.queue
                if queue:
                    break
            else:
                running = None
                now = next_release if next_release < until_ns else until_ns
                self.now_ns = now
                continue
            job = queue[0]  # [index, release_ns, deadline_ns, exec_ns, remaining_ns, start_ns]
            if running is not rt:
                # a task left with an unfinished head job has been preempted
                if running is not None:
                    running.preemptions += 1
                running = rt
            if job[5] < 0:  # the job's first time on the CPU
                job[5] = now
                if on_job_start is not None:
                    on_job_start(rt.name, job[1], now)
            # every release due by now is queued and until_ns > now, so the
            # slice is never empty
            slice_end = now + job[4]
            if next_release < slice_end:
                slice_end = next_release
            if until_ns < slice_end:
                slice_end = until_ns
            if record_segments:
                self._append_segment(rt.name, job[0], now, slice_end)
            job[4] -= slice_end - now
            now = slice_end
            self.now_ns = now
            if job[4] == 0:
                queue.popleft()
                rt.completed += 1
                index, release_ns, deadline_ns, exec_ns, _, start_ns = job
                missed = now > deadline_ns
                if missed:
                    rt.missed += 1
                if on_job_finish is not None:
                    on_job_finish(
                        new_tuple(
                            JobRecord,
                            (rt.name, index, release_ns, deadline_ns, exec_ns, start_ns, now, missed),
                        )
                    )
                running = None
        self._running = running
        self._next_release_ns = next_release

    def _append_segment(self, task: str, index: int, start_ns: int, end_ns: int) -> None:
        if self.segments:
            last = self.segments[-1]
            if last.task == task and last.index == index and last.end_ns == start_ns:
                self.segments[-1] = last._replace(end_ns=end_ns)
                return
        self.segments.append(Segment(task, index, start_ns, end_ns))
