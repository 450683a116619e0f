"""Discrete-event kernel: hand-checked timelines, hooks, noise helpers."""

import ast
import inspect
import math
from itertools import count, islice, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffsched
import ffsched.experiment as experiment
from ffsched.experiment import run_experiment
from ffsched.rtsim import (
    NOISE_BLOCK,
    ExecDraws,
    ExecSchedule,
    Kernel,
    TaskKind,
    TaskSpec,
    WindowData,
    measure_utilization,
    normal_blocks,
    sample_execution_time,
)
from ffsched.scenario import default_scenario
from invariants import per_job
from reference_dispatch import Segment, dispatch

MS = 1_000_000


def _window(samples):
    return WindowData(end_ns=0, samples=samples, releases={}, finishes={})


def _task(name, priority, period_ms, exec_ms, kind=TaskKind.LOAD):
    return TaskSpec(
        name=name,
        kind=kind,
        priority=priority,
        period_ns=int(period_ms * MS),
        exec_schedule=ExecSchedule.constant(int(exec_ms * MS)),
    )


def _blocks(rng, size=NOISE_BLOCK):
    """`rng`'s standard-normal values in blocks of `size`, an `ExecDraws`'s
    `blocks` over a test's own Generator."""
    while True:
        yield rng.standard_normal(size)


class _CountingSchedule:
    """Stands in for a task's ExecSchedule in the kernel and records the
    instants it looks up."""

    def __init__(self, schedule: ExecSchedule):
        self.schedule = schedule
        self.asked: list[int] = []

    def span_at(self, t_ns: int):
        self.asked.append(t_ns)
        return self.schedule.span_at(t_ns)


def _span_entries(schedule: ExecSchedule, releases) -> list[int]:
    """The releases that enter a span other than the previous release's,
    where the spans are each segment and all of t >= the final segment end,
    found by a linear scan; releases are never negative."""

    def span_of(t_ns):
        for k, (start, end, _) in enumerate(schedule.segments):
            if start <= t_ns < end:
                return k
        return len(schedule.segments)

    entries, last = [], None
    for t_ns in releases:
        span = span_of(t_ns)
        if span != last:
            entries.append(t_ns)
            last = span
    return entries


def _scan_mean_at(schedule: ExecSchedule, t_ns: int) -> int:
    """Reference lookup: a linear scan over the segments."""
    for start, end, mean in schedule.segments:
        if start <= t_ns < end:
            return mean
    return schedule.segments[-1][2]


@st.composite
def _schedule_and_periods(draw):
    """A schedule of 1 to 6 short segments, a first period, and the
    `(until_ns, period_ns)` steps of a run: run to `until_ns`, then take
    `period_ns` from the next release on. Periods of 1 to 12 ns put releases
    inside segments, on their ends and far past the final end."""
    n = draw(st.integers(1, 6))
    # a few shared means, so neighbouring segments sometimes hold the same one
    mean = st.one_of(st.sampled_from([1, 700, 1_000_000]), st.integers(1, 10**7))
    lengths = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    ends = [sum(lengths[: k + 1]) for k in range(n)]
    schedule = ExecSchedule(tuple((end - length, end, draw(mean)) for end, length in zip(ends, lengths)))
    period = st.one_of(st.just(1), st.integers(1, 12))
    until = st.one_of(st.integers(0, ends[-1] + 300), st.sampled_from([0] + ends))
    steps = draw(st.lists(st.tuples(until, period), min_size=1, max_size=6))
    return schedule, draw(period), sorted(steps)


class TestExecSchedule:
    def test_constant_holds_forever(self):
        sched = ExecSchedule.constant(250)
        assert sched.mean_at(0) == 250
        assert sched.mean_at(10**15) == 250

    def test_segmented_lookup_and_hold(self):
        sched = ExecSchedule(segments=((0, 5 * MS, 100), (5 * MS, 9 * MS, 200)))
        assert sched.mean_at(0) == 100
        assert sched.mean_at(5 * MS - 1) == 100
        assert sched.mean_at(5 * MS) == 200
        assert sched.mean_at(9 * MS) == 200  # holds the last mean beyond the end
        assert sched.mean_at(10**15) == 200

    def test_lookup_matches_linear_scan(self):
        sched = ExecSchedule(segments=((0, 5 * MS, 100), (5 * MS, 9 * MS, 200), (9 * MS, 12 * MS, 300)))
        probes = (-(10**12), -1, 0, 1, 5 * MS - 1, 5 * MS, 9 * MS - 1, 9 * MS, 12 * MS - 1, 12 * MS, 10**15)
        for t in probes:
            assert sched.mean_at(t) == _scan_mean_at(sched, t), t
        assert sched.mean_at(-1) == 300  # before 0 holds the last mean, as the scan does
        assert sched.mean_at(12 * MS) == 300  # exactly the last segment end

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecSchedule(segments=())
        with pytest.raises(ValueError):
            ExecSchedule(segments=((1, 5, 100),))  # must start at 0
        with pytest.raises(ValueError):
            ExecSchedule(segments=((0, 5, 100), (6, 9, 100)))  # gap
        with pytest.raises(ValueError):
            ExecSchedule(segments=((0, 5, 0),))  # nonpositive mean

    @pytest.mark.parametrize(
        "segment",
        [(0, 5, 100.0), (0, 5, True), (0, 5.0, 100), (0.0, 5, 100), (0, np.int64(5), 100)],
    )
    def test_segments_hold_int_nanoseconds(self, segment):
        # the kernel hands a noise-free task's mean to its jobs as it stands
        with pytest.raises(ValueError, match="int nanoseconds"):
            ExecSchedule(segments=(segment,))

    @pytest.mark.parametrize("mean", [1.9, 100.0, True, np.int64(100)])
    def test_constant_holds_int_nanoseconds(self, mean):
        # the one-segment form meets the same rule, so no mean is truncated
        with pytest.raises(ValueError, match="int nanoseconds"):
            ExecSchedule.constant(mean)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _task("", 1, 10, 1)
        with pytest.raises(ValueError):
            _task("t", 0, 10, 1)
        with pytest.raises(ValueError):
            _task("t", 1, 0, 1)


class TestKernelTimeline:
    def test_two_task_hand_timeline(self):
        # A: priority 1, period 10 ms, exec 3 ms; B: priority 2, period 15 ms, exec 6 ms
        records = []
        kernel = Kernel([_task("A", 1, 10, 3), _task("B", 2, 15, 6)], on_job_finish=records.append)
        kernel.run(30 * MS)
        jobs = {"A": [(t * MS, 3 * MS) for t in (0, 10, 20, 30)], "B": [(t * MS, 6 * MS) for t in (0, 15, 30)]}
        window = kernel.window_snapshot(ExecSchedule.FOREVER)
        assert {name: list(zip(window.releases[name], window.samples[name])) for name in "AB"} == jobs
        segments, completions, preemptions = dispatch(jobs, {"A": 1, "B": 2}, 30 * MS)
        assert segments == [
            Segment("A", 0, 0 * MS, 3 * MS),
            Segment("B", 0, 3 * MS, 9 * MS),
            Segment("A", 1, 10 * MS, 13 * MS),
            Segment("B", 1, 15 * MS, 20 * MS),
            Segment("A", 2, 20 * MS, 23 * MS),
            Segment("B", 1, 23 * MS, 24 * MS),
        ]
        assert [(r.task, r.index, r.release_ns, r.exec_ns, r.start_ns, r.finish_ns) for r in records] == completions
        a, b = kernel.stats("A"), kernel.stats("B")
        assert preemptions == {"A": a.preemptions, "B": b.preemptions}
        # releases landing exactly on the horizon are queued but get no CPU
        assert (a.released, a.completed, a.missed, a.preemptions) == (4, 3, 0, 0)
        assert (b.released, b.completed, b.missed, b.preemptions) == (3, 2, 0, 1)

    def test_fifo_backlog_under_permanent_overrun(self):
        records = []
        kernel = Kernel(
            [_task("t", 1, 10, 15)],
            on_job_finish=records.append,
        )
        kernel.run(100 * MS)
        st = kernel.stats("t")
        assert (st.released, st.completed, st.missed) == (11, 6, 6)
        assert [r.finish_ns for r in records] == [15 * MS * (k + 1) for k in range(6)]
        assert [r.start_ns for r in records] == [15 * MS * k for k in range(6)]
        # FIFO: jobs complete in release order, each against its own deadline
        assert [r.index for r in records] == list(range(6))
        assert all(r.missed for r in records)
        assert all(r.deadline_ns == r.release_ns + 10 * MS for r in records)

    def test_completion_exactly_on_the_deadline_is_not_a_miss(self):
        # A: priority 1, period 10 ms, exec 4 ms; B: priority 2, period 10 ms,
        # exec 6 ms, so every B job finishes exactly on its deadline
        records = []
        kernel = Kernel([_task("A", 1, 10, 4), _task("B", 2, 10, 6)], on_job_finish=records.append)
        kernel.run(30 * MS)
        b_records = [r for r in records if r.task == "B"]
        assert [(r.finish_ns, r.deadline_ns) for r in b_records] == [(k * 10 * MS, k * 10 * MS) for k in (1, 2, 3)]
        assert not any(r.missed for r in records)
        assert kernel.stats("B").completed == 3
        assert kernel.stats("A").missed == kernel.stats("B").missed == 0

    def test_completion_one_ns_past_the_deadline_is_a_miss(self):
        # as above with B's exec one nanosecond longer: each B job now spills
        # past its deadline into A's next job, and the lag grows by 1 ns a job
        records = []
        tasks = [_task("A", 1, 10, 4), _task("B", 2, 10, 6).replace(exec_schedule=ExecSchedule.constant(6 * MS + 1))]
        kernel = Kernel(tasks, on_job_finish=records.append)
        kernel.run(30 * MS)
        b = kernel.stats("B")
        assert (b.completed, b.missed) == (2, 2)
        assert [r.finish_ns for r in records if r.task == "B"] == [14 * MS + 1, 24 * MS + 2]
        assert all(r.missed == (r.task == "B") for r in records)

    def test_period_change_takes_effect_at_next_release(self):
        releases = []
        deadlines = {}

        def on_finish(rec):
            deadlines[rec.index] = rec.deadline_ns

        kernel = Kernel(
            [_task("t", 1, 10, 1)],
            on_job_release=lambda name, rel: releases.append(rel),
            on_job_finish=on_finish,
        )
        kernel.run(5 * MS)
        kernel.set_period("t", 20 * MS)
        kernel.run(100 * MS)
        assert releases == [0, 10 * MS, 30 * MS, 50 * MS, 70 * MS, 90 * MS]
        # the job released after the change already carries the new period
        assert deadlines[1] == 10 * MS + 20 * MS

    def test_set_period_validation(self):
        kernel = Kernel([_task("t", 1, 10, 1)])
        # a fractional period would truncate to 0, and a run would then
        # release the task at one instant forever; none is ever run here
        for period in (0, -MS, 0.5, 2.0 * MS, True, np.int64(MS), math.nan):
            with pytest.raises(ValueError, match="period"):
                kernel.set_period("t", period)
        assert kernel.stats("t").released == 0
        with pytest.raises(ValueError):
            kernel.run(-1)

    @pytest.mark.parametrize("until_ns", [4.5 * MS, math.nan, True, np.int64(MS)])
    def test_run_takes_int_nanoseconds(self, until_ns):
        # a NaN would never reach `now >= until_ns` and spin forever, and a
        # float would leak float instants into the job records
        kernel = Kernel([_task("t", 1, 10, 1)])
        kernel.run(2 * MS)
        with pytest.raises(ValueError, match="int of nanoseconds"):
            kernel.run(until_ns)
        assert kernel.now_ns == 2 * MS
        assert kernel.stats("t").released == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Kernel([])
        with pytest.raises(ValueError):
            Kernel([_task("t", 1, 10, 1), _task("t", 2, 10, 1)])
        with pytest.raises(ValueError):
            Kernel([_task("a", 1, 10, 1), _task("b", 1, 10, 1)])
        # periods and priorities are ints, as execution segments are
        schedule = ExecSchedule.constant(MS)
        for period in (0.5, 10.0 * MS, True, np.int64(10 * MS), math.nan):
            with pytest.raises(ValueError, match="period"):
                Kernel([TaskSpec("t", TaskKind.LOAD, 1, period, schedule)])
        for priority in (math.nan, 1.0, 1.5, True, np.int64(1)):
            with pytest.raises(ValueError, match="priority"):
                Kernel([TaskSpec("t", TaskKind.LOAD, priority, 10 * MS, schedule)])

    def test_start_hook_fires_once_per_job(self):
        starts = []
        kernel = Kernel(
            [_task("A", 1, 10, 3), _task("B", 2, 15, 6)],
            on_job_start=lambda name, rel, start: starts.append((name, rel, start)),
        )
        kernel.run(30 * MS)
        # B's second job starts once at 15 ms even though it is later preempted
        assert starts == [
            ("A", 0, 0),
            ("B", 0, 3 * MS),
            ("A", 10 * MS, 10 * MS),
            ("B", 15 * MS, 15 * MS),
            ("A", 20 * MS, 20 * MS),
        ]

    @pytest.mark.parametrize("b_returns, b_starts", [(False, 1), (None, 3), (0, 3)])
    def test_start_hook_returning_false_opts_the_task_out(self, b_returns, b_starts):
        starts = []

        def on_start(name, release_ns, start_ns):
            starts.append(name)
            return b_returns if name == "B" else None

        kernel = Kernel([_task("A", 1, 10, 3), _task("B", 2, 15, 6)], on_job_start=on_start)
        kernel.run(45 * MS)
        # only False stops the calls for B, after its first job; A is never opted out
        assert starts.count("B") == b_starts
        assert starts.count("A") == kernel.stats("A").completed == 5
        assert kernel.stats("B").completed == 3  # B's release at 45 ms gets no CPU


class TestExecTimeSource:
    """`exec_time_of` is a per-task factory; the source it returns is called
    with the mean the kernel found in force at a release and the job's index,
    and each release takes the next of its times."""

    def test_factory_called_once_per_task_at_construction(self):
        specs = [_task("A", 1, 10, 3), _task("B", 2, 15, 6), _task("C", 3, 4, 1)]
        asked = []

        def exec_time_of(spec):
            asked.append(spec)
            return lambda mean_ns, job: repeat(mean_ns)

        kernel = Kernel(specs, exec_time_of=exec_time_of)
        assert asked == specs
        kernel.run(30 * MS)
        kernel.set_period("C", 3 * MS)
        kernel.run(60 * MS)
        assert asked == specs
        assert kernel.stats("C").released > 10

    def test_times_taken_once_per_release_in_release_order(self):
        calls, releases = [], []

        def exec_time_of(spec):
            def exec_time(mean_ns, job):
                assert job == kernel.stats(spec.name).released  # the index of the job being released
                calls.append((spec.name, kernel.now_ns, mean_ns))
                return 2 * mean_ns

            return per_job(exec_time)

        # C's mean steps from 1 to 2 ms at 23 ms, between two of its releases
        c_schedule = ExecSchedule(((0, 23 * MS, MS), (23 * MS, ExecSchedule.FOREVER, 2 * MS)))
        specs = [_task("A", 1, 10, 3), _task("B", 2, 15, 6), _task("C", 3, 5, 1).replace(exec_schedule=c_schedule)]
        jobs = []
        kernel = Kernel(
            specs,
            exec_time_of=exec_time_of,
            on_job_release=lambda name, release_ns: releases.append((name, release_ns)),
            on_job_finish=jobs.append,
        )
        kernel.run(17 * MS)
        kernel.set_period("A", 7 * MS)
        kernel.run(60 * MS)
        # each time is taken at its release, with the mean in force there
        assert [(name, now_ns) for name, now_ns, _ in calls] == releases
        spec_of = {spec.name: spec for spec in specs}
        assert all(mean_ns == spec_of[name].exec_schedule.mean_at(now_ns) for name, now_ns, mean_ns in calls)
        assert [now_ns for _, now_ns, _ in calls] == sorted(now_ns for _, now_ns, _ in calls)
        for spec in specs:
            assert sum(name == spec.name for name, _, _ in calls) == kernel.stats(spec.name).released
        # jobs released together take their times in priority order
        assert calls[:3] == [("A", 0, 3 * MS), ("B", 0, 6 * MS), ("C", 0, MS)]
        assert {mean_ns for name, _, mean_ns in calls if name == "C"} == {MS, 2 * MS}
        # the job runs for what the source returned
        assert all(job.exec_ns == 2 * spec_of[job.task].exec_schedule.mean_at(job.release_ns) for job in jobs)

    @pytest.mark.parametrize(
        "times, got, released",
        [
            (lambda mean: repeat(0), "0", 0),
            (lambda mean: repeat(-1), "-1", 0),
            (lambda mean: repeat(2.7), "2.7", 0),  # never truncated to 2 ns
            (lambda mean: repeat(True), "True", 0),
            (lambda mean: [], "0", 0),
            (lambda mean: [mean, mean], "0", 2),  # runs out at the third release
            (lambda mean: [mean, mean, -mean], "-1000000", 2),
        ],
    )
    def test_source_result_is_checked(self, times, got, released):
        # each time is checked when its release takes it, before the job is
        # queued, so the releases before a bad time stand
        kernel = Kernel([_task("t", 1, 10, 1)], exec_time_of=lambda spec: lambda mean_ns, job: times(mean_ns))
        with pytest.raises(ValueError, match=f"^task t: execution time must be a positive int, got {got}$"):
            kernel.run(100 * MS)
        assert kernel.stats("t").released == released

    @pytest.mark.parametrize("exec_std", [0.0, 0.1])
    def test_run_experiment_builds_draws_only_for_noisy_runs(self, monkeypatch, exec_std):
        built = []

        class CountingDraws(ExecDraws):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(experiment, "ExecDraws", CountingDraws)
        cfg = default_scenario().replace(horizon_s=0.2, exec_std=exec_std)
        run_experiment(cfg, seed=1)
        # one per user task when noisy, none at all when noise-free
        assert len(built) == (len(cfg.tasks) if exec_std else 0)


class TestScheduleCursor:
    """For every task the kernel keeps the schedule span its releases last
    entered; it must find at each release the mean a per-release `mean_at`
    gives, with a source or without, and look the schedule up once per span
    entered."""

    SPECS = {
        spec.name: spec
        for spec in (
            # A's releases land on both segment ends, then pass the last one
            TaskSpec("A", TaskKind.CONTROL, 1, 10 * MS, ExecSchedule(((0, 20 * MS, 2 * MS), (20 * MS, 50 * MS, 4 * MS)))),
            TaskSpec("B", TaskKind.LOAD, 2, 7 * MS, ExecSchedule(((0, 35 * MS, 3 * MS), (35 * MS, ExecSchedule.FOREVER, MS)))),
            TaskSpec("C", TaskKind.LOAD, 3, 10 * MS, ExecSchedule(tuple((k * 5 * MS, (k + 1) * 5 * MS, (1 + k % 3) * MS) for k in range(20)))),
        )
    }

    @classmethod
    def _simulate(cls, exec_time_of):
        jobs, windows = [], []
        kernel = None

        def on_start(name, release_ns, start_ns):
            if name == "A":
                window = kernel.window_snapshot(start_ns)
                windows.append((window.end_ns, window.samples, window.releases))

        kernel = Kernel(
            cls.SPECS.values(),
            exec_time_of=exec_time_of,
            on_job_start=on_start,
            on_job_finish=jobs.append,
        )
        kernel.run(33 * MS)
        kernel.set_period("B", 5 * MS)
        kernel.run(77 * MS)
        kernel.set_period("C", 11 * MS)
        kernel.run(150 * MS)
        return jobs, {name: kernel.stats(name) for name in cls.SPECS}, windows

    def test_matches_per_release_mean_at(self):
        cursor = self._simulate(None)
        assert cursor == self._simulate(lambda spec: lambda mean_ns, job: repeat(mean_ns))
        jobs, stats, windows = cursor
        assert all(job.exec_ns == self.SPECS[job.task].exec_schedule.mean_at(job.release_ns) for job in jobs)
        for _, samples, releases in windows:
            for name, spec in self.SPECS.items():
                assert samples[name] == [spec.exec_schedule.mean_at(t) for t in releases[name]]
        execs = {name: [(job.release_ns, job.exec_ns) for job in jobs if job.task == name] for name in "ABC"}
        assert execs["A"][:7] == [(0, 2 * MS), (10 * MS, 2 * MS), (20 * MS, 4 * MS), (30 * MS, 4 * MS),
                                  (40 * MS, 4 * MS), (50 * MS, 4 * MS), (60 * MS, 4 * MS)]
        assert {exec_ns for _, exec_ns in execs["B"]} == {3 * MS, MS}
        assert {exec_ns for _, exec_ns in execs["C"]} == {MS, 2 * MS, 3 * MS}
        assert sum(s.preemptions for s in stats.values()) > 0
        assert len(windows) == stats["A"].completed

    def test_schedule_looked_up_once_per_span_entered(self):
        schedule = _CountingSchedule(ExecSchedule(((0, 10 * MS, MS), (10 * MS, 20 * MS, 3 * MS))))
        jobs = []
        kernel = Kernel([TaskSpec("t", TaskKind.LOAD, 1, 5 * MS, schedule)], on_job_finish=jobs.append)
        kernel.run(30 * MS)
        assert [job.exec_ns for job in jobs] == [MS, MS, 3 * MS, 3 * MS, 3 * MS, 3 * MS]
        # 0 and 10 ms each enter a segment, 20 ms the span past the final end;
        # the release queued at 30 ms lies in that last span
        assert schedule.asked == [0, 10 * MS, 20 * MS]
        assert kernel.stats("t").released == 7

    def test_source_gets_the_mean_of_the_span_entered(self):
        schedule = _CountingSchedule(ExecSchedule(((0, 10 * MS, 1_000_000), (10 * MS, 20 * MS, 3_000_000))))
        draws = ExecDraws(_blocks(np.random.default_rng(7)), 0.1, sample_execution_time)
        jobs = []
        kernel = Kernel(
            [TaskSpec("t", TaskKind.LOAD, 1, 4 * MS, schedule)],
            exec_time_of=lambda spec: draws.times,
            on_job_finish=jobs.append,
        )
        # releases at 0, 4, 10 and 25 ms: periods of 4, 6 and 15 ms in turn
        for until_ns, period_ns in ((1 * MS, 6 * MS), (5 * MS, 15 * MS), (11 * MS, 15 * MS)):
            kernel.run(until_ns)
            kernel.set_period("t", period_ns)
        kernel.run(30 * MS)
        assert [job.release_ns for job in jobs] == [0, 4 * MS, 10 * MS, 25 * MS]
        scalar = np.random.default_rng(7)
        means = (1_000_000, 1_000_000, 3_000_000, 3_000_000)  # the last release holds the final segment's mean
        expected = [_scalar_time(mean, float(scalar.standard_normal()), 0.1) for mean in means]
        assert [job.exec_ns for job in jobs] == expected
        # 4 ms lies in the span entered at 0; 10 ms and 25 ms each enter a new one
        assert schedule.asked == [0, 10 * MS, 25 * MS]

    def test_only_kernel_run_looks_up_spans(self):
        # any other caller would be a second owner of which mean applies at
        # a release; a name or string naming `span_at` counts as a use too
        src = Path(ffsched.__file__).parent

        def uses(tree):
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute) and node.attr == "span_at"
                    or isinstance(node, ast.Name) and node.id == "span_at"
                    or isinstance(node, ast.Constant) and node.value == "span_at"
                ):
                    yield node

        offenders, allowed = [], set()
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.relative_to(src).as_posix() == "rtsim.py":
                (kernel,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Kernel"]
                (run,) = [f for f in kernel.body if isinstance(f, ast.FunctionDef) and f.name == "run"]
                allowed = {id(node) for node in uses(run)}
            offenders += [f"{path.relative_to(src)}:{node.lineno}" for node in uses(tree) if id(node) not in allowed]
        assert offenders == []
        assert len(allowed) == 1  # one lookup path for every task

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        case=_schedule_and_periods(),
        rel_std=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        seed=st.integers(0, 99),
        size=st.sampled_from([NOISE_BLOCK, 7]),  # 7: many refills per run
    )
    def test_cursor_matches_per_release_oracle(self, case, rel_std, seed, size):
        """Each job's execution time against a per-release `mean_at` lookup,
        without a source and through noisy draws against scalar normal
        draws, with one schedule lookup per span entered."""
        schedule, period_ns, stops = case
        for noisy in (False, True):
            counting = _CountingSchedule(schedule)
            draws = ExecDraws(_blocks(np.random.default_rng(seed), size), rel_std, sample_execution_time)
            kernel = Kernel(
                [TaskSpec("t", TaskKind.LOAD, 1, period_ns, counting)],
                exec_time_of=lambda spec: draws.times if noisy else None,
            )
            for until_ns, next_period_ns in stops:
                kernel.run(until_ns)
                kernel.set_period("t", next_period_ns)
            window = kernel.window_snapshot(ExecSchedule.FOREVER)  # every job released
            releases = window.releases["t"]
            expected = [schedule.mean_at(t) for t in releases]
            if noisy:
                scalar = np.random.default_rng(seed)
                expected = [_scalar_time(mean, float(scalar.standard_normal()), rel_std) for mean in expected]
            assert window.samples["t"] == expected
            assert counting.asked == _span_entries(schedule, releases)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=_schedule_and_periods())
    def test_source_called_once_per_span_entered(self, case):
        """The kernel calls a source only when a release enters a span, with
        the span's mean and the index of the job released, and each release
        in the span takes the next of its times."""
        schedule, period_ns, stops = case

        def time_of(mean_ns, job):  # a pure function of the mean and the job
            return mean_ns * (1 + job % 3) + job

        calls = []

        def exec_time_of(spec):
            def exec_time(mean_ns, job):
                calls.append((spec.name, kernel.now_ns, job, mean_ns))
                return map(time_of, repeat(mean_ns), count(job))

            return exec_time

        # "u" is released between "t"'s releases and preempted by them
        tasks = [TaskSpec("t", TaskKind.LOAD, 1, period_ns, schedule), TaskSpec("u", TaskKind.LOAD, 2, 5, schedule)]
        kernel = Kernel(tasks, exec_time_of=exec_time_of)
        for until_ns, next_period_ns in stops:
            kernel.run(until_ns)
            kernel.set_period("t", next_period_ns)
        window = kernel.window_snapshot(ExecSchedule.FOREVER)  # every job released
        for name in "tu":
            released = window.releases[name]
            assert [(t, job, mean) for task, t, job, mean in calls if task == name] == [
                (t, released.index(t), schedule.mean_at(t)) for t in _span_entries(schedule, released)
            ]
            assert window.samples[name] == [time_of(schedule.mean_at(t), job) for job, t in enumerate(released)]


class TestKernelResume:
    """`run` keeps its clock, running task and next release in locals; a run
    split at arbitrary instants must match one uninterrupted run."""

    @staticmethod
    def _simulate(stops):
        releases, starts, finishes, late_hooks = [], [], [], []
        kernel = None
        period_c = 7 * MS  # C's period as last set

        def on_release(name, release_ns):
            if kernel.now_ns != release_ns:
                late_hooks.append(("release", name, release_ns, kernel.now_ns))
            releases.append((name, release_ns))

        def on_start(name, release_ns, start_ns):
            nonlocal period_c
            if kernel.now_ns != start_ns:
                late_hooks.append(("start", name, start_ns, kernel.now_ns))
            starts.append((name, release_ns, start_ns))
            if name == "A":  # re-period from inside the start hook, as the feedback scheduler does
                period_c = 9 * MS if period_c == 7 * MS else 7 * MS
                kernel.set_period("C", period_c)

        def on_finish(rec):
            if kernel.now_ns != rec.finish_ns:
                late_hooks.append(("finish", rec.task, rec.finish_ns, kernel.now_ns))
            finishes.append(rec)

        kernel = Kernel(
            [_task("A", 1, 10, 3), _task("B", 2, 15, 6), _task("C", 3, 7, 2)],
            on_job_release=on_release,
            on_job_start=on_start,
            on_job_finish=on_finish,
        )
        for stop in stops:
            kernel.run(stop)
        assert late_hooks == []
        stats = {name: kernel.stats(name) for name in "ABC"}
        return releases, starts, finishes, stats

    @pytest.mark.parametrize(
        "stops",
        [
            [0, 120 * MS],
            [13 * MS + 1, 120 * MS],  # mid-slice
            [20 * MS, 30 * MS, 120 * MS],  # on release instants
            [5 * MS, 5 * MS, 47 * MS, 99 * MS + 3, 120 * MS],  # repeated stop
        ],
    )
    def test_split_run_matches_one_run(self, stops):
        whole = self._simulate([120 * MS])
        assert self._simulate(stops) == whole
        releases, _, finishes, stats = whole
        assert sum(s.preemptions for s in stats.values()) > 0
        assert any(r.missed for r in finishes)
        # the start hook's re-perioding reached the release timeline
        c_releases = [t for name, t in releases if name == "C"]
        assert {b - a for a, b in zip(c_releases, c_releases[1:])} == {7 * MS, 9 * MS}


class TestWindowSnapshot:
    def test_snapshots_partition_the_release_timeline(self):
        kernel = Kernel([_task("t", 1, 10, 2)])
        kernel.run(35 * MS)
        first = kernel.window_snapshot(20 * MS)
        assert first.samples["t"] == [2 * MS, 2 * MS]
        # a second snapshot at the same boundary finds nothing left
        assert kernel.window_snapshot(20 * MS).samples["t"] == []
        second = kernel.window_snapshot(40 * MS)
        assert second.samples["t"] == [2 * MS, 2 * MS]

    def test_snapshot_lists_belong_to_the_caller(self):
        kernel = Kernel([_task("a", 1, 10, 2), _task("b", 2, 15, 6)])
        kernel.run(25 * MS)
        first = kernel.window_snapshot(20 * MS)  # leaves a's release at 20 ms filed
        kept = [{name: list(events) for name, events in timeline.items()} for timeline in first[1:]]
        assert kept[1] == {"a": [0, 10 * MS], "b": [0, 15 * MS]}
        kernel.run(60 * MS)
        second = kernel.window_snapshot(60 * MS)
        # the kernel filed nothing more into the lists it handed over
        assert [dict(timeline) for timeline in first[1:]] == kept
        assert second.releases == {"a": [20 * MS, 30 * MS, 40 * MS, 50 * MS], "b": [30 * MS, 45 * MS]}

    def test_samples_filed_at_release_not_completion(self):
        # exec 15 ms overruns the 10 ms period; releases still file samples
        kernel = Kernel([_task("t", 1, 10, 15)])
        kernel.run(20 * MS)
        snap = kernel.window_snapshot(20 * MS)
        assert snap.samples["t"] == [15 * MS, 15 * MS]


    @pytest.mark.parametrize("seed", range(12))
    def test_back_to_back_snapshots_partition_releases_and_completions(self, seed):
        rng = np.random.default_rng(seed)
        n_tasks = int(rng.integers(2, 5))
        prios = [int(p) + 1 for p in rng.permutation(n_tasks)]
        specs = [_task(f"t{i}", prios[i], int(rng.integers(2, 21)), int(rng.integers(1, 8))) for i in range(n_tasks)]
        names = [s.name for s in specs]
        horizon = int(rng.integers(40, 81)) * MS
        releases, execs, finishes = ({name: [] for name in names} for _ in range(3))

        def exec_time_of(spec):
            def exec_time(mean_ns, job):
                exec_ns = max(1, int(mean_ns * rng.uniform(0.3, 1.5)))
                execs[spec.name].append(exec_ns)
                return exec_ns

            return per_job(exec_time)

        kernel = Kernel(
            specs,
            exec_time_of=exec_time_of,
            on_job_release=lambda name, release_ns: releases[name].append(release_ns),
            on_job_finish=lambda rec: finishes[rec.task].append(rec.finish_ns),
        )
        # windows end on the releases at 0, at random instants, twice on one
        # instant and on the horizon; a last one past it takes what remains
        ends = sorted({0, 20 * MS, horizon} | {int(rng.integers(1, horizon)) for _ in range(6)})
        windows = []
        for end in ends:
            kernel.run(end)
            windows.append(kernel.window_snapshot(end))
            if end == 20 * MS:
                windows.append(kernel.window_snapshot(end))
            kernel.set_period(names[int(rng.integers(0, n_tasks))], int(rng.integers(2, 21)) * MS)
        windows.append(kernel.window_snapshot(horizon + 1))

        # an event on a window's end instant belongs to the next window
        assert all(windows[0].releases[name] == [] for name in names)
        assert all(windows[1].releases[name][0] == 0 for name in names)
        start = 0
        for window in windows:
            for timelines in (window.releases, window.finishes):
                for events in timelines.values():
                    assert all(start <= t < window.end_ns for t in events)
                    assert list(events) == sorted(events)
            start = window.end_ns
        # each release and completion lands in exactly one window
        for name in names:
            st = kernel.stats(name)
            got_releases = [t for w in windows for t in w.releases[name]]
            got_finishes = [t for w in windows for t in w.finishes[name]]
            assert got_releases == releases[name]
            assert got_finishes == finishes[name]
            assert [x for w in windows for x in w.samples[name]] == execs[name]
            assert (len(got_releases), len(got_finishes)) == (st.released, st.completed)
        # jobs straddle windows: some window completes a different number than it releases
        assert any(len(w.finishes[name]) != len(w.releases[name]) for w in windows for name in names)


class TestNoiseHelpers:
    def test_sample_execution_time_noise_free_is_exact(self):
        # rel_std == 0 gives the mean whatever the normal value
        assert sample_execution_time(123_456, np.array([0.0, 2.5, -50.0]), 0.0) == [123_456] * 3

    def test_sample_execution_time_gaussian(self):
        got = sample_execution_time(1_000_000, np.array([2.0]), 0.1)
        assert got == [1_200_000]

    def test_sample_execution_time_floor(self):
        got = sample_execution_time(1_000_000, np.array([-50.0]), 0.1)
        assert got == [10_000]  # floored at 1% of the mean

    @pytest.mark.parametrize("size", [NOISE_BLOCK, 5])
    def test_exec_draws_match_scalar_draws(self, size):
        n = 2 * size + 17  # at least three refills, the last one partly used
        scalar = np.random.default_rng(7)
        passthrough = ExecDraws(
            _blocks(np.random.default_rng(7), size),
            1.0,
            lambda mean_ns, normals, rel_std: normals.tolist(),
        )
        assert [next(passthrough.times(1, j)) for j in range(n)] == [float(scalar.standard_normal()) for _ in range(n)]
        scalar = np.random.default_rng(7)
        draws = ExecDraws(_blocks(np.random.default_rng(7), size), 0.1, sample_execution_time)
        expected = [_scalar_time(1_000_000, float(scalar.standard_normal()), 0.1) for _ in range(n)]
        assert [next(draws.times(1_000_000, j)) for j in range(n)] == expected
        # one iterator from job 0 runs on through every refill
        draws = ExecDraws(_blocks(np.random.default_rng(7), size), 0.1, sample_execution_time)
        assert list(islice(draws.times(1_000_000, 0), n)) == expected
        # means that alternate mid-block, a new iterator at every job
        means = [(1_000_000, 3_000_000)[k % 2] if k % 5 else 7_000_000 for k in range(n)]
        scalar = np.random.default_rng(7)
        draws = ExecDraws(_blocks(np.random.default_rng(7), size), 0.1, sample_execution_time)
        expected = [_scalar_time(mean, float(scalar.standard_normal()), 0.1) for mean in means]
        assert [next(draws.times(mean, j)) for j, mean in enumerate(means)] == expected

    def test_span_at_bounds_the_mean_at_lookup(self):
        schedule = ExecSchedule(((0, 5 * MS, 100), (5 * MS, 12 * MS, 200), (12 * MS, 13 * MS, 300)))
        assert schedule.span_at(0) == (5 * MS, 100)
        assert schedule.span_at(5 * MS - 1) == (5 * MS, 100)
        assert schedule.span_at(5 * MS) == (12 * MS, 200)
        assert schedule.span_at(12 * MS) == (13 * MS, 300)
        assert schedule.span_at(13 * MS) == (float("inf"), 300)
        assert schedule.span_at(10**15) == (float("inf"), 300)
        # the mean holds from the instant asked for until the end
        for t_ns in (0, 1, 5 * MS - 1, 5 * MS, 12 * MS, 13 * MS, 10**15):
            end, mean = schedule.span_at(t_ns)
            assert schedule.mean_at(t_ns) == schedule.mean_at(min(end, 10**16) - 1) == mean
        assert schedule.mean_at(-1) == 300  # span_at serves only t >= 0; mean_at keeps its before-0 rule

    def test_exec_draws_draw_nothing_until_asked(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        draws = ExecDraws(_blocks(rng), 0.0, sample_execution_time)
        times = draws.times(1_000_000, 0)
        assert rng.bit_generator.state == state
        assert list(islice(times, NOISE_BLOCK)) == [1_000_000] * NOISE_BLOCK
        assert rng.bit_generator.state != state  # the first time asked for refills

    def test_exec_draws_refuse_a_job_outside_the_last_block_and_the_next(self):
        draws = ExecDraws(_blocks(np.random.default_rng(7), 5), 0.0, sample_execution_time)
        assert list(islice(draws.times(100, 3), 2)) == [100, 100]  # jobs 3 and 4 of the first block
        assert list(islice(draws.times(200, 3), 2)) == [200, 200]  # the same jobs again, at another mean
        assert next(draws.times(100, 0)) == 100  # an earlier job of the block last taken
        assert next(draws.times(100, 9)) == 100  # the next block's last job
        with pytest.raises(ValueError, match="job 4 lies outside the block last taken and the next one"):
            next(draws.times(100, 4))  # the block last taken holds jobs 5 to 9
        with pytest.raises(ValueError, match="job 15 lies outside the block last taken and the next one"):
            next(draws.times(100, 15))  # jobs 10 to 14 would be skipped

    @pytest.mark.parametrize("seed, stream", [(7, 0), (3, 4)])
    def test_normal_blocks_match_scalar_draws(self, seed, stream):
        n = 3  # blocks
        blocks = normal_blocks(seed, stream)
        assert inspect.getgeneratorstate(blocks) == inspect.GEN_CREATED  # nothing built until asked for
        drawn = [next(blocks) for _ in range(n)]
        assert [len(block) for block in drawn] == [NOISE_BLOCK] * n
        scalar = np.random.default_rng(np.random.SeedSequence([seed, stream]))
        expected = [float(scalar.standard_normal()) for _ in range(n * NOISE_BLOCK)]
        assert [z for block in drawn for z in block.tolist()] == expected

    def test_only_normal_blocks_draws_random_values(self):
        # any other module or function seeding or drawing a stream would be a
        # second owner of how the run's noise is drawn
        src = Path(ffsched.__file__).parent
        drawers = {"default_rng", "SeedSequence", "Generator", "standard_normal"}

        def called(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    yield node, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.relative_to(src).as_posix() == "rtsim.py":
                (owner,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "normal_blocks"]
                assert {name for _, name in called(owner)} >= drawers - {"Generator"}
                allowed = {id(node) for node, _ in called(owner)}
            for node, name in called(tree):
                if name in drawers and id(node) not in allowed:
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}: {name}")
        assert offenders == []

    def test_only_the_stream_readers_import_numpy(self):
        # numpy is imported at the first read of a stream, so `table`, a
        # rejected scenario and a noise-free run never load it
        src = Path(ffsched.__file__).parent
        owners = {"normal_blocks", "sample_execution_time"}

        def numpy_imports(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    yield node

        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.relative_to(src).as_posix() == "rtsim.py":
                functions = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in owners]
                assert sorted(f.name for f in functions) == sorted(owners)
                for function in functions:
                    (node,) = numpy_imports(function)
                    allowed.add(id(node))
            for node in numpy_imports(tree):
                if id(node) not in allowed:
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []

    def test_sample_execution_time_validation(self):
        with pytest.raises(ValueError):
            sample_execution_time(0, np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            sample_execution_time(100, np.zeros(1), -0.1)
        with pytest.raises(ValueError):
            sample_execution_time(100, np.zeros(1), float("nan"))

    def test_measure_utilization_hand_case(self):
        window = _window({"a": (2 * MS, 4 * MS), "b": (3 * MS,)})
        sample = measure_utilization(window, {"a": 10 * MS, "b": 30 * MS})
        assert sample.value == pytest.approx(0.4)
        assert sample.raw == sample.value

    def test_measure_utilization_ignores_unlisted_tasks(self):
        window = _window({"a": (5 * MS,), "sched": (1 * MS,)})
        sample = measure_utilization(window, {"a": 10 * MS})
        assert sample.value == pytest.approx(0.5)

    def test_measure_utilization_additive_noise_and_clamp(self):
        window = _window({"a": (4 * MS,)})
        noisy = measure_utilization(window, {"a": 10 * MS}, normals=iter([2.0]), noise_std=0.05)
        assert noisy.raw == pytest.approx(0.5)
        assert noisy.value == pytest.approx(0.5)
        over = measure_utilization(window, {"a": 10 * MS}, normals=iter([20.0]), noise_std=0.05)
        assert over.raw == pytest.approx(1.4)
        assert over.value == 1.0
        under = measure_utilization(window, {"a": 10 * MS}, normals=iter([-20.0]), noise_std=0.05)
        assert under.raw == pytest.approx(-0.6)
        assert under.value == 0.0

    def test_measure_utilization_clamp_keeps_the_sign_and_the_object(self):
        window = _window({"a": (4 * MS,)})
        inside = measure_utilization(window, {"a": 10 * MS}, normals=iter([2.0]), noise_std=0.05)
        assert inside.value is inside.raw
        # raw is never -0.0 (the sum starts at +0.0, and x + -x is +0.0), so
        # the clamp is checked at a subnormal below zero and at zero itself
        empty = _window({"a": ()})
        for z in (-1e-320, 0.0):
            below = measure_utilization(empty, {"a": 10 * MS}, normals=iter([z]), noise_std=1.0)
            assert below.raw == z
            assert math.copysign(1.0, below.value) == 1.0

    def test_window_and_sample_are_read_only(self):
        window = _window({"a": (4 * MS,)})
        sample = measure_utilization(window, {"a": 10 * MS})
        with pytest.raises(AttributeError):
            window.end_ns = 1
        with pytest.raises(AttributeError):
            sample.value = 0.0

    def test_measure_utilization_validation(self):
        window = _window({"a": (4 * MS,)})
        with pytest.raises(ValueError):
            measure_utilization(window, {"a": 0})
        with pytest.raises(ValueError):
            measure_utilization(window, {"a": 10 * MS}, noise_std=0.1)


def _scalar_time(mean_ns: int, z: float, rel_std: float, floor_frac: float = 0.01) -> int:
    """Oracle: one execution time from one normal value, in Python scalars."""
    floor = max(1, round(floor_frac * mean_ns))
    return max(floor, round(mean_ns * (1 + rel_std * z)))


@st.composite
def _tie(draw):
    """(mean_ns, z, rel_std) with mean_ns * (1 + rel_std * z) exactly k + 0.5:
    dyadic values keep every step of the product exact."""
    p = draw(st.integers(0, 20))
    rel_std = 2.0 ** -draw(st.integers(-1, 3))  # 2, 1, 1/2, 1/4 or 1/8
    k = draw(st.integers(-(2**p), 4 * 2**p))
    return 2**p, ((k + 0.5) / 2**p - 1.0) / rel_std, rel_std


class TestBatchedSampler:
    """`sample_execution_time` and `ExecDraws` against the scalar oracle."""

    # the largest mean validation lets through for a given exec_std
    @staticmethod
    def _max_mean(rel_std: float) -> int:
        return int(ExecSchedule.FOREVER / (1.0 + 40.0 * rel_std))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data(), rel_std=st.floats(0.0, 3.0))
    def test_matches_scalar_oracle(self, data, rel_std):
        mean_ns = data.draw(st.one_of(st.integers(1, 10**7), st.integers(1, self._max_mean(rel_std))))
        zs = data.draw(
            st.lists(
                st.one_of(
                    st.floats(-39.9, 39.9),
                    st.floats(-39.9, -0.99 / rel_std if rel_std > 0.03 else -33.0),  # below the floor
                ),
                min_size=1,
                max_size=20,
            )
        )
        assert sample_execution_time(mean_ns, np.array(zs), rel_std) == [_scalar_time(mean_ns, z, rel_std) for z in zs]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=_tie())
    def test_ties_round_half_to_even(self, case):
        mean_ns, z, rel_std = case
        assert mean_ns * (1 + rel_std * z) % 1 == 0.5
        assert sample_execution_time(mean_ns, np.array([z]), rel_std) == [_scalar_time(mean_ns, z, rel_std)]

    def test_tie_hand_case(self):
        # 2 * (1 + z) is 1.5, 2.5 and 3.5: round half to even gives 2, 2 and 4
        assert sample_execution_time(2, np.array([-0.25, 0.25, 0.75]), 1.0) == [2, 2, 4]

    def _calls(self, seed, runs, rel_std=0.2, size=NOISE_BLOCK):
        """Times from `ExecDraws` over blocks of `size`, one iterator per
        `(mean, jobs)` run in turn, the scalar oracle's times over the same
        generator, and the sizes of the `sample` calls."""
        sizes = []

        def sample(mean_ns, normals, rel_std):
            sizes.append(len(normals))
            return sample_execution_time(mean_ns, normals, rel_std)

        draws = ExecDraws(_blocks(np.random.default_rng(seed), size), rel_std, sample)
        got, means = [], []
        for mean, jobs in runs:
            got += islice(draws.times(mean, len(means)), jobs)
            means += [mean] * jobs
        scalar = np.random.default_rng(seed)
        expected = [_scalar_time(mean, float(scalar.standard_normal()), rel_std) for mean in means]
        return got, expected, sizes

    def test_exec_draws_mean_changing_at_every_draw(self):
        runs = [(1_000 + 7 * j, 1) for j in range(2 * NOISE_BLOCK + 17)]
        got, expected, sizes = self._calls(3, runs)
        assert got == expected
        assert len(sizes) == len(runs)

    @pytest.mark.parametrize("size", [NOISE_BLOCK, 5])  # the refill follows the block's own length
    def test_exec_draws_mean_changing_at_block_boundaries(self, size):
        n = 3 * size
        # a new mean exactly at the second refill, and one draw before the third
        runs = [(600_000, size), (1_200_000, size - 1), (900_000, size + 1)]
        got, expected, sizes = self._calls(5, runs, size=size)
        assert got == expected and len(got) == n
        # an iterator converts the rest of its first job's block, then each block it reaches
        assert sizes == [size, size, 1, size]

    def test_product_past_forever_raises(self):
        with pytest.raises(ValueError, match="past"):
            sample_execution_time(2**62, np.array([0.0, 1.0]), 3.0)  # 2**64 ns
        with pytest.raises(ValueError, match="past"):
            sample_execution_time(2**62, np.array([1.0]), 1.0)  # 2**63 ns, one past FOREVER
        assert sample_execution_time(2**62, np.array([0.5]), 1.0) == [3 * 2**61]
