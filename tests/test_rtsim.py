"""Discrete-event kernel: hand-checked timelines, hooks, noise helpers."""

import numpy as np
import pytest

from ffsched.rtsim import (
    NOISE_BLOCK,
    ExecSchedule,
    Kernel,
    NormalStream,
    Segment,
    TaskKind,
    TaskSpec,
    WindowData,
    measure_utilization,
    sample_execution_time,
)

MS = 1_000_000


def _window(samples):
    return WindowData(end_ns=0, samples=samples)


def _task(name, priority, period_ms, exec_ms, kind=TaskKind.LOAD):
    return TaskSpec(
        name=name,
        kind=kind,
        priority=priority,
        period_ns=int(period_ms * MS),
        exec_schedule=ExecSchedule.constant(int(exec_ms * MS)),
    )


class _StubRng:
    """Stands in for a Generator when a test needs an exact normal draw."""

    def __init__(self, z: float):
        self.z = z

    def standard_normal(self) -> float:
        return self.z


def _scan_mean_at(schedule: ExecSchedule, t_ns: int) -> int:
    """Reference lookup: a linear scan over the segments."""
    for start, end, mean in schedule.segments:
        if start <= t_ns < end:
            return mean
    return schedule.segments[-1][2]


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
        kernel = Kernel([_task("A", 1, 10, 3), _task("B", 2, 15, 6)], record_segments=True)
        kernel.run(30 * MS)
        assert kernel.segments == [
            Segment("A", 0, 0 * MS, 3 * MS),
            Segment("B", 0, 3 * MS, 9 * MS),
            Segment("A", 1, 10 * MS, 13 * MS),
            Segment("B", 1, 15 * MS, 20 * MS),
            Segment("A", 2, 20 * MS, 23 * MS),
            Segment("B", 1, 23 * MS, 24 * MS),
        ]
        a, b = kernel.stats("A"), kernel.stats("B")
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
        with pytest.raises(ValueError):
            kernel.set_period("t", 0)
        with pytest.raises(ValueError):
            kernel.run(-1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Kernel([])
        with pytest.raises(ValueError):
            Kernel([_task("t", 1, 10, 1), _task("t", 2, 10, 1)])
        with pytest.raises(ValueError):
            Kernel([_task("a", 1, 10, 1), _task("b", 1, 10, 1)])

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


class TestKernelResume:
    """`run` keeps its clock, running task and next release in locals; a run
    split at arbitrary instants must match one uninterrupted run."""

    @staticmethod
    def _simulate(stops):
        releases, starts, finishes, late_hooks = [], [], [], []
        kernel = None

        def on_release(name, release_ns):
            if kernel.now_ns != release_ns:
                late_hooks.append(("release", name, release_ns, kernel.now_ns))
            releases.append((name, release_ns))

        def on_start(name, release_ns, start_ns):
            if kernel.now_ns != start_ns:
                late_hooks.append(("start", name, start_ns, kernel.now_ns))
            starts.append((name, release_ns, start_ns))
            if name == "A":  # re-period from inside the start hook, as the feedback scheduler does
                kernel.set_period("C", 9 * MS if kernel.period_of("C") == 7 * MS else 7 * MS)

        def on_finish(rec):
            if kernel.now_ns != rec.finish_ns:
                late_hooks.append(("finish", rec.task, rec.finish_ns, kernel.now_ns))
            finishes.append(rec)

        kernel = Kernel(
            [_task("A", 1, 10, 3), _task("B", 2, 15, 6), _task("C", 3, 7, 2)],
            on_job_release=on_release,
            on_job_start=on_start,
            on_job_finish=on_finish,
            record_segments=True,
        )
        for stop in stops:
            kernel.run(stop)
        assert late_hooks == []
        stats = {name: kernel.stats(name) for name in "ABC"}
        return releases, starts, finishes, kernel.segments, stats

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
        releases, _, finishes, _, stats = whole
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
        assert first.samples["t"] == (2 * MS, 2 * MS)
        # a second snapshot at the same boundary finds nothing left
        assert kernel.window_snapshot(20 * MS).samples["t"] == ()
        second = kernel.window_snapshot(40 * MS)
        assert second.samples["t"] == (2 * MS, 2 * MS)

    def test_samples_filed_at_release_not_completion(self):
        # exec 15 ms overruns the 10 ms period; releases still file samples
        kernel = Kernel([_task("t", 1, 10, 15)])
        kernel.run(20 * MS)
        snap = kernel.window_snapshot(20 * MS)
        assert snap.samples["t"] == (15 * MS, 15 * MS)


class TestNoiseHelpers:
    def test_sample_execution_time_noise_free_is_exact(self):
        # rel_std == 0 must not touch the generator at all
        assert sample_execution_time(123_456, None, 0.0) == 123_456

    def test_sample_execution_time_gaussian(self):
        got = sample_execution_time(1_000_000, _StubRng(2.0), 0.1)
        assert got == 1_200_000

    def test_sample_execution_time_floor(self):
        got = sample_execution_time(1_000_000, _StubRng(-50.0), 0.1)
        assert got == 10_000  # floored at 1% of the mean

    def test_normal_stream_matches_scalar_draws(self):
        n = 2 * NOISE_BLOCK + 17  # three refills, the last one partly used
        scalar = np.random.default_rng(7)
        stream = NormalStream(np.random.default_rng(7))
        assert [stream.standard_normal() for _ in range(n)] == [float(scalar.standard_normal()) for _ in range(n)]

    def test_normal_stream_draws_nothing_until_asked(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        stream = NormalStream(rng)
        assert sample_execution_time(1_000_000, stream, 0.0) == 1_000_000
        assert rng.bit_generator.state == state

    def test_sample_execution_time_validation(self):
        with pytest.raises(ValueError):
            sample_execution_time(0, None, 0.0)
        with pytest.raises(ValueError):
            sample_execution_time(100, None, -0.1)

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
        noisy = measure_utilization(window, {"a": 10 * MS}, rng=_StubRng(2.0), noise_std=0.05)
        assert noisy.raw == pytest.approx(0.5)
        assert noisy.value == pytest.approx(0.5)
        over = measure_utilization(window, {"a": 10 * MS}, rng=_StubRng(20.0), noise_std=0.05)
        assert over.raw == pytest.approx(1.4)
        assert over.value == 1.0
        under = measure_utilization(window, {"a": 10 * MS}, rng=_StubRng(-20.0), noise_std=0.05)
        assert under.raw == pytest.approx(-0.6)
        assert under.value == 0.0

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
