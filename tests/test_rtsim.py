"""Discrete-event kernel: hand-checked timelines, hooks, noise helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffsched.rtsim import (
    NOISE_BLOCK,
    ExecDraws,
    ExecSchedule,
    Kernel,
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
        # rel_std == 0 gives the mean whatever the normal value
        assert sample_execution_time(123_456, np.array([0.0, 2.5, -50.0]), 0.0) == [123_456] * 3

    def test_sample_execution_time_gaussian(self):
        got = sample_execution_time(1_000_000, np.array([2.0]), 0.1)
        assert got == [1_200_000]

    def test_sample_execution_time_floor(self):
        got = sample_execution_time(1_000_000, np.array([-50.0]), 0.1)
        assert got == [10_000]  # floored at 1% of the mean

    def test_exec_draws_match_scalar_draws(self):
        n = 2 * NOISE_BLOCK + 17  # three refills, the last one partly used
        scalar = np.random.default_rng(7)
        passthrough = ExecDraws(np.random.default_rng(7), 1.0, lambda mean_ns, normals, rel_std: normals.tolist())
        assert [passthrough.draw(1) for _ in range(n)] == [float(scalar.standard_normal()) for _ in range(n)]
        scalar = np.random.default_rng(7)
        draws = ExecDraws(np.random.default_rng(7), 0.1, sample_execution_time)
        expected = [_scalar_time(1_000_000, float(scalar.standard_normal()), 0.1) for _ in range(n)]
        assert [draws.draw(1_000_000) for _ in range(n)] == expected

    def test_exec_draws_draw_nothing_until_asked(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        draws = ExecDraws(rng, 0.0, sample_execution_time)
        assert rng.bit_generator.state == state
        assert draws.draw(1_000_000) == 1_000_000
        assert rng.bit_generator.state != state  # the first time asked for refills

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

    def _calls(self, seed, means, rel_std=0.2):
        """Times from `ExecDraws` for each mean in turn, the scalar oracle's
        times over the same generator, and the sizes of the `sample` calls."""
        sizes = []

        def sample(mean_ns, normals, rel_std):
            sizes.append(len(normals))
            return sample_execution_time(mean_ns, normals, rel_std)

        draws = ExecDraws(np.random.default_rng(seed), rel_std, sample)
        got = [draws.draw(mean) for mean in means]
        scalar = np.random.default_rng(seed)
        expected = [_scalar_time(mean, float(scalar.standard_normal()), rel_std) for mean in means]
        return got, expected, sizes

    def test_exec_draws_mean_changing_at_every_draw(self):
        means = [1_000 + 7 * j for j in range(2 * NOISE_BLOCK + 17)]
        got, expected, sizes = self._calls(3, means)
        assert got == expected
        assert len(sizes) == len(means)

    def test_exec_draws_mean_changing_at_block_boundaries(self):
        n = 3 * NOISE_BLOCK
        # a new mean exactly at the second refill, and one draw before the third
        means = [600_000] * NOISE_BLOCK + [1_200_000] * (NOISE_BLOCK - 1) + [900_000] * (NOISE_BLOCK + 1)
        got, expected, sizes = self._calls(5, means)
        assert got == expected and len(got) == n
        assert sizes == [NOISE_BLOCK, NOISE_BLOCK, 1, NOISE_BLOCK]  # only the rest of a block is redone

    def test_product_past_forever_raises(self):
        with pytest.raises(ValueError, match="past"):
            sample_execution_time(2**62, np.array([0.0, 1.0]), 3.0)  # 2**64 ns
        with pytest.raises(ValueError, match="past"):
            sample_execution_time(2**62, np.array([1.0]), 1.0)  # 2**63 ns, one past FOREVER
        assert sample_execution_time(2**62, np.array([0.5]), 1.0) == [3 * 2**61]
