"""End-to-end runs: determinism, trace round-trips, per-mode behaviour."""

import csv
import math
from collections import defaultdict
from dataclasses import replace

import pytest

import ffsched.experiment as experiment
from ffsched.experiment import (
    ExperimentResult,
    TraceRecord,
    emit_traces,
    format_summary,
    format_trace_csv,
    run_experiment,
    trace_header,
)
from ffsched.control import ReferencePath, reference_at
from ffsched.rtsim import NS, ExecDraws, Kernel, seconds_to_ns
from ffsched.scenario import SCHEDULER_TASK, default_scenario
from invariants import _verify_case

H_MIN, H_MAX = 0.001, 0.007


@pytest.fixture(scope="module")
def fuzzy_result():
    return run_experiment(default_scenario(), seed=1)


@pytest.fixture(scope="module")
def noise_free():
    cfg = replace(default_scenario(), exec_std=0.0, util_std=0.0)
    return {
        mode: run_experiment(replace(cfg, mode=mode), seed=1)
        for mode in ("fuzzy", "ideal", "open")
    }


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, fuzzy_result):
        again = run_experiment(default_scenario(), seed=1)
        assert format_trace_csv(again) == format_trace_csv(fuzzy_result)
        assert again.summary == fuzzy_result.summary

    def test_seed_changes_the_trace(self, fuzzy_result):
        other = run_experiment(default_scenario(), seed=2)
        assert format_trace_csv(other) != format_trace_csv(fuzzy_result)

    def test_emitted_files_are_identical(self, fuzzy_result, tmp_path):
        t1, s1 = emit_traces(str(tmp_path / "a"), fuzzy_result)
        t2, s2 = emit_traces(str(tmp_path / "b"), run_experiment(default_scenario(), seed=1))
        assert open(t1, "rb").read() == open(t2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()


class TestTraceShape:
    def test_invocation_grid(self, fuzzy_result):
        records = fuzzy_result.records
        # one record per scheduler invocation except the warm-up at t = 0
        assert len(records) == 199
        assert records[0].t_s == pytest.approx(0.02)
        assert records[-1].t_s == pytest.approx(3.98)
        assert fuzzy_result.summary.invocations == 199

    def test_header_names_follow_control_tasks(self, fuzzy_result):
        assert fuzzy_result.control_names == ("tau1", "tau2")
        assert trace_header(("tau1", "tau2")) == "t,u_meas,u_raw,eta,h_tau1,h_tau2,x_ref,y_ref,x_act,y_act,err"
        assert format_trace_csv(fuzzy_result).splitlines()[0] == trace_header(("tau1", "tau2"))

    def test_measured_utilization_is_clamped_raw_is_not(self, fuzzy_result):
        assert all(0.0 <= r.u_meas <= 1.0 for r in fuzzy_result.records)
        assert any(r.u_raw != r.u_meas for r in fuzzy_result.records)  # noise does clip sometimes

    def test_csv_cells_are_the_reprs_of_the_record(self):
        # a line must equal the join of its cells' reprs, also for values
        # whose repr is unusual: -0.0, subnormals, huge and infinite values
        records = (
            TraceRecord(-0.0, 5e-324, 1e308, math.inf, (-math.inf, 0.001), (-0.0, 2.2250738585072014e-308),
                        (1e-310, -1e308), 0.1),
            TraceRecord(0.02, 1.0, -0.5, 1.0000000000000002, (0.004, 0.005), (0.0, 0.0), (1.5, -0.0), math.inf),
        )
        result = ExperimentResult(control_names=("a", "b"), records=records, summary=None)
        lines = format_trace_csv(result).splitlines()
        assert lines[0] == trace_header(("a", "b"))
        for line, r in zip(lines[1:], records, strict=True):
            cells = (r.t_s, r.u_meas, r.u_raw, r.eta, *r.periods_s, *r.ref, *r.act, r.err)
            assert line == ",".join(map(repr, cells))

    def test_records_are_read_only(self, fuzzy_result):
        record = fuzzy_result.records[0]
        with pytest.raises(AttributeError):
            record.err = 0.0

    def test_round_trip_through_csv(self, fuzzy_result, tmp_path):
        trace_path, _ = emit_traces(str(tmp_path), fuzzy_result)
        with open(trace_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == trace_header(fuzzy_result.control_names).split(",")
        assert len(rows) == len(fuzzy_result.records)
        # repr round-trip keeps every float exact
        assert all(
            [float(c) for c in row]
            == [r.t_s, r.u_meas, r.u_raw, r.eta, *r.periods_s, *r.ref, *r.act, r.err]
            for row, r in zip(rows, fuzzy_result.records)
        )

    def test_summary_text_mentions_every_task(self, fuzzy_result):
        text = format_summary(fuzzy_result.summary)
        for needle in ("mode = fuzzy", "seed = 1", "tau1.missed", "tau2.missed", "tau3.missed", "sched.released"):
            assert needle in text


class TestModeBehaviour:
    def test_fuzzy_periods_stay_inside_bounds(self, fuzzy_result):
        for r in fuzzy_result.records:
            assert 0.5 <= r.eta <= 1.5
            for h in r.periods_s:
                assert H_MIN <= h <= H_MAX

    def test_open_loop_never_rescales(self, noise_free):
        result = noise_free["open"]
        assert all(r.eta == 1.0 for r in result.records)
        assert all(r.periods_s == (0.003, 0.004) for r in result.records)
        assert result.summary.final_periods_s == (0.003, 0.004)

    def test_ideal_reaches_its_fixed_point(self, noise_free):
        # final segment: c = (1.2, 1.2) ms, u_others = 0.3 -> h = (42/11, 56/11) ms
        final = noise_free["ideal"].summary.final_periods_s
        assert final[0] == pytest.approx(0.042 / 11, rel=1e-5)
        assert final[1] == pytest.approx(0.056 / 11, rel=1e-5)
        # period ratio is preserved by common rescaling
        for r in noise_free["ideal"].records:
            assert r.periods_s[1] / r.periods_s[0] == pytest.approx(4 / 3, rel=1e-6)

    def test_noise_free_fuzzy_settles(self, noise_free):
        records = noise_free["fuzzy"].records
        # heavy plateau: utilization sits in the dead band, periods frozen
        mid = [r for r in records if 2.5 < r.t_s <= 3.0]
        assert all(r.eta == 1.0 for r in mid)
        assert all(abs(r.u_meas - 0.85) < 0.06 for r in mid)
        # lighter final segment: a bounded limit cycle within one table level
        tail = [r for r in records if r.t_s > 3.0]
        assert all(abs(r.eta - 1.0) <= 1.0 / 14.0 + 1e-12 for r in tail)
        u_tail = [r.u_meas for r in tail]
        assert min(u_tail) > 0.70
        assert max(u_tail) <= 0.85

    def test_scheduler_task_accounting(self, fuzzy_result):
        stats = fuzzy_result.summary.task_stats
        assert stats["sched"].released == 201  # one release lands exactly on the horizon
        assert stats["sched"].completed == 200
        assert stats["sched"].missed == 0


class TestSummaryNumbers:
    def test_mean_error_is_mean_of_records(self, fuzzy_result):
        from statistics import fmean

        assert fuzzy_result.summary.mean_tracking_error == pytest.approx(
            fmean(r.err for r in fuzzy_result.records)
        )
        assert fuzzy_result.summary.max_tracking_error == max(r.err for r in fuzzy_result.records)

    def test_final_second_mean_utilization(self, fuzzy_result):
        from statistics import fmean

        tail = [r.u_meas for r in fuzzy_result.records if r.t_s > 3.0]
        assert len(tail) == 49
        assert fuzzy_result.summary.mean_utilization_final == pytest.approx(fmean(tail))


class TestReferenceEndPoint:
    """The run evaluates the path's end point once and reuses it from
    `duration` on. A duration that rounds down to whole ns must not make it
    reuse that value one instant early."""

    DURATION_S = 0.1000000004  # 100000000 ns once rounded, yet above 0.1 s

    def test_every_reference_matches_the_path(self, monkeypatch):
        starting = []
        releases = defaultdict(list)
        latched = defaultdict(list)

        class RecordingKernel(Kernel):
            def __init__(self, tasks, *, on_job_release, on_job_start, **kwargs):
                def release(name, release_ns):
                    releases[name].append(release_ns)
                    on_job_release(name, release_ns)

                def start(name, release_ns, start_ns):
                    starting.append(name)
                    on_job_start(name, release_ns, start_ns)

                super().__init__(tasks, on_job_release=release, on_job_start=start, **kwargs)

        def recording_pid_update(gains, period, integrator, deriv, last_meas, ref, meas):
            latched[starting[-1]].append(ref)
            return pid_update(gains, period, integrator, deriv, last_meas, ref, meas)

        pid_update = experiment.pid_update
        monkeypatch.setattr(experiment, "Kernel", RecordingKernel)
        monkeypatch.setattr(experiment, "pid_update", recording_pid_update)
        # open loop: tau2 keeps its 4 ms period, so it is released at 0.1 s itself
        cfg = replace(default_scenario(), mode="open", horizon_s=0.3, ref_duration_s=self.DURATION_S)
        result = run_experiment(cfg, seed=1)
        path = ReferencePath(duration=self.DURATION_S)
        assert seconds_to_ns(self.DURATION_S) / NS == 0.1
        assert {r.t_s for r in result.records} >= {0.1, 0.12}
        for r in result.records:
            assert r.ref == reference_at(path, r.t_s), r.t_s
        # the samples latched at each control release, consumed in FIFO order
        assert 100_000_000 in releases["tau2"]
        for axis, name in enumerate(result.control_names):
            refs = latched[name]
            assert len(refs) > 50
            assert refs == [reference_at(path, t / NS)[axis] for t in releases[name][: len(refs)]]


class TestKernelInvariantsInTheLoop:
    """The kernel invariants of the synthetic suites, checked on the real
    co-simulation, where the scheduler re-periods tasks from inside the
    kernel's job-start hook."""

    @pytest.mark.parametrize("mode", ["fuzzy", "ideal", "open"])
    def test_invariants_hold(self, mode, monkeypatch):
        kernels = []

        class RecordingKernel(Kernel):
            def __init__(self, tasks, *, on_job_release, on_job_finish, **kwargs):
                self.specs = list(tasks)
                self.releases = defaultdict(list)
                self.finishes = defaultdict(list)

                def release(name, release_ns):
                    self.releases[name].append(release_ns)
                    on_job_release(name, release_ns)

                def finish(rec):
                    self.finishes[rec.task].append(rec)
                    on_job_finish(rec)

                super().__init__(
                    self.specs, on_job_release=release, on_job_finish=finish, record_segments=True, **kwargs
                )
                kernels.append(self)

        monkeypatch.setattr(experiment, "Kernel", RecordingKernel)
        horizon_s = 0.5  # the check is O(segments x jobs)
        run_experiment(replace(default_scenario(), mode=mode, horizon_s=horizon_s), seed=1)
        (kernel,) = kernels
        _verify_case(kernel.specs, kernel, kernel.releases, kernel.finishes, seconds_to_ns(horizon_s))
        # a job's deadline is its release plus the period in force then, and a
        # period change moves only the releases after the next one
        for name, recs in kernel.finishes.items():
            rels = kernel.releases[name]
            for rec in recs[:-1]:  # the successor of the last one may lie past the horizon
                assert rels[rec.index + 1] == rec.deadline_ns, (name, rec)
        periods_seen = {r.deadline_ns - r.release_ns for r in kernel.finishes["tau1"]}
        assert (len(periods_seen) > 1) == (mode != "open")


class TestNoiseDraws:
    def _count_draws(self, cfg, monkeypatch):
        draws = [0]

        class CountingDraws(ExecDraws):
            __slots__ = ()

            def draw(self, mean_ns):
                draws[0] += 1
                return super().draw(mean_ns)

        monkeypatch.setattr(experiment, "ExecDraws", CountingDraws)
        result = run_experiment(cfg, seed=1)
        return draws[0], result

    def test_one_draw_per_user_job(self, monkeypatch):
        draws, result = self._count_draws(replace(default_scenario(), horizon_s=0.5), monkeypatch)
        stats = result.summary.task_stats
        assert draws == sum(s.released for name, s in stats.items() if name != SCHEDULER_TASK)

    def test_noise_free_runs_draw_nothing(self, monkeypatch):
        cfg = replace(default_scenario(), horizon_s=0.5, exec_std=0.0)
        samples = []
        monkeypatch.setattr(experiment, "sample_execution_time", lambda *args: samples.append(args))
        draws, _ = self._count_draws(cfg, monkeypatch)
        assert draws == 0
        assert samples == []  # no execution time is converted either
