"""End-to-end runs: determinism, trace round-trips, per-mode behaviour."""

import csv
import math
import os
import subprocess
import sys
from collections import defaultdict

import pytest

import ffsched.experiment as experiment
from ffsched.experiment import (
    ExperimentResult,
    TraceRecord,
    emit_traces,
    format_summary,
    run_experiment,
    trace_header,
    trace_lines,
)
from ffsched.control import PlantParams, ReferencePath, reference_at
from ffsched.rtsim import NOISE_BLOCK, NS, ExecDraws, ExecSchedule, seconds_to_ns
from ffsched.scenario import SCHEDULER_TASK, default_scenario
from corpus import flickering_scenario
from invariants import check_dispatch, span_entries
from run_probe import assert_matches_model, watch

H_MIN, H_MAX = 0.001, 0.007


def _trace_csv(result):
    return "".join(trace_lines(result))


@pytest.fixture(scope="module")
def fuzzy_result():
    return run_experiment(default_scenario(), seed=1)


@pytest.fixture(scope="module")
def noise_free():
    cfg = default_scenario().replace(exec_std=0.0, util_std=0.0)
    return {
        mode: run_experiment(cfg.replace(mode=mode), seed=1)
        for mode in ("fuzzy", "ideal", "open")
    }


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, fuzzy_result):
        again = run_experiment(default_scenario(), seed=1)
        assert _trace_csv(again) == _trace_csv(fuzzy_result)
        assert again.summary == fuzzy_result.summary

    def test_seed_changes_the_trace(self, fuzzy_result):
        other = run_experiment(default_scenario(), seed=2)
        assert _trace_csv(other) != _trace_csv(fuzzy_result)

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
        assert _trace_csv(fuzzy_result).splitlines()[0] == trace_header(("tau1", "tau2"))

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
            # an unclamped measurement is one object in both cells; equal values need not be
            TraceRecord(0.04, u := 0.3, u, 1.0, (0.004, 0.005), (0.0, 0.0), (0.0, 0.0), 0.0),
            TraceRecord(0.06, 0.0, -0.0, 1.0, (0.004, 0.005), (0.0, 0.0), (0.0, 0.0), 0.0),
            # consecutive rows may share one eta, periods tuple and reference
            # tuple, whose cells are then formatted once
            TraceRecord(0.08, 0.5, 0.5, eta := float("0.0"), h := (float("0.0"), 0.005), ref := (float("-0.0"), 1.0),
                        (0.0, 0.0), 0.0),
            TraceRecord(0.10, 0.5, 0.5, eta, h, ref, (0.0, 0.0), 0.0),
            # equal values in distinct objects are formatted anew: a cell cache
            # keyed on equality would repeat the previous row's 0.0 or -0.0
            TraceRecord(0.12, 0.5, 0.5, float("-0.0"), (float("-0.0"), 0.005), (float("0.0"), 1.0), (0.0, 0.0), 0.0),
            TraceRecord(0.14, 0.5, 0.5, float("-0.0"), (float("-0.0"), 0.005), (float("0.0"), 1.0), (0.0, 0.0), 0.0),
            TraceRecord(0.16, 0.5, 0.5, float("1.0"), (float("0.004"), 0.005), (float("1.0"), 1.0), (0.0, 0.0), 0.0),
            TraceRecord(0.18, 0.5, 0.5, float("1.0"), (float("0.004"), 0.005), (float("1.0"), 1.0), (0.0, 0.0), 0.0),
        )
        prev, r = records[4:6]
        assert prev.eta is r.eta and prev.periods_s is r.periods_s and prev.ref is r.ref
        for prev, r in (records[5:7], records[6:8], records[8:10]):
            assert prev.eta == r.eta and prev.periods_s == r.periods_s and prev.ref == r.ref
            assert prev.eta is not r.eta and prev.periods_s is not r.periods_s and prev.ref is not r.ref
        result = ExperimentResult(control_names=("a", "b"), records=records, summary=None)
        lines = _trace_csv(result).splitlines()
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


class TestFactorOneKeepsThePeriods:
    """An invocation whose factor is 1 does no period work, and its record
    shares the previous one's periods tuple."""

    @staticmethod
    def _counted_run(monkeypatch, cfg):
        calls = []
        apply_periods = experiment.apply_periods

        def counting(*args):
            calls.append(args)
            return apply_periods(*args)

        monkeypatch.setattr(experiment, "apply_periods", counting)
        return run_experiment(cfg, seed=1), len(calls)

    def test_noise_free_open_run_applies_no_periods(self, monkeypatch):
        cfg = default_scenario().replace(mode="open", exec_std=0.0, util_std=0.0)
        result, calls = self._counted_run(monkeypatch, cfg)
        assert calls == 0
        first = result.records[0].periods_s
        assert first == (0.003, 0.004)
        assert all(r.periods_s is first for r in result.records)

    def test_fuzzy_run_applies_periods_only_at_other_factors(self, monkeypatch):
        result, calls = self._counted_run(monkeypatch, default_scenario())
        records = result.records
        kept = sum(r.eta == 1.0 for r in records)
        assert 0 < kept < len(records)
        assert calls == len(records) - kept
        for prev, r in zip(records, records[1:]):
            assert (r.periods_s is prev.periods_s) == (r.eta == 1.0)


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
        control_names = ("tau1", "tau2")
        updates = []  # each PID update's reference, and the windows taken when it ran

        def recording_pid_compute(gains, period, integrator, deriv, last_meas, ref, meas):
            updates.append((len(probes[0].windows), ref))
            return pid_compute(gains, period, integrator, deriv, last_meas, ref, meas)

        pid_compute = experiment.pid_compute
        probes = watch(monkeypatch)
        monkeypatch.setattr(experiment, "pid_compute", recording_pid_compute)
        # open loop: tau2 keeps its 4 ms period, so it is released at 0.1 s itself
        cfg = default_scenario().replace(mode="open", horizon_s=0.3, ref_duration_s=self.DURATION_S)
        result = run_experiment(cfg, seed=1)
        assert result.control_names == control_names
        windows = probes[0].windows
        # every completion of a window ran one update while that window was
        # replayed: the x axis's completions in time order, then the y axis's
        due = [(k, name) for k, w in enumerate(windows, 1) for name in control_names for _ in w.finishes[name]]
        assert [k for k, _ in updates] == [k for k, _ in due]
        latched = defaultdict(list)
        for (_, name), (_, ref) in zip(due, updates):
            latched[name].append(ref)
        releases = {name: [t for w in windows for t in w.releases[name]] for name in control_names}
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
    """`check_dispatch`, the synthetic suites' check, on the real
    co-simulation, where the scheduler re-periods tasks from inside the
    kernel's job-start hook: the period changes come from the run's trace
    and the execution times from its job stream, while the release instants
    and deadlines are worked out from them, not read back from the kernel."""

    @pytest.mark.parametrize("mode", ["fuzzy", "ideal", "open"])
    def test_invariants_hold(self, mode, monkeypatch):
        records = []
        probes = watch(monkeypatch, on_job_finish=records.append)
        horizon_s = 0.5  # the check is O(segments x jobs)
        result = run_experiment(default_scenario().replace(mode=mode, horizon_s=horizon_s), seed=1)
        (kernel,) = probes
        # the run replays its loops from window snapshots, not per-job hooks
        assert not kernel.given & {"on_job_release", "on_job_finish"}
        # each record holds the control periods in force from its instant on
        changes = [
            (seconds_to_ns(r.t_s), name, seconds_to_ns(h)) for r in result.records
            for name, h in zip(result.control_names, r.periods_s)
        ]
        times = {name: [exec_ns for _, exec_ns in jobs] for name, jobs in kernel.job_stream().items()}
        check_dispatch(kernel.specs, records, kernel, times, changes, seconds_to_ns(horizon_s))
        periods_seen = {r.deadline_ns - r.release_ns for r in records if r.task == "tau1"}
        assert (len(periods_seen) > 1) == (mode != "open")


class TestStartHookOptOut:
    def test_hook_runs_for_scheduler_starts_and_one_first_job_per_other_task(self, monkeypatch):
        calls = []
        # chained before the run's start hook, whose return is passed on, as benchmark/tracing.py wraps it
        watch(monkeypatch, on_job_start=lambda name, release_ns, start_ns: calls.append(name))
        cfg = default_scenario().replace(horizon_s=1.0)
        result = run_experiment(cfg, seed=1)
        # one scheduler start per record, plus the one at 0 that starts the first window
        assert calls.count(SCHEDULER_TASK) == result.summary.invocations + 1
        assert sorted(name for name in calls if name != SCHEDULER_TASK) == sorted(t.name for t in cfg.tasks)
        assert len(calls) == result.summary.invocations + 1 + len(cfg.tasks)


class TestLazyNoise:
    RUN = """
import sys
import ffsched.cli
try:
    rc = ffsched.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits for --help and refused arguments
    rc = exc.code
assert "statistics" not in sys.modules  # nor decimal and fractions, which it imports
print(rc, "numpy.random" in sys.modules, "numpy" in sys.modules)
"""

    def _main(self, *argv):
        """`rc numpy.random-loaded numpy-loaded` after `ffsched.cli.main(argv)` in a fresh process."""
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN, *argv],
            env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @pytest.mark.parametrize("util_std, imported", [(0, False), (0.1, True)])
    def test_noise_free_run_never_imports_numpy_random(self, tmp_path, util_std, imported):
        scenario = tmp_path / "quiet.cfg"
        scenario.write_text(f"[noise]\nexec_std = 0\nutil_std = {util_std}\n")
        assert self._main("run", "--scenario", str(scenario), "--horizon", "0.5") == f"0 {imported} {imported}"

    def test_table_and_rejected_scenario_never_import_numpy(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scheduler]\ntarget = 2\n")
        assert self._main("table") == "0 False False"
        assert self._main("table", "--compile") == "0 False False"
        assert self._main("run", "--scenario", str(bad)) == "4 False False"

    def test_help_and_refused_arguments_never_import_numpy(self, tmp_path):
        malformed = tmp_path / "malformed.cfg"
        malformed.write_text("[noise\nexec_std = 0\n")
        assert self._main("--help") == "0 False False"
        assert self._main("run", "--seed", "-1") == "2 False False"
        assert self._main("run", "--scenario", str(malformed)) == "3 False False"


class TestReplayMatchesJobHooks:
    """`run_experiment` replays the control loops once per window from the
    kernel's timeline; `decision_model.run_model` computes every decision
    without dispatching a job, dispatches the job lists with the reference
    dispatcher and runs each loop job by job with the `control.py` formulas.
    Both must give identical records, trace.csv text and summaries, and the
    model's job lists must equal the run's job stream."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("mode", ["fuzzy", "ideal", "open"])
    def test_default_scenario(self, mode, seed, monkeypatch):
        assert_matches_model(monkeypatch, default_scenario().replace(mode=mode), seed)

    def test_flickering_means(self, monkeypatch):
        assert_matches_model(monkeypatch, flickering_scenario(), 1)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_non_default_plant_pid_and_path(self, noisy, monkeypatch):
        # a faster pole, a weaker input, no derivative term and a path that
        # ends at 0.13 s, between the invocations at 0.12 s and 0.14 s; the
        # loop still settles on the end point
        base = default_scenario()
        cfg = base.replace(
            plant=PlantParams(pole_rate=10.0, input_gain=400.0),
            pid=base.pid.replace(kd=0.0),
            ref_duration_s=0.13,
        )
        if not noisy:
            cfg = cfg.replace(exec_std=0.0, util_std=0.0)
        records = assert_matches_model(monkeypatch, cfg, 3)[0].records
        end = reference_at(ReferencePath(duration=0.13), 0.13)
        before = [r.ref for r in records if r.t_s < 0.13]
        assert len(before) == 6 and end not in before  # invocations at 0.02 s to 0.12 s
        assert [r.ref for r in records[6:]] == [end] * (len(records) - 6)
        assert records[-1].err < 1e-3

    def test_events_on_invocation_instants(self, monkeypatch):
        # noise-free open loop: tau2 is released on every invocation instant,
        # and a few control jobs complete exactly on one
        cfg = default_scenario().replace(mode="open", exec_std=0.0, util_std=0.0)
        windows = assert_matches_model(monkeypatch, cfg, 1)[1].windows
        invocations = {w.end_ns for w in windows}

        def on_invocation(timelines):
            return [t for w in windows for name in ("tau1", "tau2") for t in timelines(w)[name] if t in invocations]

        assert on_invocation(lambda w: w.releases)
        assert on_invocation(lambda w: w.finishes)


class TestNoiseDraws:
    def _record_calls(self, cfg, monkeypatch):
        """Run `cfg` at seed 1 and return each user task's `ExecDraws`, with
        its `times` calls as (job, the times taken from the call's iterator)
        and the length of each `sample` call, every task's execution times as
        the kernel filed them, and the result."""
        built = []

        class CountingDraws(ExecDraws):
            __slots__ = ("calls", "sizes")

            def __init__(self, blocks, rel_std, sample):
                def counted(mean_ns, normals, rel_std):
                    self.sizes.append(len(normals))
                    return sample(mean_ns, normals, rel_std)

                super().__init__(blocks, rel_std, counted)
                self.calls, self.sizes = [], []
                built.append(self)

            def times(self, mean_ns, job):
                times, taken = super().times(mean_ns, job), []
                self.calls.append((job, taken))

                def recorded():
                    for exec_ns in times:
                        taken.append(exec_ns)
                        yield exec_ns

                return recorded()

        probes = watch(monkeypatch)
        monkeypatch.setattr(experiment, "ExecDraws", CountingDraws)
        result = run_experiment(cfg, seed=1)
        # the job stream holds the jobs released after the last invocation too
        samples = {name: [exec_ns for _, exec_ns in jobs] for name, jobs in probes[0].job_stream().items()}
        draws = {t.name: draws for t, draws in zip(cfg.tasks, built)}
        assert len(draws) == len(built)  # one per user task, or none
        return draws, samples, result

    def test_one_draw_per_user_job(self, monkeypatch):
        draws, samples, result = self._record_calls(default_scenario().replace(horizon_s=0.5), monkeypatch)
        stats = result.summary.task_stats
        assert list(draws) == [name for name in stats if name != SCHEDULER_TASK]
        for name, task_draws in draws.items():
            released = stats[name].released
            # the calls start at job 0 and skip none: each is made at the job after the last one's times
            jobs = [job for job, _ in task_draws.calls]
            assert jobs == [sum(len(taken) for _, taken in task_draws.calls[:k]) for k in range(len(jobs))]
            # each job ran for the next time of the latest call's iterator
            handed = [t for _, taken in task_draws.calls for t in taken]
            assert handed == samples[name] and len(handed) == released
            assert len(jobs) < released / 10  # a call per span entered, not per job

    @pytest.mark.parametrize("scenario", [default_scenario, flickering_scenario], ids=["default", "flickering"])
    def test_each_iterator_converts_the_blocks_it_reaches(self, monkeypatch, scenario):
        draws, _, _ = self._record_calls(scenario(), monkeypatch)
        for task_draws in draws.values():
            # a call converts the rest of its job's block, then each later
            # block when its iterator reaches it, and no block beyond
            expected = []
            for job, taken in task_draws.calls:
                blocks_after = (job + len(taken) - 1) // NOISE_BLOCK - job // NOISE_BLOCK
                expected += [NOISE_BLOCK - job % NOISE_BLOCK] + [NOISE_BLOCK] * blocks_after
            assert task_draws.sizes == expected
        calls = [call for task_draws in draws.values() for call in task_draws.calls]
        assert any(job % NOISE_BLOCK for job, _ in calls)  # iterators start mid-block ...
        if scenario is default_scenario:  # ... and, over the default's long spans, read on through refills
            assert any((job + len(taken) - 1) // NOISE_BLOCK > job // NOISE_BLOCK for job, taken in calls)

    @pytest.mark.parametrize(
        "scenario, most_spans", [(default_scenario, 5), (flickering_scenario, None)], ids=["default", "flickering"]
    )
    def test_one_schedule_lookup_per_span_entered(self, monkeypatch, scenario, most_spans):
        looked_up = []  # (schedule, instant) of every lookup
        span_at = ExecSchedule.span_at

        def counting(schedule, t_ns):
            looked_up.append((schedule, t_ns))
            return span_at(schedule, t_ns)

        probes = watch(monkeypatch)
        monkeypatch.setattr(ExecSchedule, "span_at", counting)
        cfg = scenario()
        result = run_experiment(cfg, seed=1)
        assert cfg.exec_std > 0  # the noisy tasks' means come from the kernel too
        (kernel,) = probes
        assert "on_job_release" not in kernel.given
        assert [spec.name for spec in kernel.specs] == [t.name for t in cfg.tasks] + [SCHEDULER_TASK]
        stream = kernel.job_stream()
        for spec in kernel.specs:
            releases = [release_ns for release_ns, _ in stream[spec.name]]
            assert len(releases) == result.summary.task_stats[spec.name].released
            asked = [t_ns for schedule, t_ns in looked_up if schedule is spec.exec_schedule]
            assert asked == span_entries(spec.exec_schedule, releases)
            if most_spans is not None:
                assert len(asked) <= most_spans < len(releases)

    def test_noise_free_runs_draw_nothing(self, monkeypatch):
        cfg = default_scenario().replace(horizon_s=0.5, exec_std=0.0)
        samples = []
        monkeypatch.setattr(experiment, "sample_execution_time", lambda *args: samples.append(args))
        draws, _, _ = self._record_calls(cfg, monkeypatch)
        assert draws == {}
        assert samples == []  # no execution time is converted either
