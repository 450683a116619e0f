"""Command-line interface: subcommands, outputs, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffsched.cli import EXIT_CODES, INTERNAL_EXIT, main
from ffsched.errors import FfschedError, ScenarioSemanticError
from ffsched.experiment import TraceRecord, summarize
from ffsched.scenario import default_scenario, load_scenario

ROOT = Path(__file__).resolve().parents[1]

FAST = ["--horizon", "0.5"]

HEAVY_LOAD = """
[task a]
kind = control
priority = 2
period = 0.003
exec = 0.0006

[task b]
kind = control
priority = 3
period = 0.004
exec = 0.0004

[task hog]
kind = load
priority = 4
period = 0.005
exec = 0.0028
"""


class TestRun:
    def test_default_run_prints_summary(self, capsys):
        assert main(["run", *FAST]) == 0
        out = capsys.readouterr().out
        assert "mode = fuzzy" in out
        assert "seed = 1" in out
        assert "mean_tracking_error" in out

    def test_trace_flag_prints_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", *FAST, "--mode", "open", "--out", str(out_dir), "--trace"]) == 0
        out = capsys.readouterr().out
        trace, summary = (out_dir / "trace.csv").read_text(), (out_dir / "summary.txt").read_text()
        assert trace.startswith("t,u_meas,u_raw,eta,h_tau1,h_tau2,")
        # the printed trace is the written file, byte for byte
        assert out == f"wrote {out_dir / 'trace.csv'} and {out_dir / 'summary.txt'}\n" + trace + summary

    def test_out_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", *FAST, "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "summary.txt").exists()
        assert "wrote" in capsys.readouterr().out

    def test_seed_changes_output(self, tmp_path):
        a, b, c = (tmp_path / n for n in "abc")
        main(["run", *FAST, "--out", str(a), "--seed", "5"])
        main(["run", *FAST, "--out", str(b), "--seed", "5"])
        main(["run", *FAST, "--out", str(c), "--seed", "6"])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "trace.csv").read_bytes() != (c / "trace.csv").read_bytes()

    def test_scenario_file_and_mode_override(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("[run]\nmode = open\n")
        assert main(["run", *FAST, "--scenario", str(scenario), "--mode", "ideal"]) == 0
        assert "mode = ideal" in capsys.readouterr().out

    def test_scenario_file_with_byte_order_mark(self, tmp_path, capsys):
        # a UTF-8 file saved with a leading byte-order mark reads as the plain file
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        text = "[run]\nmode = open\n\n[noise]\nexec_std = 0.05\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_scenario(str(marked)) == load_scenario(str(plain))
        outputs = []
        for scenario in (plain, marked):
            out_dir = tmp_path / scenario.stem
            assert main(["run", *FAST, "--scenario", str(scenario), "--out", str(out_dir)]) == 0
            printed = capsys.readouterr().out.replace(str(out_dir), "OUT")
            outputs.append((printed, (out_dir / "trace.csv").read_bytes(), (out_dir / "summary.txt").read_bytes()))
        assert outputs[0] == outputs[1]
        assert "mode = open" in outputs[0][0]


class TestExitCodes:
    def test_mapping_is_stable(self):
        assert EXIT_CODES == {
            "scenario-syntax": 3,
            "scenario-semantic": 4,
            "infeasible-load": 5,
            "io": 6,
        }
        assert INTERNAL_EXIT == 7

    def test_every_error_category_has_an_exit_code(self):
        # a category without a code would exit 7, as a defect does
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert {sub.category for sub in subclasses(FfschedError)} == EXIT_CODES.keys()

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as e:
            main(["run", "--mode", "bogus"])
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_missing_scenario_is_io(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "absent.cfg")])
        assert rc == 6
        assert capsys.readouterr().err.startswith("error[io]:")

    def test_non_utf8_scenario_is_io(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe[run]\n")
        assert main(["run", "--scenario", str(bad)]) == 6
        assert capsys.readouterr().err.startswith(f"error[io]: cannot read scenario {bad}")

    def test_unexpected_exception_is_7(self, monkeypatch, capsys):
        def broken(cfg, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr("ffsched.cli.run_experiment", broken)
        assert main(["run", *FAST]) == INTERNAL_EXIT
        assert capsys.readouterr().err == "error[internal]: RuntimeError: boom\n"

    def test_syntax_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run\n")
        assert main(["run", "--scenario", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error[scenario-syntax]:")

    def test_semantic_error_is_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scheduler]\ntarget = 2\n")
        assert main(["run", "--scenario", str(bad)]) == 4
        assert capsys.readouterr().err.startswith("error[scenario-semantic]:")

    def test_override_breaking_config_is_4(self, capsys):
        assert main(["run", "--target", "1.5"]) == 4
        assert capsys.readouterr().err.startswith("error[scenario-semantic]:")

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--seeds", "0"], ["sweep", "--noise", "x"], ["run", "--seed", "-1"], ["sweep", "--noise", "1e308"]],
    )
    def test_bad_seed_or_grid_is_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [["--horizon", "nan"], ["--horizon", "inf"], ["--fs-period", "nan"]])
    def test_non_finite_override_is_4(self, override, capsys):
        assert main(["run", *override]) == 4
        assert capsys.readouterr().err.startswith("error[scenario-semantic]:")

    @pytest.mark.parametrize(
        "text",
        [
            "[scheduler]\nh_min = 1e-10\n",
            HEAVY_LOAD.replace("exec = 0.0028", "exec = 0-0.0000000001: 0.0028, 0.0000000001-4: 0.0028"),
        ],
        ids=["h_min", "exec-segment"],
    )
    def test_sub_nanosecond_time_is_4(self, text, tmp_path, capsys):
        scenario = tmp_path / "tiny.cfg"
        scenario.write_text(text)  # a time that rounds to 0 ns
        assert main(["run", *FAST, "--scenario", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[scenario-semantic]:") and "1 ns" in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["--horizon", "1e308"], ""),
            ([], "[scheduler]\nh_max = 1e308\n"),
            ([], "[noise]\nexec_std = 1e303\n"),
            ([], "[noise]\nexec_std = 1e302\n"),
            ([], HEAVY_LOAD.replace("exec = 0.0028", "exec = 0-10000000000: 0.0028")),
        ],
        ids=["horizon", "h_max", "exec_std-draw", "exec_std-sum", "exec-segment-end"],
    )
    def test_time_past_the_kernel_clock_is_4(self, argv, text, tmp_path, capsys):
        scenario = tmp_path / "huge.cfg"
        scenario.write_text(text)  # past ExecSchedule.FOREVER ns, where converting to ns overflows
        assert main(["run", *FAST, *argv, "--scenario", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[scenario-semantic]:") and "9223372036854775807 ns" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_horizon_rounding_onto_the_scheduler_period_is_4(self, command, tmp_path, capsys):
        # 0.0200000001 s > 0.02 s, but both are 20000000 ns to the kernel
        argv = [command, "--horizon", "0.0200000001", "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--seeds", "1"]
        assert main(argv) == 4
        assert capsys.readouterr().err == "error[scenario-semantic]: horizon must exceed one scheduler period\n"
        assert not (tmp_path / "out").exists()

    def test_scheduler_exec_rounding_onto_its_period_is_4(self, tmp_path, capsys):
        scenario = tmp_path / "sched.cfg"
        scenario.write_text("[scheduler]\nexec = 0.0199999999996\n")  # 20000000 ns, the 0.02 s period
        assert main(["run", *FAST, "--scenario", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert err == "error[scenario-semantic]: scheduler execution time must be smaller than its period\n"

    def test_task_exec_rounding_onto_its_period_is_4(self, tmp_path, capsys):
        scenario = tmp_path / "task.cfg"
        # 0.0029999999996 s is below the 0.003 s period, but both are 3000000 ns
        scenario.write_text(HEAVY_LOAD.replace("exec = 0.0006", "exec = 0.0029999999996"))
        assert main(["run", *FAST, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            "error[scenario-semantic]: task a: mean execution time 0.0029999999996 (3000000 ns)"
            " not below period 0.003 (3000000 ns)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[scheduler]\nh_min = 0.0030000000004\n",  # 3000000 ns, tau1's period
            "[scheduler]\nh_max = 0.0039999999996\n",  # 4000000 ns, tau2's period
            "[scheduler]\nh_min = 0.0070000000004\nh_max = 0.007\n"  # both 7000000 ns
            + HEAVY_LOAD.replace("period = 0.003", "period = 0.007").replace("period = 0.004", "period = 0.007"),
        ],
        ids=["h_min-onto-tau1", "h_max-onto-tau2", "h_min-onto-h_max"],
    )
    def test_period_bounds_equal_in_whole_ns_run(self, text, tmp_path, capsys):
        # out of order as floats, but the kernel gets equal periods and bounds
        scenario = tmp_path / "bounds.cfg"
        scenario.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["run", *FAST, "--scenario", str(scenario), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        assert (out_dir / "trace.csv").read_text().count("\n") > 1
        assert (out_dir / "summary.txt").exists()

    def test_util_std_whose_draws_overflow_is_4(self, tmp_path, capsys):
        scenario = tmp_path / "noise.cfg"
        scenario.write_text("[noise]\nutil_std = 1e308\n")  # 40 * util_std is inf, so u_raw could be too
        assert main(["run", *FAST, "--scenario", str(scenario)]) == 4
        assert capsys.readouterr().err.startswith("error[scenario-semantic]: util_std 1e+308")

    def test_large_finite_util_std_runs(self, tmp_path, capsys):
        scenario = tmp_path / "noise.cfg"
        scenario.write_text("[noise]\nutil_std = 1e300\n")
        assert main(["run", *FAST, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[2])) for row in rows)  # u_raw

    @pytest.mark.parametrize("kd, code", [("", 4), ("kd = 0\n", 0)], ids=["default-kd", "kd-0"])
    def test_underflowing_derivative_filter(self, tmp_path, capsys, kd, code):
        # the product underflows to 0.0; only a filter that runs (kd > 0) divides by it
        scenario = tmp_path / "pid.cfg"
        scenario.write_text("[pid]\nkp = 1e-200\nderiv_filter = 1e-200\n" + kd)
        assert main(["run", *FAST, "--scenario", str(scenario)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error[scenario-semantic]: pid: kp * deriv_filter") if code else err == ""

    def test_loop_past_the_float_range_is_4(self, tmp_path, capsys):
        scenario = tmp_path / "gain.cfg"
        scenario.write_text("[noise]\nexec_std = 0\nutil_std = 0\n[plant]\ninput_gain = 1e5\n")
        assert main(["run", "--scenario", str(scenario), "--mode", "open", "--horizon", "4"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[scenario-semantic]:") and "not finite at t = " in err

    def test_overflowing_mean_tracking_error_is_4(self):
        # finite errors whose sum overflows, as on a 400 s open-loop run
        records = [
            TraceRecord(0.02 * i, 0.5, 0.5, 1.0, (0.004, 0.005), (0.0, 0.0), (0.0, 0.0), 1e308)
            for i in range(1, 4)
        ]
        with pytest.raises(ScenarioSemanticError, match="overflows") as e:
            summarize(records, default_scenario(), 1, task_stats={})
        assert EXIT_CODES[e.value.category] == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--horizon", "0.1", "--out", "{file}"],
            ["sweep", "--horizon", "0.1", "--seeds", "1", "--noise", "0", "--out", "{file}"],
            ["table", "--out", "{dir}"],
        ],
    )
    def test_unwritable_output_is_io(self, argv, tmp_path, capsys):
        existing = tmp_path / "taken"
        existing.write_text("not a directory\n")
        argv = [a.format(file=existing, dir=tmp_path) for a in argv]
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert err.startswith("error[io]:") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0, reason="root may write into a read-only directory"
    )
    def test_read_only_directory_is_io(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        try:
            assert main(["run", "--horizon", "0.1", "--out", str(locked / "results")]) == 6
        finally:
            locked.chmod(0o700)
        assert capsys.readouterr().err.startswith("error[io]:")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_0(self, unbuffered):
        # the reader closes the pipe before the run writes its trace, as
        # `ffsched run --trace | head -1` may; every repeat must exit 0
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
        for _ in range(5):
            read_end, write_end = os.pipe()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ffsched.cli", "run", "--horizon", "4", "--trace"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
            os.close(read_end)
            os.close(write_end)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert b"error[" not in err and b"Traceback" not in err, err

    def test_closed_stdout_in_process_exits_0(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):  # like the stand-ins of capsys and redirect_stdout, it has no descriptor
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["run", *FAST, "--trace"]) == 0
        assert capsys.readouterr().err == ""

    def test_infeasible_load_is_5(self, tmp_path, capsys):
        scenario = tmp_path / "heavy.cfg"
        scenario.write_text(HEAVY_LOAD)
        rc = main(["run", *FAST, "--scenario", str(scenario), "--mode", "ideal", "--target", "0.5"])
        assert rc == 5
        assert capsys.readouterr().err.startswith("error[infeasible-load]:")


class TestSweep:
    def test_grid_shape(self, capsys):
        assert main(["sweep", *FAST, "--noise", "0,0.1", "--seeds", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("mode,noise_std,seed,mean_tracking_error")
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("fuzzy,0.0,1,")
        assert lines[-1].startswith("fuzzy,0.1,2,")

    def test_out_writes_csv(self, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", *FAST, "--noise", "0", "--seeds", "1", "--out", str(out_dir)]) == 0
        text = (out_dir / "sweep_summary.csv").read_text()
        assert len(text.strip().splitlines()) == 2

    def test_bad_noise_grid_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--noise", "0,abc"])
        with pytest.raises(SystemExit):
            main(["sweep", "--noise", "-0.1"])
        with pytest.raises(SystemExit):
            main(["sweep", "--seeds", "0"])


class TestTable:
    def test_prints_golden_by_default(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# provenance: golden")
        assert len(out.strip().splitlines()) == 14

    def test_compile_prints_compiled(self, capsys):
        assert main(["table", "--compile"]) == 0
        assert capsys.readouterr().out.startswith("# provenance: compiled")

    def test_diff_reports_agreement(self, capsys):
        assert main(["table", "--diff"]) == 0
        out = capsys.readouterr().out
        assert "cells equal: 126/169 (74.6%)" in out
        assert "cells within +/-1: 169/169 (100.0%)" in out

    @pytest.mark.parametrize("argv", [["--compile", "--diff"], ["--diff", "--compile"]])
    def test_compile_with_diff_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(["table", *argv])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.txt"
        assert main(["table", "--out", str(target)]) == 0
        assert target.read_text().startswith("# provenance: golden")
        assert "wrote" in capsys.readouterr().out


class TestBenchmarkContract:
    """benchmark/tracing.py wraps names it looks up in ffsched.experiment and
    ffsched.cli; a refactor that moves them must not silently break it."""

    TRACED_RUN = """
import contextlib, io, json
from tracing import Tracer, install
import ffsched.cli
tracer = Tracer()
install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = ffsched.cli.main(["run", "--horizon", "0.2"])
print(json.dumps({"rc": rc, "out": out.getvalue(), "calls": tracer.report()["calls"]}))
"""

    def test_traced_run_matches_untraced_run(self, capsys):
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmark")])
        proc = subprocess.run(
            [sys.executable, "-c", self.TRACED_RUN],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(proc.stdout)
        assert main(["run", "--horizon", "0.2"]) == 0
        assert traced["rc"] == 0
        assert traced["out"] == capsys.readouterr().out
        calls = traced["calls"]
        # a callee bound at import time, not once per run, would bypass its span
        for span in (
            "schedulers.apply_periods",
            "fuzzy.load_golden_table",
            "experiment.hooks",
            "rtsim.sample_execution_time",
            "rtsim.measure_utilization",
            "control.reference_at",
            "control.pid_compute",
        ):
            assert calls[span] > 0, span
        assert calls["rtsim.Kernel.run"] == 1
