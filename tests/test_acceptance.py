"""Acceptance suite: one timed pass/fail line per shipped guarantee.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print; without -s they still decide the pass/fail of each test.
"""

import time
from contextlib import contextmanager
from statistics import fmean

import pytest

from ffsched.experiment import emit_traces, run_experiment
from ffsched.fuzzy import compile_lookup_table, diff_report, load_golden_table
from ffsched.scenario import default_scenario, parse_scenario
from invariants import (
    check_control_invariants,
    check_fuzzy_invariants,
    check_rtsim_invariants,
)
from oracle_tables import GOLDEN_CELLS, share_within

H_MIN, H_MAX = 0.001, 0.007
TARGET = 0.85
SEED = 1


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL after {time.perf_counter() - t0:.2f} s", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"criterion {number} ({label}): FAIL, runtime {elapsed:.2f} s over budget {budget_s:g} s", flush=True)
        raise AssertionError(f"criterion {number} exceeded its {budget_s:g} s budget: {elapsed:.2f} s")
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f} s (budget {budget_s:g} s)", flush=True)


def _noise_free(mode: str):
    return default_scenario().replace(mode=mode, exec_std=0.0, util_std=0.0)


def _exec_mean_at(task, t_s: float) -> float:
    for start, end, mean in task.exec_segments:
        if start <= t_s < end:
            return mean
    return task.exec_segments[-1][2]


def test_criterion_1_shipped_table_fidelity():
    with criterion(1, "shipped table fidelity", budget_s=1.0):
        table = load_golden_table()
        assert table.cells == GOLDEN_CELLS  # all 169 cells, exact


def test_criterion_2_compiled_table_agreement(tmp_path):
    with criterion(2, "compiled table agreement", budget_s=1.0):
        golden = load_golden_table()
        compiled = compile_lookup_table()
        for table in (golden, compiled):
            for row in table.cells:
                assert all(a >= b for a, b in zip(row, row[1:]))
            for col in zip(*table.cells):
                assert all(a >= b for a, b in zip(col, col[1:]))
        assert share_within(compiled, golden, tolerance=1) >= 0.85
        report_path = tmp_path / "table_diff.txt"
        report_path.write_text(diff_report(compiled, golden))
        assert report_path.stat().st_size > 0
        assert "cells within +/-1" in report_path.read_text()


def test_criterion_3_open_loop_overload():
    with criterion(3, "open-loop overload", budget_s=5.0):
        result = run_experiment(_noise_free("open"), SEED)
        demand = [r.u_raw for r in result.records if 2.0 < r.t_s <= 3.0]
        assert len(demand) == 50
        assert fmean(demand) == pytest.approx(1.100, abs=0.001)
        missed = {name: s.missed for name, s in result.summary.task_stats.items()}
        assert missed["tau2"] > 0
        assert all(missed["tau2"] > count for name, count in missed.items() if name != "tau2")


CLAMP_SCENARIO = """
[run]
mode = ideal
[noise]
exec_std = 0
util_std = 0
[task x]
kind = control
priority = 3
period = 0.003
exec = 0.0012
[task y]
kind = control
priority = 4
period = 0.004
exec = 0.0012
[task hog]
kind = load
priority = 2
period = 0.005
exec = 0.0024
"""


def test_criterion_4_ideal_rescaler_exactness():
    with criterion(4, "ideal rescaler exactness", budget_s=5.0):
        cfg = _noise_free("ideal")
        result = run_experiment(cfg, SEED)
        load_tasks = [t for t in cfg.tasks if t.name == "tau3"]
        controls = cfg.control_tasks()
        prev = (0.003, 0.004)
        for record in result.records:  # every invocation after the warm-up
            u_others = sum(_exec_mean_at(t, record.t_s) / t.period_s for t in load_tasks)
            predicted = u_others + sum(
                _exec_mean_at(t, record.t_s) / (record.eta * h)
                for t, h in zip(controls, prev)
            )
            assert abs(predicted - TARGET) <= 1e-9, (record.t_s, predicted)
            prev = record.periods_s

        # heavy non-rescalable load pins the slower loop at h_max; the
        # rescaler compensates with the other and still respects the target
        clamped = run_experiment(parse_scenario(CLAMP_SCENARIO), SEED)
        assert all(r.periods_s[1] == H_MAX for r in clamped.records)
        assert any(r.periods_s[0] < H_MAX for r in clamped.records)
        tail = [r.u_meas for r in clamped.records if r.t_s > 3.0]
        assert fmean(tail) <= TARGET + 1e-6
        assert clamped.records[-1].u_meas <= TARGET + 1e-6


def test_criterion_5_fuzzy_closed_loop():
    with criterion(5, "fuzzy closed loop", budget_s=5.0):
        cfg = default_scenario()  # measurement noise 0.1, default seed
        fuzzy = run_experiment(cfg, SEED)
        ideal = run_experiment(cfg.replace(mode="ideal"), SEED)
        open_loop = run_experiment(cfg.replace(mode="open"), SEED)

        tail = [r.u_meas for r in fuzzy.records if r.t_s > cfg.horizon_s - 1.0]
        assert 0.78 <= fmean(tail) <= 0.92
        assert all(0.5 <= r.eta <= 1.5 for r in fuzzy.records)
        assert all(H_MIN <= h <= H_MAX for r in fuzzy.records for h in r.periods_s)

        err_fuzzy = fuzzy.summary.mean_tracking_error
        err_ideal = ideal.summary.mean_tracking_error
        err_open = open_loop.summary.mean_tracking_error
        assert err_fuzzy <= 2.0 * err_ideal
        assert err_open >= 5.0 * err_ideal


def test_criterion_6_trace_determinism(tmp_path):
    with criterion(6, "trace determinism", budget_s=10.0):
        cfg = default_scenario()
        first = emit_traces(str(tmp_path / "a"), run_experiment(cfg, SEED))
        second = emit_traces(str(tmp_path / "b"), run_experiment(cfg, SEED))
        for path_a, path_b in zip(first, second):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()


def test_criterion_7_property_invariants():
    with criterion(7, "property invariants", budget_s=30.0):
        assert check_fuzzy_invariants(1000) == 1000
        assert check_rtsim_invariants(1000) == 1000
        assert check_control_invariants(1000) == 1000


def test_criterion_8_noise_robustness():
    with criterion(8, "noise robustness", budget_s=120.0):
        base = default_scenario()
        for noise in (0.0, 0.02, 0.05, 0.1):
            cfg = base.replace(util_std=noise)
            for seed in range(1, 11):
                result = run_experiment(cfg, seed)
                label = f"noise={noise} seed={seed}"
                assert result.summary.max_tracking_error < 0.1, label
                tail = [r.err for r in result.records if r.t_s > base.horizon_s - 1.0]
                growing = all(b > a for a, b in zip(tail, tail[1:]))
                assert not growing, f"{label}: tracking error grows monotonically"
                assert all(H_MIN <= h <= H_MAX for r in result.records for h in r.periods_s), label
