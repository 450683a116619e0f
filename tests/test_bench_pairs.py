"""tools/bench_pairs.py: the pair summary, on synthetic records, and one
start-up pair of the working tree; the benchmark itself never runs here."""

import importlib.util
import os
import subprocess
import sys

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(failed=0, units=None, **values):
    units = units or {}
    metrics = {k: {"value": v, "unit": units.get(k, "u")} for k, v in values.items()}
    return {"result": {"failed": failed, "metrics": metrics}}


def _pairs(parent, change, name="wall_s"):
    return [
        {"order": ["parent", "change"], "parent": _record(**{name: a}), "change": _record(**{name: b})}
        for a, b in zip(parent, change)
    ]


def test_lower_is_better_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 1.0]
    wall = bench_pairs.summarize(_pairs(parent, change), {"wall_s": "lower"})["wall_s"]
    assert wall == {
        "parent_median": 3.0,
        "parent_quartiles": [2.0, 4.0],  # inclusive: the quartiles of 1..5 are 2 and 4
        "change_median": 2.0,
        "change_quartiles": [1.0, 2.5],
        "change_better_in": 3,
        "ties": 1,
        "pairs": 5,
    }


def test_higher_is_better_counts_the_other_way():
    summary = bench_pairs.summarize(_pairs([10, 20, 30, 40], [11, 19, 31, 40], "rate"), {"rate": "higher"})
    rate = summary["rate"]
    assert (rate["change_better_in"], rate["ties"], rate["pairs"]) == (2, 1, 4)
    # inclusive quartiles interpolate between samples
    assert rate["parent_quartiles"] == [17.5, 32.5]
    assert rate["parent_median"] == 25


def test_failed_calls_are_summed_per_side_and_missing_metrics_skip_the_pair():
    pairs = _pairs([1.0, 2.0], [1.5, 1.0])
    pairs.append({"order": ["change", "parent"], "parent": _record(failed=2), "change": _record(failed=1, wall_s=0.1)})
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "absent": "lower"})
    assert summary["wall_s"]["pairs"] == 2
    assert summary["wall_s"]["change_better_in"] == 1
    assert "absent" not in summary
    assert summary["failed"] == {"parent": 2, "change": 1}


def test_single_pair_has_degenerate_quartiles():
    wall = bench_pairs.summarize(_pairs([2.0], [1.0]), {"wall_s": "lower"})["wall_s"]
    assert wall["parent_quartiles"] == [2.0, 2.0]
    assert wall["change_better_in"] == 1


def test_report_has_one_line_per_workload_and_metric_then_failed_calls():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.5, 1.0])
    rates = _pairs([10, 20, 30, 40], [11, 19, 31, 40], "rate")
    summary = {
        "a": {"seed": 1, "metrics": bench_pairs.summarize(pairs, {"wall_s": "lower"})},
        "b": {"seed": 1, "metrics": bench_pairs.summarize(rates, {"rate": "higher", "absent": "lower"})},
    }
    assert bench_pairs.report(summary) == [
        "a wall_s: 3 -> 2 (-33.3%), change better in 3/5 (1 ties), median gap 1 vs parent quartile spread 2",
        "a failed calls: parent 0, change 0",
        "b rate: 25 -> 25 (+0.0%), change better in 2/4 (1 ties), median gap 0 vs parent quartile spread 15",
        "b failed calls: parent 0, change 0",
    ]
    assert "failed" in summary["a"]["metrics"]  # the summary itself is left as it was


def test_report_of_a_zero_parent_median_has_no_relative_change():
    summary = {"a": {"seed": 1, "metrics": bench_pairs.summarize(_pairs([0.0], [0.0], "err"), {"err": "lower"})}}
    assert bench_pairs.report(summary)[0] == (
        "a err: 0 -> 0 (n/a), change better in 0/1 (1 ties), median gap 0 vs parent quartile spread 0"
    )


def test_traced_report_scales_each_layer_by_its_own_runs_reference_time():
    values = {  # name: (parent, change)
        "host.ref_ms": (20.0, 25.0),
        "rtsim.Kernel.run.self_ms": (100.0, 110.0),
        "control.plant_step.self_ms": (0.0, 0.0),
        "rtsim.self_ms": (150.0, 150.0),
        "wall_s": (1.0, 1.0),
    }
    parent = _record(**{name: a for name, (a, _) in values.items()})
    change = _record(**{name: b for name, (_, b) in values.items()})
    traced = {"horizon40": [{"order": ["parent", "change"], "parent": parent, "change": change}]}
    assert bench_pairs.traced_report(traced) == [
        # 110 / 25 against 100 / 20: the host ran 25% slower, the layer 10%, so it gained 12%
        "horizon40 traced rtsim.Kernel.run.self_ms: 100 -> 110 ms raw, -12.0% scaled by host.ref_ms",
        "horizon40 traced control.plant_step.self_ms: 0 -> 0 ms raw, n/a scaled by host.ref_ms",
        "horizon40 traced rtsim.self_ms: 150 -> 150 ms raw, -20.0% scaled by host.ref_ms",
    ]


def test_traced_report_skips_a_layer_the_change_lacks():
    parent = _record(**{"host.ref_ms": 20.0, "gone.self_ms": 5.0})
    change = _record(**{"host.ref_ms": 20.0})
    assert bench_pairs.traced_report({"a": [{"order": ["parent", "change"], "parent": parent, "change": change}]}) == []


def test_traced_report_prints_the_counts_that_differ():
    values = {  # name: (parent, change, unit)
        "host.ref_ms": (20.0, 20.0, "ms"),
        "experiment.hooks.calls": (27902, 2007, "count"),
        "rtsim.Kernel.run.calls": (1, 1, "count"),
        "rtsim.Kernel.run.self_ms": (100.0, 90.0, "ms"),
        "rtsim.jobs_released": (27900, 27901, "count"),
        "rtsim.noise_draws": (2106, 2106, "count"),
        "rtsim.ns_per_job": (3500.0, 3400.0, "ns"),
    }
    units = {name: unit for name, (_, _, unit) in values.items()}
    parent = _record(units=units, **{name: a for name, (a, _, _) in values.items()})
    change = _record(units=units, **{name: b for name, (_, b, _) in values.items()})
    traced = {"horizon40": [{"order": ["parent", "change"], "parent": parent, "change": change}]}
    assert bench_pairs.traced_report(traced) == [
        "horizon40 traced experiment.hooks.calls: 27902 -> 2007",
        "horizon40 traced rtsim.Kernel.run.self_ms: 100 -> 90 ms raw, -10.0% scaled by host.ref_ms",
        "horizon40 traced rtsim.jobs_released: 27900 -> 27901",
    ]


def test_startup_times_a_cold_import_pair_of_the_working_tree(tmp_path):
    commands = {"import-cold": bench_pairs.STARTUP["import-cold"]}
    trees = {"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT}
    section = bench_pairs.startup(trees, str(tmp_path), pairs=1, commands=commands)
    entry = section["import-cold"]
    assert (entry["args"], entry["warm"]) == (["-c", "import ffsched.cli"], False)
    (pair,) = entry["pairs"]
    assert pair["order"] == ["parent", "change"]
    summary = entry["summary"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    for name in ("wall_ms", "peak_rss_mb"):
        assert summary[name]["pairs"] == 1
        assert 0 < summary[name]["parent_median"] and 0 < summary[name]["change_median"], name


def test_setup_command_imports_numpy_before_ffsched_as_the_benchmark_child_does():
    args, warm = bench_pairs.STARTUP["setup-numpy"]
    code = args[args.index("-c") + 1]
    assert not warm
    assert code.index("import numpy") < code.index("import ffsched.cli") < code.index("default_scenario()")
    env = {**os.environ, "PYTHONPATH": os.path.join(bench_pairs.ROOT, "src")}
    subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, timeout=60)
