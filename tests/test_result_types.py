"""The run's result types as callers read them (`cli`, `benchmark/child.py`
and `benchmark/tracing.py` read these attributes), and the class shapes that
keep ffsched's import cheap: results are tuples, and no dataclass makes
`dataclasses` write a docstring or build its class twice."""

import ast
import math
import os
from dataclasses import replace

import pytest

import ffsched.rtsim as rtsim
from ffsched.experiment import ExperimentResult, RunSummary, TraceRecord, run_experiment
from ffsched.rtsim import (
    NS,
    ExecSchedule,
    JobRecord,
    Kernel,
    TaskKind,
    TaskSpec,
    TaskStats,
    UtilizationSample,
    WindowData,
)
from ffsched.scenario import default_scenario

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ffsched")
MS = NS // 1000


def _task(name, priority, period_ms, exec_ms):
    return TaskSpec(name, TaskKind.LOAD, priority, period_ms * MS, ExecSchedule.constant(exec_ms * MS))


def _two_task_kernel():
    # A: priority 1, period 10 ms, exec 3 ms; B: priority 2, period 15 ms, exec 6 ms (test_rtsim's hand timeline)
    kernel = Kernel([_task("A", 1, 10, 3), _task("B", 2, 15, 6)])
    kernel.run(30 * MS)
    return kernel


@pytest.fixture(scope="module")
def result():
    return run_experiment(replace(default_scenario(), horizon_s=1.0), seed=1)


def _assert_read_only_record(value, names, values):
    """`names` in order, each reading back its value; `repr` shows them so; no attribute can be set."""
    assert type(value).__match_args__ == names
    assert {name: getattr(value, name) for name in names} == values
    fields = ", ".join(f"{name}={values[name]!r}" for name in names)
    assert repr(value) == f"{type(value).__name__}({fields})"
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_task_stats_reads_back_the_kernel_counts():
    stats = _two_task_kernel().stats("B")
    assert type(stats) is TaskStats
    names = ("released", "completed", "missed", "preemptions")
    _assert_read_only_record(stats, names, dict(released=3, completed=2, missed=0, preemptions=1))
    assert repr(stats) == "TaskStats(released=3, completed=2, missed=0, preemptions=1)"


def test_run_summary_reads_back_the_run(result):
    summary, records = result.summary, result.records
    assert type(summary) is RunSummary
    errs = [r.err for r in records]
    finals = [r.u_meas for r in records if r.t_s > 0.0]
    values = dict(
        mode="fuzzy",
        seed=1,
        horizon_s=1.0,
        invocations=len(records),
        mean_tracking_error=math.fsum(errs) / len(errs),
        max_tracking_error=max(errs),
        mean_utilization=math.fsum(r.u_meas for r in records) / len(records),
        mean_utilization_final=math.fsum(finals) / len(finals),
        final_periods_s=records[-1].periods_s,
        task_stats=summary.task_stats,
    )
    _assert_read_only_record(summary, tuple(values), values)
    assert list(summary.task_stats) == [t.name for t in default_scenario().tasks] + ["sched"]
    assert all(type(stats) is TaskStats for stats in summary.task_stats.values())


def test_experiment_result_reads_back_its_parts(result):
    assert type(result) is ExperimentResult
    values = dict(control_names=("tau1", "tau2"), records=result.records, summary=result.summary)
    _assert_read_only_record(result, tuple(values), values)
    assert type(result.records) is tuple and all(type(r) is TraceRecord for r in result.records)


def test_records_and_results_are_tuples():
    for cls in (TraceRecord, JobRecord, WindowData, UtilizationSample, TaskStats, RunSummary, ExperimentResult):
        assert issubclass(cls, tuple), cls.__name__


def test_task_runtime_has_no_instance_dict():
    for rt in _two_task_kernel()._tasks.values():
        assert type(rt) is rtsim._TaskRuntime
        assert not hasattr(rt, "__dict__")
        with pytest.raises(AttributeError):
            rt.extra = 0


def test_every_dataclass_has_a_docstring_and_no_slots():
    # a dataclass without a docstring has one written from `inspect.signature`
    # at import, and `slots=True` builds its class a second time
    seen = []
    for module in sorted(os.listdir(SRC)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d for d in node.decorator_list if "dataclass" in ast.unparse(d)]
            if not decorators:
                continue
            seen.append(node.name)
            assert ast.get_docstring(node), f"{module}: {node.name} has no docstring"
            assert "slots" not in ast.unparse(decorators[0]), f"{module}: {node.name} sets slots"
    assert "ScenarioConfig" in seen and "TaskSpec" in seen  # the walk found the package's dataclasses
