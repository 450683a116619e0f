"""The run's result types as callers read them (`cli`, `benchmark/child.py`
and `benchmark/tracing.py` read these attributes), and the class shapes that
keep ffsched's import cheap: results are tuples, inputs are `Frozen` slotted
values, and the one dataclass left never makes `dataclasses` write a
docstring or build its class twice."""

import ast
import copy
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from typing import NamedTuple

import pytest

import ffsched.rtsim as rtsim
from ffsched.control import PidGains, PlantParams, ReferencePath
from ffsched.experiment import ExperimentResult, RunSummary, TraceRecord, run_experiment
from ffsched.frozen import Frozen
from ffsched.fuzzy import (
    DEFAULT_RULES,
    ERROR_UNIVERSE,
    INPUT_FAMILY,
    LookupTable,
    MembershipFamily,
    QuantizedUniverse,
    RuleBase,
    load_golden_table,
)
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
from ffsched.scenario import ScenarioConfig, TaskConfig, default_scenario

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
    return run_experiment(default_scenario().replace(horizon_s=1.0), seed=1)


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
    assert seen == ["FuzzyFeedbackScheduler"]  # `benchmark/tracing.py` subclasses it through `@dataclass`


# The inputs are `Frozen` values. Per class: the values of one instance,
# keyed by field in field order, and the defaults of `__init__`.
_TABLE = load_golden_table()
INPUTS = {
    PlantParams: (dict(pole_rate=3.0, input_gain=100.0), dict(pole_rate=2.0, input_gain=2000.0)),
    PidGains: (
        dict(kp=1.0, ki=2.0, kd=0.5, deriv_filter=10.0),
        dict(kp=1.3, ki=3.0, kd=0.035, deriv_filter=25.0),
    ),
    ReferencePath: (dict(duration=2.0), dict(duration=4.0)),
    ExecSchedule: (dict(segments=((0, 5, 2), (5, 9, 3))), {}),
    TaskSpec: (
        dict(name="a", kind=TaskKind.LOAD, priority=2, period_ns=10, exec_schedule=ExecSchedule.constant(3)),
        {},
    ),
    TaskConfig: (
        dict(name="a", kind=TaskKind.CONTROL, priority=3, period_s=0.003, exec_segments=((0.0, 1.0, 0.0006),)),
        {},
    ),
    ScenarioConfig: (
        dict(
            mode="open",
            horizon_s=1.0,
            target=0.8,
            fs_period_s=0.02,
            fs_exec_s=0.0005,
            h_min_s=0.001,
            h_max_s=0.007,
            exec_std=0.0,
            util_std=0.01,
            plant=PlantParams(),
            pid=PidGains(),
            ref_duration_s=4.0,
            tasks=default_scenario().tasks,
        ),
        {},
    ),
    QuantizedUniverse: (dict(q_max=6, span=(-0.3, 0.3)), {}),
    MembershipFamily: (dict(universe=ERROR_UNIVERSE, labels=("N", "Z", "P"), peaks=(-6, 0, 6)), {}),
    RuleBase: (
        dict(
            error_labels=("N", "P"),
            delta_labels=("N", "P"),
            output_labels=("N", "Z", "P"),
            matrix=(("P", "Z"), ("Z", "N")),
        ),
        {},
    ),
    LookupTable: (dict(cells=_TABLE.cells, provenance="golden"), {}),
}
# Each guard: the class, the changes to its `INPUTS` values that trip it, and its message.
GUARDS = [
    (PlantParams, dict(pole_rate=0.0), "pole_rate must be positive"),
    (PidGains, dict(deriv_filter=0.0), "deriv_filter must be positive"),
    (ReferencePath, dict(duration=0.0), "duration must be positive"),
    (ExecSchedule, dict(segments=()), "execution schedule needs at least one segment"),
    (ExecSchedule, dict(segments=((0, 5, 2.0),)), "execution segments hold int nanoseconds, got (0, 5, 2.0)"),
    (ExecSchedule, dict(segments=((0, 5, 2), (6, 9, 3))), "execution segments must be contiguous from 0, got start 6"),
    (ExecSchedule, dict(segments=((0, 0, 2),)), "empty execution segment [0, 0)"),
    (ExecSchedule, dict(segments=((0, 5, 0),)), "mean execution time must be positive"),
    (TaskSpec, dict(name=""), "task name must be non-empty"),
    (TaskSpec, dict(period_ns=10.0), "task a: period must be a positive int of nanoseconds"),
    (TaskSpec, dict(period_ns=0), "task a: period must be a positive int of nanoseconds"),
    (TaskSpec, dict(priority=0), "task a: priority must be a positive integer"),
    (QuantizedUniverse, dict(q_max=0), "q_max must be positive"),
    (QuantizedUniverse, dict(span=(0.3, 0.3)), "span must be a nonempty interval"),
    (MembershipFamily, dict(peaks=(-6, 0)), "one peak per label required"),
    (MembershipFamily, dict(labels=("N",), peaks=(0,)), "a family needs at least two labels"),
    (MembershipFamily, dict(peaks=(-6, 0, 0)), "peaks must be strictly ascending"),
    (MembershipFamily, dict(peaks=(-7, 0, 6)), "peaks must lie inside the universe"),
    (RuleBase, dict(matrix=(("P", "Z"),)), "one matrix row per error label required"),
    (RuleBase, dict(matrix=(("P",), ("Z", "N"))), "one matrix column per delta label required"),
    (RuleBase, dict(matrix=(("P", "X"), ("Z", "N"))), "unknown output label 'X'"),
    (LookupTable, dict(cells=_TABLE.cells[:-1]), "table must be 13x13"),
    (LookupTable, dict(cells=((8,) * 13,) + _TABLE.cells[1:]), "cell value 8 outside -7..7"),
    (LookupTable, dict(cells=((5,) + (6,) * 12,) + _TABLE.cells[1:]), "rows must be non-increasing in ec"),
    (LookupTable, dict(cells=((-7,) * 13,) + _TABLE.cells[1:]), "columns must be non-increasing in e"),
]
CLASSES = pytest.mark.parametrize("cls", INPUTS, ids=lambda cls: cls.__name__)


def _fields_of(value):
    return {name: getattr(value, name) for name in type(value)._fields}


@CLASSES
def test_input_fields_keep_their_names_order_and_defaults(cls):
    values, defaults = INPUTS[cls]
    assert issubclass(cls, Frozen) and not hasattr(cls, "__dataclass_fields__")
    assert cls._fields == tuple(values)
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(values)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert _fields_of(cls(**values)) == values
    assert _fields_of(cls(*values.values())) == values
    if defaults:
        assert _fields_of(cls()) == defaults


GUARD_IDS = [f"{cls.__name__}: {message}" for cls, _, message in GUARDS]


@pytest.mark.parametrize("cls, changes, message", GUARDS, ids=GUARD_IDS)
def test_input_guards_keep_their_messages_and_run_again_on_replace(cls, changes, message):
    values = INPUTS[cls][0]
    with pytest.raises(ValueError) as built:
        cls(**{**values, **changes})
    assert str(built.value) == message
    with pytest.raises(ValueError) as replaced:
        cls(**values).replace(**changes)
    assert str(replaced.value) == message


def test_guards_cover_every_input_class_that_has_one():
    assert {cls for cls, _, _ in GUARDS} == set(INPUTS) - {TaskConfig, ScenarioConfig}


@CLASSES
def test_inputs_equal_and_hash_only_as_their_own_class(cls):
    values = INPUTS[cls][0]
    value, twin = cls(**values), cls(**values)
    assert value == twin and not value != twin
    plain = tuple(values.values())
    assert hash(value) == hash(twin) == hash(plain)  # as a frozen dataclass hashes
    assert value != plain and plain != value
    record = NamedTuple(cls.__name__, [(name, object) for name in values])(**values)
    assert value != record and record != value
    subclass = type(cls.__name__, (cls,), {"__slots__": ()})(**values)
    assert value != subclass and subclass != value


@CLASSES
def test_inputs_refuse_assignment_and_new_attributes(cls):
    values = INPUTS[cls][0]
    value = cls(**values)
    assert not hasattr(value, "__dict__")
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields_of(value) == values


@CLASSES
def test_input_repr_has_the_dataclass_shape(cls):
    values = INPUTS[cls][0]
    shown = ", ".join(f"{name}={v!r}" for name, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({shown})"


def test_input_repr_examples():
    assert repr(PlantParams()) == "PlantParams(pole_rate=2.0, input_gain=2000.0)"
    assert repr(ExecSchedule.constant(3)) == "ExecSchedule(segments=((0, 9223372036854775807, 3),))"
    assert repr(ERROR_UNIVERSE) == "QuantizedUniverse(q_max=6, span=(-0.3, 0.3))"


@CLASSES
def test_inputs_pickle_and_copy_to_an_equal_value(cls):
    value = cls(**INPUTS[cls][0])
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value
        assert [getattr(copied, name) for name in cls.__slots__] == [getattr(value, name) for name in cls.__slots__]


@CLASSES
def test_input_replace_builds_a_new_value_through_init(cls):
    value = cls(**INPUTS[cls][0])
    same = value.replace()
    assert same == value and same is not value
    with pytest.raises(TypeError):
        value.replace(extra=0)


def test_replace_changes_only_the_named_fields():
    assert INPUT_FAMILY.replace(labels=("A", "B", "C", "D", "E")).peaks == INPUT_FAMILY.peaks
    assert DEFAULT_RULES.replace(output_labels=DEFAULT_RULES.output_labels + ("XX",)).matrix == DEFAULT_RULES.matrix
    assert ExecSchedule(((0, 5, 2),)).replace(segments=((0, 5, 2), (5, 9, 3))).mean_at(7) == 3  # derived again


IMPORT_CLI = """
import dataclasses, json
built = []
process_class = dataclasses._process_class
def counting(cls, *args, **kwargs):
    built.append(cls.__qualname__)
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counting
import ffsched.cli
print(json.dumps(built))
"""


def test_importing_the_cli_builds_one_dataclass():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI],
        env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["FuzzyFeedbackScheduler"]
