"""Scenario parsing: defaults, overrides, and every rejection path."""

import ast
import math
import re
from pathlib import Path

import pytest

import ffsched
from ffsched.cli import _build_parser, _load_config
from ffsched.control import PidGains, PlantParams
from ffsched.errors import EmitError, ScenarioSemanticError, ScenarioSyntaxError
from ffsched.experiment import run_experiment
from ffsched.rtsim import ExecSchedule, TaskKind, TaskSpec
from ffsched.scenario import (
    _SECTION_KEYS,
    TaskConfig,
    default_scenario,
    kernel_times,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

THREE_TASKS = """
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

[task c]
kind = load
priority = 4
period = 0.005
exec = 0.001
"""


class TestDefaults:
    def test_empty_text_yields_default(self):
        assert parse_scenario("") == default_scenario()

    def test_comments_and_blank_lines_only(self):
        assert parse_scenario("# nothing here\n\n   # still nothing\n") == default_scenario()

    def test_default_workload_is_frozen(self):
        cfg = default_scenario()
        assert cfg.mode == "fuzzy"
        assert (cfg.horizon_s, cfg.target) == (4.0, 0.85)
        assert (cfg.fs_period_s, cfg.fs_exec_s) == (0.020, 0.0001)
        assert (cfg.h_min_s, cfg.h_max_s) == (0.001, 0.007)
        assert (cfg.exec_std, cfg.util_std) == (0.1, 0.1)
        by_name = {t.name: t for t in cfg.tasks}
        assert set(by_name) == {"tau1", "tau2", "tau3"}
        tau1, tau2, tau3 = by_name["tau1"], by_name["tau2"], by_name["tau3"]
        assert (tau1.kind, tau1.priority, tau1.period_s) == (TaskKind.CONTROL, 3, 0.003)
        assert (tau2.kind, tau2.priority, tau2.period_s) == (TaskKind.CONTROL, 4, 0.004)
        assert (tau3.kind, tau3.priority, tau3.period_s) == (TaskKind.LOAD, 2, 0.005)
        # stepwise mean execution times, one step per simulated second
        assert [m for _, _, m in tau1.exec_segments] == [0.0006, 0.0012, 0.0012, 0.0012]
        assert [m for _, _, m in tau2.exec_segments] == [0.0004, 0.0004, 0.0012, 0.0012]
        assert [m for _, _, m in tau3.exec_segments] == [0.001, 0.002, 0.002, 0.0015]
        assert cfg.control_tasks() == (tau1, tau2)


class TestOverrides:
    def test_scalar_overrides(self):
        cfg = parse_scenario(
            """
            [run]
            horizon = 2.5        # trailing comment is fine
            mode = ideal
            [scheduler]
            target = 0.7
            period = 0.01
            [noise]
            exec_std = 0
            util_std = 0.02
            [plant]
            pole_rate = 3.5
            [pid]
            kp = 2.0
            [reference]
            duration = 5.0
            """
        )
        assert cfg.mode == "ideal"
        assert cfg.horizon_s == 2.5
        assert cfg.target == 0.7
        assert cfg.fs_period_s == 0.01
        assert cfg.exec_std == 0.0
        assert cfg.util_std == 0.02
        assert cfg.plant.pole_rate == 3.5
        assert cfg.plant.input_gain == default_scenario().plant.input_gain
        assert cfg.pid.kp == 2.0
        assert cfg.pid.ki == default_scenario().pid.ki
        assert cfg.ref_duration_s == 5.0
        assert cfg.tasks == default_scenario().tasks

    def test_task_sections_replace_default_set(self):
        cfg = parse_scenario(THREE_TASKS)
        assert [t.name for t in cfg.tasks] == ["a", "b", "c"]
        assert cfg.tasks[0].exec_segments == ((0.0, math.inf, 0.0006),)

    def test_segmented_exec(self):
        cfg = parse_scenario(
            THREE_TASKS.replace("exec = 0.001", "exec = 0-1: 0.001, 2-3: 0.002, 1-2: 0.0015")
        )
        assert cfg.tasks[2].exec_segments == ((0.0, 1.0, 0.001), (1.0, 2.0, 0.0015), (2.0, 3.0, 0.002))


# Every section key, the field it sets ("plant.x" and "pid.x" are fields of
# that model) and a valid value other than the default. Written out here, not
# read from the parser's table, so that a swapped mapping fails.
KEY_FIELDS = [
    ("run", "horizon", "horizon_s", 2.5),
    ("run", "mode", "mode", "ideal"),
    ("scheduler", "target", "target", 0.7),
    ("scheduler", "period", "fs_period_s", 0.01),
    ("scheduler", "exec", "fs_exec_s", 0.0002),
    ("scheduler", "h_min", "h_min_s", 0.002),
    ("scheduler", "h_max", "h_max_s", 0.006),
    ("noise", "exec_std", "exec_std", 0.2),
    ("noise", "util_std", "util_std", 0.02),
    ("plant", "pole_rate", "plant.pole_rate", 3.5),
    ("plant", "input_gain", "plant.input_gain", 1500.0),
    ("pid", "kp", "pid.kp", 2.0),
    ("pid", "ki", "pid.ki", 2.5),
    ("pid", "kd", "pid.kd", 0.05),
    ("pid", "deriv_filter", "pid.deriv_filter", 20.0),
    ("reference", "duration", "ref_duration_s", 5.0),
]
# each command-line override, the field it sets and a value other than the default
OVERRIDE_FIELDS = [
    ("--mode", "mode", "open"),
    ("--horizon", "horizon_s", 2.5),
    ("--target", "target", 0.7),
    ("--fs-period", "fs_period_s", 0.01),
]


def _default_with(field, value):
    """The default scenario with `field` (or `model.field`) set to `value`."""

    cfg = default_scenario()
    model, _, name = field.rpartition(".")
    if model:
        return cfg.replace(**{model: getattr(cfg, model).replace(**{name: value})})
    return cfg.replace(**{name: value})


class TestEachKeySetsItsField:
    @pytest.mark.parametrize("section, key, field, value", KEY_FIELDS, ids=[f"{s}.{k}" for s, k, _, _ in KEY_FIELDS])
    def test_section_key(self, section, key, field, value):
        cfg = parse_scenario(f"[{section}]\n{key} = {value}\n")
        assert cfg != default_scenario()
        assert cfg == _default_with(field, value)

    @pytest.mark.parametrize("flag, field, value", OVERRIDE_FIELDS, ids=[f for f, _, _ in OVERRIDE_FIELDS])
    def test_override_flag(self, flag, field, value):
        cfg = _load_config(_build_parser().parse_args(["run", flag, str(value)]))
        assert cfg != default_scenario()
        assert cfg == _default_with(field, value)

    def test_task_keys(self):
        # every value differs from the others, so a swapped field shows
        cfg = parse_scenario(THREE_TASKS)
        assert cfg.tasks[2] == TaskConfig(
            name="c", kind=TaskKind.LOAD, priority=4, period_s=0.005, exec_segments=((0.0, math.inf, 0.001),)
        )

    def test_every_key_is_listed_here(self):
        listed = {(section, key) for section, key, _, _ in KEY_FIELDS}
        table = {(section, key) for section, keys in _SECTION_KEYS.items() if section != "task" for key in keys}
        assert listed == table


def _docstring_grammar():
    """Section -> keys, from the grammar block of the scenario module's docstring."""

    block = ffsched.scenario.__doc__.split("Grammar, line oriented::\n\n", 1)[1].split("\n\n", 1)[0]
    headers = (re.match(r"\s*\[(\w+)[^]]*\]\s+(.*)", line) for line in block.splitlines())
    return {m[1]: m[2].split(", ") for m in headers if m}


def _readme_grammar():
    """Section -> keys, from README's `ini` block: a plain section lists its
    keys as `key = default` in the header's comment, a task section as lines."""

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    sections: dict[str, list[str]] = {}
    for line in block.splitlines():
        body, _, comment = line.partition("#")
        if body.startswith("["):
            keys = sections.setdefault(re.match(r"\[(\w+)", body)[1], [])
            keys += re.findall(r"(\w+) =", comment)
        elif "=" in body:
            keys.append(body.split("=")[0].strip())
    return sections


@pytest.mark.parametrize("grammar", [_docstring_grammar, _readme_grammar], ids=["docstring", "README"])
def test_docs_list_the_parsed_sections_and_keys(grammar):
    assert grammar() == {section: list(keys) for section, keys in _SECTION_KEYS.items()}


class TestSyntaxErrors:
    def test_malformed_section_header(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("  [run\n")
        assert (e.value.line, e.value.column) == (1, 3)

    def test_task_without_name(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[task]\n")

    def test_name_on_plain_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[run extra]\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[run]\n  horizon 4\n")
        assert (e.value.line, e.value.column) == (2, 3)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("horizon = 4\n")

    def test_malformed_key(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[run]\nHorizon = 4\n")

    def test_empty_value(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[run]\nhorizon =\n")

    def test_non_numeric_value(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[run]\nhorizon = fast\n")
        assert e.value.line == 2

    def test_malformed_exec_segment(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(THREE_TASKS.replace("exec = 0.001", "exec = 0..1: x"))


class TestSemanticErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "[orbit]\n",
            "[run]\nwarp = 9\n",
            "[run]\nhorizon = 4\nhorizon = 5\n",
            "[run]\nhorizon = 4\n[run]\nmode = open\n",
            "[run]\nmode = turbo\n",
            "[run]\nhorizon = -1\n",
            "[noise]\nexec_std = -0.1\n",
            "[run]\nhorizon = inf\n",
            "[plant]\npole_rate = -1\n",  # PlantParams' own guard
            "[pid]\nderiv_filter = 0\n",  # PidGains' own guard
            "[pid]\nkd = nan\n",
        ],
    )
    def test_document_level_rejections(self, text):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(text)

    def test_duplicate_task_section(self):
        text = THREE_TASKS + "\n[task a]\nkind = load\npriority = 9\nperiod = 0.01\nexec = 0.001\n"
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(text)

    def test_missing_task_key(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario("[task a]\nkind = control\npriority = 2\nperiod = 0.003\n")

    def test_bad_task_kind(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("kind = load", "kind = batch"))

    @pytest.mark.parametrize(
        "bad_exec",
        [
            "exec = 1-2: 0.001",  # does not start at 0
            "exec = 0-1: 0.001, 2-3: 0.001",  # gap
            "exec = 0-2: 0.001, 1-3: 0.001",  # overlap
            "exec = 1-1: 0.001",  # empty segment
            "exec = 0-1: 0",  # nonpositive mean
            "exec = -0.001",
        ],
    )
    def test_bad_exec_schedules(self, bad_exec):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("exec = 0.001", bad_exec))

    @pytest.mark.parametrize(
        "text",
        [
            "[scheduler]\ntarget = 1.5\n",
            "[scheduler]\nh_min = 0.008\n",  # above the default h_max
            "[scheduler]\nperiod = 0.0001\n",  # equals the default exec time
            "[run]\nhorizon = 0.01\n",  # not beyond one scheduler period
        ],
    )
    def test_cross_field_rejections(self, text):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(text)

    def test_priority_one_reserved(self):
        with pytest.raises(ScenarioSemanticError) as e:
            parse_scenario(THREE_TASKS.replace("priority = 2", "priority = 1"))
        assert "reserved" in str(e.value)

    def test_reserved_task_name(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("[task a]", "[task sched]"))

    def test_duplicate_priorities(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("priority = 3", "priority = 2"))

    def test_exactly_two_control_tasks(self):
        with pytest.raises(ScenarioSemanticError) as e:
            parse_scenario(THREE_TASKS.replace("kind = load", "kind = control"))
        assert "two control tasks" in str(e.value)

    def test_control_period_within_bounds(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("period = 0.003", "period = 0.009"))

    def test_mean_exec_below_period(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(THREE_TASKS.replace("exec = 0.0006", "exec = 0.0031"))

    @pytest.mark.parametrize("bad_exec", ["exec = 0.0029999999996", "exec = 0-1: 0.0006, 1-2: 0.0029999999996"])
    def test_mean_exec_rounding_onto_its_period(self, bad_exec):
        # below 0.003 s as a float, but 3000000 ns, the period, to the kernel
        with pytest.raises(ScenarioSemanticError, match=r"\(3000000 ns\) not below period 0\.003 \(3000000 ns\)"):
            parse_scenario(THREE_TASKS.replace("exec = 0.0006", bad_exec))

    def test_validate_is_also_exported_for_built_configs(self):
        with pytest.raises(ScenarioSemanticError):
            validate_scenario(default_scenario().replace(target=0.0))

    def test_syntax_errors_come_before_value_errors(self):
        # the parser only parses: a bad value elsewhere in the file does not mask malformed text
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[plant]\npole_rate = -1\n[pid]\nkp = x\n")
        assert e.value.line == 4


def _with_task(i, **changes):
    cfg = default_scenario()
    tasks = list(cfg.tasks)
    tasks[i] = tasks[i].replace(**changes)
    return cfg.replace(tasks=tuple(tasks))


def _with(**changes):
    return default_scenario().replace(**changes)


# configurations built in Python that break a value rule the parser used to
# check alone; each passed validate_scenario or left it as a bare ValueError
BUILT_CASES = {
    "segment gap": _with_task(0, exec_segments=((0.0, 1.0, 0.0006), (2.0, 3.0, 0.0006))),
    "segment overlap": _with_task(0, exec_segments=((0.0, 2.0, 0.0006), (1.0, 3.0, 0.0006))),
    "segments not from 0": _with_task(0, exec_segments=((1.0, 2.0, 0.0006),)),
    "no segments": _with_task(0, exec_segments=()),
    "NaN segment start": _with_task(0, exec_segments=((math.nan, 1.0, 0.0006),)),
    "NaN segment end": _with_task(0, exec_segments=((0.0, math.nan, 0.0006),)),
    "empty task name": _with_task(0, name=""),
    "unknown mode": _with(mode="turbo"),
    "negative exec_std": _with(exec_std=-0.1),
    "zero reference duration": _with(ref_duration_s=0.0),
    "negative util_std": _with(util_std=-0.1),
    "negative kd": _with(pid=PidGains(kd=-0.01)),
    "negative ki": _with(pid=PidGains(ki=-1.0)),
    "negative input_gain": _with(plant=PlantParams(input_gain=-1.0)),
    "infinite pole_rate": _with(plant=PlantParams(pole_rate=math.inf)),
    "NaN priority": _with_task(0, priority=math.nan),
    "fractional priority": _with_task(0, priority=2.5),
    # the kernel takes priorities of type int only, as it does periods
    "int subclass priority": _with_task(0, priority=type("Priority", (int,), {})(5)),
    "kind as a string": _with_task(2, kind="load"),
    "scheduler kind": _with_task(2, kind=TaskKind.SCHEDULER),
}


@pytest.mark.parametrize("cfg", BUILT_CASES.values(), ids=BUILT_CASES)
def test_built_configs_meet_the_parsed_rules(cfg):
    with pytest.raises(ScenarioSemanticError):
        validate_scenario(cfg)
    with pytest.raises(ScenarioSemanticError):
        run_experiment(cfg, seed=1)


class TestKernelTimes:
    def test_default_scenario_in_whole_ns(self):
        horizon_ns, h_min_ns, h_max_ns, specs = kernel_times(default_scenario())
        assert (horizon_ns, h_min_ns, h_max_ns) == (4_000_000_000, 1_000_000, 7_000_000)
        s = 10**9

        def seconds(*means_ns):  # one segment per simulated second
            return ExecSchedule(tuple((k * s, (k + 1) * s, mean) for k, mean in enumerate(means_ns)))

        assert specs == (
            TaskSpec("tau1", TaskKind.CONTROL, 3, 3_000_000, seconds(600_000, 1_200_000, 1_200_000, 1_200_000)),
            TaskSpec("tau2", TaskKind.CONTROL, 4, 4_000_000, seconds(400_000, 400_000, 1_200_000, 1_200_000)),
            TaskSpec("tau3", TaskKind.LOAD, 2, 5_000_000, seconds(1_000_000, 2_000_000, 2_000_000, 1_500_000)),
            TaskSpec("sched", TaskKind.SCHEDULER, 1, 20_000_000, ExecSchedule.constant(100_000)),
        )

    def test_single_number_exec_ends_at_forever(self):
        *_, specs = kernel_times(parse_scenario(THREE_TASKS))
        assert [spec.exec_schedule.segments for spec in specs[:3]] == [
            ((0, ExecSchedule.FOREVER, 600_000),),
            ((0, ExecSchedule.FOREVER, 400_000),),
            ((0, ExecSchedule.FOREVER, 1_000_000),),
        ]

    def test_segments_tile_in_whole_ns(self):
        # 1.0000000000000002 s is 1000000000 ns, where the first segment ends
        cfg = parse_scenario(THREE_TASKS.replace("exec = 0.001", "exec = 0-1: 0.0006, 1.0000000000000002-2: 0.0006"))
        *_, specs = kernel_times(cfg)
        assert specs[2].exec_schedule.segments == ((0, 10**9, 600_000), (10**9, 2 * 10**9, 600_000))

    def test_run_experiment_rejects_an_unvalidated_config(self):
        cfg = default_scenario().replace(h_min_s=1e-10)  # rounds to 0 ns
        with pytest.raises(ScenarioSemanticError, match="h_min must be a finite time from 1 ns"):
            run_experiment(cfg, seed=1)

    def test_only_scenario_and_rtsim_convert_times_for_the_kernel(self):
        # any other module building kernel times would be a second conversion to keep in step
        src = Path(ffsched.__file__).parent
        builders = {"seconds_to_ns", "TaskSpec", "ExecSchedule"}
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.relative_to(src).as_posix() in ("scenario.py", "rtsim.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in builders:
                    func = func.value  # a classmethod such as ExecSchedule.constant(...)
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in builders:
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}: {name}")
        assert offenders == []


class TestLoadScenario:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("[run]\nmode = open\n")
        assert load_scenario(str(p)).mode == "open"

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(EmitError):
            load_scenario(str(tmp_path / "absent.cfg"))
