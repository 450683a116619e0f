"""Scenario files: a small INI-like format describing one co-simulation.

An empty document is a valid scenario and yields the built-in target-tracking
setup: two PID loops (periods 3 and 4 ms) and one fixed-rate load task
(5 ms) sharing a CPU under a 20 ms feedback scheduler aiming at 85%
utilization, simulated for 4 s. Every section and key merely overrides a
piece of that default.

Grammar, line oriented::

    # comment (also allowed after a value)
    [run]                 horizon, mode
    [scheduler]           target, period, exec, h_min, h_max
    [noise]               exec_std, util_std
    [plant]               pole_rate, input_gain
    [pid]                 kp, ki, kd, deriv_filter
    [reference]           duration
    [task <name>]         kind, priority, period, exec

Times are seconds. A task `exec` is either one number (constant mean
execution time) or comma-separated `start-end: value` segments, which the
parser sorts by start; in whole nanoseconds they must tile the timeline from
0 without gaps or overlaps, and the last value holds beyond its end.
`[task ...]` sections replace the default task set entirely.

The parser only parses. Malformed text raises ScenarioSyntaxError with its
line and column; a wrong structure (an unknown or duplicate section or key,
a task section missing a key or naming an unknown kind) raises
ScenarioSemanticError naming its line. Every rule on the values themselves
has one owner, `validate_scenario` (with `kernel_times` for times), which
checks a parsed configuration and one built in Python alike and raises
ScenarioSemanticError without a line number.
"""

from __future__ import annotations

import math
import re

from .control import PidGains, PlantParams
from .errors import EmitError, ScenarioSemanticError, ScenarioSyntaxError
from .frozen import Frozen
from .rtsim import NORMAL_BOUND, NS, ExecSchedule, TaskKind, TaskSpec, seconds_to_ns

MODES = ("fuzzy", "ideal", "open")
SCHEDULER_TASK = "sched"  # implicit highest-priority task; not declarable

_SECTION_RE = re.compile(r"^\[([a-z]+)(?:[ \t]+([A-Za-z0-9_\-]+))?\]$")
_KEY_RE = re.compile(r"^[a-z_]+$")

# Each section's keys in document order, each mapped to the field it sets: a
# ScenarioConfig field, a TaskConfig field for [task], or for [plant] and
# [pid] a field of the model in the ScenarioConfig field of that name. A
# value is parsed as a number unless `_PARSERS` names its field. Sections
# are read in this order, so a document with several errors always
# reports the same one first.
_SECTION_KEYS = {
    "run": dict(horizon="horizon_s", mode="mode"),
    "scheduler": dict(target="target", period="fs_period_s", exec="fs_exec_s", h_min="h_min_s", h_max="h_max_s"),
    "noise": dict(exec_std="exec_std", util_std="util_std"),
    "reference": dict(duration="ref_duration_s"),
    "task": dict(kind="kind", priority="priority", period="period_s", exec="exec_segments"),
    "plant": dict(pole_rate="pole_rate", input_gain="input_gain"),
    "pid": dict(kp="kp", ki="ki", kd="kd", deriv_filter="deriv_filter"),
}
_MODEL_SECTIONS = ("plant", "pid")


class TaskConfig(Frozen):
    """One [task] section: its execution-time means are piecewise constant
    over `exec_segments`, each `(start_s, end_s, mean_s)`."""

    __slots__ = _fields = ("name", "kind", "priority", "period_s", "exec_segments")

    def __init__(
        self, name: str, kind: TaskKind, priority: int, period_s: float, exec_segments: tuple[tuple[float, float, float], ...]
    ):
        self._set(name, kind, priority, period_s, exec_segments)


class ScenarioConfig(Frozen):
    """A whole scenario; `validate_scenario` checks its values, and `replace` derives variants."""

    __slots__ = _fields = (
        "mode", "horizon_s", "target", "fs_period_s", "fs_exec_s", "h_min_s", "h_max_s",
        "exec_std", "util_std", "plant", "pid", "ref_duration_s", "tasks",
    )

    def __init__(
        self,
        mode: str,
        horizon_s: float,
        target: float,
        fs_period_s: float,
        fs_exec_s: float,
        h_min_s: float,
        h_max_s: float,
        exec_std: float,
        util_std: float,
        plant: PlantParams,
        pid: PidGains,
        ref_duration_s: float,
        tasks: tuple[TaskConfig, ...],
    ):
        self._set(
            mode, horizon_s, target, fs_period_s, fs_exec_s, h_min_s, h_max_s,
            exec_std, util_std, plant, pid, ref_duration_s, tasks,
        )

    def control_tasks(self) -> tuple[TaskConfig, ...]:
        return tuple(t for t in self.tasks if t.kind is TaskKind.CONTROL)


def _default_tasks() -> tuple[TaskConfig, ...]:
    return (
        TaskConfig(
            name="tau1",
            kind=TaskKind.CONTROL,
            priority=3,
            period_s=0.003,
            exec_segments=((0.0, 1.0, 0.0006), (1.0, 2.0, 0.0012), (2.0, 3.0, 0.0012), (3.0, 4.0, 0.0012)),
        ),
        TaskConfig(
            name="tau2",
            kind=TaskKind.CONTROL,
            priority=4,
            period_s=0.004,
            exec_segments=((0.0, 1.0, 0.0004), (1.0, 2.0, 0.0004), (2.0, 3.0, 0.0012), (3.0, 4.0, 0.0012)),
        ),
        TaskConfig(
            name="tau3",
            kind=TaskKind.LOAD,
            priority=2,
            period_s=0.005,
            exec_segments=((0.0, 1.0, 0.001), (1.0, 2.0, 0.002), (2.0, 3.0, 0.002), (3.0, 4.0, 0.0015)),
        ),
    )


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        mode="fuzzy",
        horizon_s=4.0,
        target=0.85,
        fs_period_s=0.020,
        fs_exec_s=0.0001,
        h_min_s=0.001,
        h_max_s=0.007,
        exec_std=0.1,
        util_std=0.1,
        plant=PlantParams(),
        pid=PidGains(),
        ref_duration_s=4.0,
        tasks=_default_tasks(),
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops one leading byte-order mark
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EmitError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text and return the fully validated configuration."""

    return _build(_tokenize(text))


def _tokenize(text: str) -> list[tuple[str, str | None, dict[str, tuple[str, int]], int]]:
    """Split the document into (section, subname, {key: (value, line)}, line) tuples."""

    sections: list[tuple[str, str | None, dict[str, tuple[str, int]], int]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            m = _SECTION_RE.match(stripped)
            if m is None:
                raise ScenarioSyntaxError("malformed section header", lineno, raw.index("[") + 1)
            name, subname = m.group(1), m.group(2)
            if name not in _SECTION_KEYS:
                raise ScenarioSemanticError(f"line {lineno}: unknown section [{name}]")
            if name == "task" and subname is None:
                raise ScenarioSyntaxError("[task] needs a name, e.g. [task tau1]", lineno, 1)
            if name != "task" and subname is not None:
                raise ScenarioSyntaxError(f"section [{name}] takes no name", lineno, 1)
            current = {}
            sections.append((name, subname, current, lineno))
            continue
        if "=" not in stripped:
            raise ScenarioSyntaxError("expected `key = value`", lineno, len(raw) - len(raw.lstrip()) + 1)
        if current is None:
            raise ScenarioSyntaxError("key outside any section", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ScenarioSyntaxError(f"malformed key {key!r}", lineno, len(raw) - len(raw.lstrip()) + 1)
        if not value:
            raise ScenarioSyntaxError(f"key {key!r} has no value", lineno, raw.index("=") + 1)
        section_name = sections[-1][0]
        if key not in _SECTION_KEYS[section_name]:
            raise ScenarioSemanticError(f"line {lineno}: unknown key {key!r} in section [{section_name}]")
        if key in current:
            raise ScenarioSemanticError(f"line {lineno}: duplicate key {key!r}")
        current[key] = (value, lineno)
    return sections


def _build(sections) -> ScenarioConfig:
    base = default_scenario()
    plain: dict[str, dict[str, tuple[str, int]]] = {}
    task_sections: list[tuple[str, dict[str, tuple[str, int]], int]] = []
    for name, subname, keys, lineno in sections:
        if name == "task":
            if any(existing == subname for existing, _, _ in task_sections):
                raise ScenarioSemanticError(f"line {lineno}: duplicate section [task {subname}]")
            task_sections.append((subname, keys, lineno))
        else:
            if name in plain:
                raise ScenarioSemanticError(f"line {lineno}: duplicate section [{name}]")
            plain[name] = keys

    fields: dict[str, object] = {}
    for section in _SECTION_KEYS:
        if section == "task":
            if task_sections:
                fields["tasks"] = _build_tasks(task_sections)
        elif section in _MODEL_SECTIONS:  # the model is built once every value is read
            fields[section] = _read(section, plain.get(section, {}))
        else:
            fields.update(_read(section, plain.get(section, {})))
    try:
        for section in _MODEL_SECTIONS:
            fields[section] = getattr(base, section).replace(**fields[section])
        cfg = base.replace(**fields)
    except ValueError as exc:  # the models' own guards, kept for library callers
        raise ScenarioSemanticError(str(exc)) from None
    validate_scenario(cfg)
    return cfg


def _build_tasks(task_sections) -> tuple[TaskConfig, ...]:
    tasks = []
    for name, keys, lineno in task_sections:
        for key in _SECTION_KEYS["task"]:
            if key not in keys:
                raise ScenarioSemanticError(f"line {lineno}: [task {name}] is missing key {key!r}")
        tasks.append(TaskConfig(name=name, **_read("task", keys)))
    return tuple(tasks)


def _read(section: str, keys: dict[str, tuple[str, int]]) -> dict[str, object]:
    """Parse the keys of `section` found in `keys`, in table order, into the
    fields they set."""

    key_fields = _SECTION_KEYS[section].items()
    return {field: _PARSERS.get(field, _to_float)(*keys[key]) for key, field in key_fields if key in keys}


def _parse_exec(value: str, lineno: int) -> tuple[tuple[float, float, float], ...]:
    if ":" not in value:
        return ((0.0, math.inf, _to_float(value, lineno)),)
    segments = []
    for part in value.split(","):
        part = part.strip()
        m = re.match(r"^([0-9.]+)\s*-\s*([0-9.]+)\s*:\s*(\S+)$", part)
        if m is None:
            raise ScenarioSyntaxError(f"malformed execution segment {part!r}", lineno, 1)
        segments.append(tuple(_to_float(text, lineno) for text in m.groups()))
    return tuple(sorted(segments))


def validate_scenario(cfg: ScenarioConfig) -> tuple[int, int, int, tuple[TaskSpec, ...]]:
    """Check every rule on the values of `cfg`, parsed or built in Python,
    and return its `kernel_times`, which owns the rules on times; raises
    ScenarioSemanticError."""

    if cfg.mode not in MODES:
        raise ScenarioSemanticError(f"mode must be one of {', '.join(MODES)}; got {cfg.mode!r}")
    if not 0.0 < cfg.target < 1.0:
        raise ScenarioSemanticError(f"utilization target must lie strictly inside (0, 1), got {cfg.target:g}")
    plant, pid = cfg.plant, cfg.pid
    for name, value, sign in (
        ("exec_std", cfg.exec_std, "non-negative"),
        ("util_std", cfg.util_std, "non-negative"),
        ("pole_rate", plant.pole_rate, "positive"),
        ("input_gain", plant.input_gain, "positive"),
        ("kp", pid.kp, "positive"),
        ("ki", pid.ki, "positive"),
        ("kd", pid.kd, "non-negative"),
        ("deriv_filter", pid.deriv_filter, "positive"),
        ("reference duration", cfg.ref_duration_s, "positive"),
    ):
        if not (math.isfinite(value) and (value > 0 or value == 0 and sign == "non-negative")):
            raise ScenarioSemanticError(f"{name} must be finite and {sign}, got {value!r}")
    names = [t.name for t in cfg.tasks]
    if not all(names):
        raise ScenarioSemanticError("task names must be non-empty")
    if len(set(names)) != len(names):
        raise ScenarioSemanticError("task names must be unique")
    if SCHEDULER_TASK in names:
        raise ScenarioSemanticError(f"task name {SCHEDULER_TASK!r} is reserved for the feedback scheduler")
    for t in cfg.tasks:
        if type(t.priority) is not int:
            raise ScenarioSemanticError(f"task {t.name} priority must be an integer, got {t.priority!r}")
        if t.kind not in (TaskKind.CONTROL, TaskKind.LOAD):
            raise ScenarioSemanticError(f"task {t.name} kind must be control or load, got {t.kind!r}")
    priorities = [t.priority for t in cfg.tasks]
    if len(set(priorities)) != len(priorities):
        raise ScenarioSemanticError("task priorities must be unique")
    if any(p < 2 for p in priorities):
        raise ScenarioSemanticError("priority 1 is reserved for the feedback scheduler; use 2 or higher")
    controls = [t for t in cfg.tasks if t.kind is TaskKind.CONTROL]
    if len(controls) != 2:
        raise ScenarioSemanticError(f"exactly two control tasks are required, got {len(controls)}")
    if pid.kd > 0 and not pid.kp * pid.deriv_filter > 0:
        raise ScenarioSemanticError(
            f"pid: kp * deriv_filter ({pid.kp:g} * {pid.deriv_filter:g}) underflows to 0, "
            "and the derivative filter divides by it"
        )
    # numpy's normal draws stay below NORMAL_BOUND, so u_raw stays finite
    if not math.isfinite(NORMAL_BOUND * cfg.util_std):
        raise ScenarioSemanticError(f"util_std {cfg.util_std!r} lets the utilization measurement overflow")
    return kernel_times(cfg)


def kernel_times(cfg: ScenarioConfig) -> tuple[int, int, int, tuple[TaskSpec, ...]]:
    """Every time the kernel counts, converted to whole nanoseconds once.

    Returns `(horizon_ns, h_min_ns, h_max_ns, specs)`: the user tasks in
    scenario order, an infinite segment end as `ExecSchedule.FOREVER`, then
    the feedback scheduler at priority 1 with its constant cost. Raises
    ScenarioSemanticError for what the kernel cannot be given: every time
    must be finite, at least 1 ns once rounded and at most FOREVER ns
    (checked before converting, which would overflow), and each task's
    execution segments must tile the timeline from 0 in whole nanoseconds,
    none of them rounding to nothing. Each mean execution time, the
    scheduler's included, and the horizon are compared with the period,
    h_min with h_max and each initial control period with both, as the
    kernel sees them, in whole nanoseconds. Execution-time noise must keep
    every draw within FOREVER ns too. Command-line overrides reach here
    unparsed.
    """

    forever = ExecSchedule.FOREVER

    def to_ns(name: str, value: float) -> int:
        if not math.isfinite(value) or value * NS > forever or (value_ns := seconds_to_ns(value)) < 1:
            raise ScenarioSemanticError(
                f"{name} must be a finite time from 1 ns to {forever} ns, got {value!r}"
            )
        return value_ns

    horizon_ns = to_ns("horizon", cfg.horizon_s)
    fs_period_ns = to_ns("scheduler period", cfg.fs_period_s)
    fs_exec_ns = to_ns("scheduler exec", cfg.fs_exec_s)
    h_min_ns, h_max_ns = to_ns("h_min", cfg.h_min_s), to_ns("h_max", cfg.h_max_s)
    if fs_exec_ns >= fs_period_ns:
        raise ScenarioSemanticError("scheduler execution time must be smaller than its period")
    if horizon_ns <= fs_period_ns:
        raise ScenarioSemanticError("horizon must exceed one scheduler period")
    if h_min_ns > h_max_ns:
        raise ScenarioSemanticError(f"h_min ({cfg.h_min_s:g}) must not exceed h_max ({cfg.h_max_s:g})")
    specs = []
    for task in cfg.tasks:
        period_ns = to_ns(f"task {task.name} period", task.period_s)
        if task.kind is TaskKind.CONTROL and not h_min_ns <= period_ns <= h_max_ns:
            raise ScenarioSemanticError(
                f"task {task.name}: initial period {task.period_s:g} outside [h_min, h_max]"
            )
        if not task.exec_segments:
            raise ScenarioSemanticError(f"task {task.name} has no execution segments")
        segments = []
        start_ns = 0  # where the next segment must start for the segments to tile
        for start, end, mean in task.exec_segments:
            if not abs(start) * NS <= forever:
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segment start {start!r} is not a time within {forever} ns of 0"
                )
            if seconds_to_ns(start) != start_ns:
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segments must tile the timeline from 0, but one starts"
                    f" at {start!r} ({seconds_to_ns(start)} ns) instead of {start_ns} ns"
                )
            if (mean_ns := to_ns(f"task {task.name} exec", mean)) >= period_ns:
                raise ScenarioSemanticError(
                    f"task {task.name}: mean execution time {mean!r} ({mean_ns} ns)"
                    f" not below period {task.period_s!r} ({period_ns} ns)"
                )
            if end == math.inf:
                end_ns = forever
            elif not abs(end) * NS <= forever:
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segment end {end!r} is not a time within {forever} ns of 0"
                )
            elif (end_ns := seconds_to_ns(end)) <= start_ns:
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segment {start:g}-{end:g} is shorter than 1 ns"
                )
            segments.append((start_ns, end_ns, mean_ns))
            start_ns = end_ns
        specs.append(TaskSpec(task.name, task.kind, task.priority, period_ns, ExecSchedule(tuple(segments))))
    # no execution time can be drawn past this bound (see NORMAL_BOUND)
    max_mean_ns = max(mean_ns for spec in specs for _, _, mean_ns in spec.exec_schedule.segments)
    if not max_mean_ns * (1.0 + NORMAL_BOUND * cfg.exec_std) <= forever:
        raise ScenarioSemanticError(
            f"exec_std {cfg.exec_std!r} lets execution times exceed {forever} ns"
        )
    specs.append(TaskSpec(SCHEDULER_TASK, TaskKind.SCHEDULER, 1, fs_period_ns, ExecSchedule.constant(fs_exec_ns)))
    return horizon_ns, h_min_ns, h_max_ns, tuple(specs)


def _to_float(text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioSyntaxError(f"expected a number, got {text!r}", lineno, 1) from None


def _int_value(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioSyntaxError(f"expected an integer, got {text!r}", lineno, 1) from None


def _kind(text: str, lineno: int) -> TaskKind:
    if text not in ("control", "load"):
        raise ScenarioSemanticError(f"line {lineno}: task kind must be control or load, got {text!r}")
    return TaskKind.CONTROL if text == "control" else TaskKind.LOAD


# the parser of each field whose value is not a number
_PARSERS = {"mode": lambda text, lineno: text, "kind": _kind, "priority": _int_value, "exec_segments": _parse_exec}
