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
execution time) or comma-separated `start-end: value` segments that must
tile the timeline from 0 without gaps or overlaps; the last value holds
beyond its end. `[task ...]` sections replace the default task set entirely.
Malformed text raises ScenarioSyntaxError with its position; well-formed text
breaking a configuration rule raises ScenarioSemanticError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .control import PidGains, PlantParams
from .errors import EmitError, ScenarioSemanticError, ScenarioSyntaxError
from .rtsim import NS, ExecSchedule, TaskKind, seconds_to_ns

MODES = ("fuzzy", "ideal", "open")
SCHEDULER_TASK = "sched"  # implicit highest-priority task; not declarable

_SECTION_RE = re.compile(r"^\[([a-z]+)(?:[ \t]+([A-Za-z0-9_\-]+))?\]$")
_KEY_RE = re.compile(r"^[a-z_]+$")

_SECTION_KEYS = {
    "run": ("horizon", "mode"),
    "scheduler": ("target", "period", "exec", "h_min", "h_max"),
    "noise": ("exec_std", "util_std"),
    "plant": ("pole_rate", "input_gain"),
    "pid": ("kp", "ki", "kd", "deriv_filter"),
    "reference": ("duration",),
    "task": ("kind", "priority", "period", "exec"),
}


@dataclass(frozen=True)
class TaskConfig:
    name: str
    kind: TaskKind
    priority: int
    period_s: float
    exec_segments: tuple[tuple[float, float, float], ...]  # (start_s, end_s, mean_s)


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    horizon_s: float
    target: float
    fs_period_s: float
    fs_exec_s: float
    h_min_s: float
    h_max_s: float
    exec_std: float
    util_std: float
    plant: PlantParams
    pid: PidGains
    ref_duration_s: float
    tasks: tuple[TaskConfig, ...]

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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EmitError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text and return the fully validated configuration."""

    sections = _tokenize(text)
    return _build(sections)


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

    run = plain.get("run", {})
    sched = plain.get("scheduler", {})
    noise = plain.get("noise", {})
    plant = plain.get("plant", {})
    pid = plain.get("pid", {})
    ref = plain.get("reference", {})

    mode = _enum(run, "mode", base.mode, MODES)
    horizon = _positive(run, "horizon", base.horizon_s)
    cfg = ScenarioConfig(
        mode=mode,
        horizon_s=horizon,
        target=_positive(sched, "target", base.target),
        fs_period_s=_positive(sched, "period", base.fs_period_s),
        fs_exec_s=_positive(sched, "exec", base.fs_exec_s),
        h_min_s=_positive(sched, "h_min", base.h_min_s),
        h_max_s=_positive(sched, "h_max", base.h_max_s),
        exec_std=_non_negative(noise, "exec_std", base.exec_std),
        util_std=_non_negative(noise, "util_std", base.util_std),
        plant=PlantParams(
            pole_rate=_positive(plant, "pole_rate", base.plant.pole_rate),
            input_gain=_positive(plant, "input_gain", base.plant.input_gain),
        ),
        pid=PidGains(
            kp=_positive(pid, "kp", base.pid.kp),
            ki=_positive(pid, "ki", base.pid.ki),
            kd=_non_negative(pid, "kd", base.pid.kd),
            deriv_filter=_positive(pid, "deriv_filter", base.pid.deriv_filter),
        ),
        ref_duration_s=_positive(ref, "duration", base.ref_duration_s),
        tasks=_build_tasks(task_sections) if task_sections else base.tasks,
    )
    validate_scenario(cfg)
    return cfg


def _build_tasks(task_sections) -> tuple[TaskConfig, ...]:
    tasks = []
    for name, keys, lineno in task_sections:
        for required in ("kind", "priority", "period", "exec"):
            if required not in keys:
                raise ScenarioSemanticError(f"line {lineno}: [task {name}] is missing key {required!r}")
        kind_text = keys["kind"][0]
        if kind_text not in ("control", "load"):
            raise ScenarioSemanticError(
                f"line {keys['kind'][1]}: task kind must be control or load, got {kind_text!r}"
            )
        tasks.append(
            TaskConfig(
                name=name,
                kind=TaskKind.CONTROL if kind_text == "control" else TaskKind.LOAD,
                priority=_int_value(keys["priority"]),
                period_s=_float_value(keys["period"]),
                exec_segments=_parse_exec(*keys["exec"]),
            )
        )
    return tuple(tasks)


def _parse_exec(value: str, lineno: int) -> tuple[tuple[float, float, float], ...]:
    if ":" not in value:
        mean = _to_float(value, lineno)
        if mean <= 0:
            raise ScenarioSemanticError(f"line {lineno}: mean execution time must be positive")
        return ((0.0, float("inf"), mean),)
    segments = []
    for part in value.split(","):
        part = part.strip()
        m = re.match(r"^([0-9.]+)\s*-\s*([0-9.]+)\s*:\s*(\S+)$", part)
        if m is None:
            raise ScenarioSyntaxError(f"malformed execution segment {part!r}", lineno, 1)
        start, end = _to_float(m.group(1), lineno), _to_float(m.group(2), lineno)
        mean = _to_float(m.group(3), lineno)
        if end <= start:
            raise ScenarioSemanticError(f"line {lineno}: empty execution segment {part!r}")
        if mean <= 0:
            raise ScenarioSemanticError(f"line {lineno}: mean execution time must be positive")
        segments.append((start, end, mean))
    segments.sort()
    if segments[0][0] != 0.0:
        raise ScenarioSemanticError(f"line {lineno}: execution-time schedule must start at 0")
    for (s0, e0, _), (s1, _, _) in zip(segments, segments[1:]):
        if s1 > e0:
            raise ScenarioSemanticError(f"line {lineno}: execution-time schedule gap between {e0:g} and {s1:g}")
        if s1 < e0:
            raise ScenarioSemanticError(f"line {lineno}: execution-time schedule overlap at {s1:g}")
    return tuple(segments)


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Check every cross-field invariant; raises ScenarioSemanticError."""

    if not 0.0 < cfg.target < 1.0:
        raise ScenarioSemanticError(f"utilization target must lie strictly inside (0, 1), got {cfg.target:g}")
    if cfg.h_min_s > cfg.h_max_s:
        raise ScenarioSemanticError(f"h_min ({cfg.h_min_s:g}) must not exceed h_max ({cfg.h_max_s:g})")
    if cfg.fs_exec_s >= cfg.fs_period_s:
        raise ScenarioSemanticError("scheduler execution time must be smaller than its period")
    if cfg.horizon_s <= cfg.fs_period_s:
        raise ScenarioSemanticError("horizon must exceed one scheduler period")
    if not cfg.tasks:
        raise ScenarioSemanticError("scenario defines no tasks")
    names = [t.name for t in cfg.tasks]
    if len(set(names)) != len(names):
        raise ScenarioSemanticError("task names must be unique")
    if SCHEDULER_TASK in names:
        raise ScenarioSemanticError(f"task name {SCHEDULER_TASK!r} is reserved for the feedback scheduler")
    priorities = [t.priority for t in cfg.tasks]
    if len(set(priorities)) != len(priorities):
        raise ScenarioSemanticError("task priorities must be unique")
    if any(p < 2 for p in priorities):
        raise ScenarioSemanticError("priority 1 is reserved for the feedback scheduler; use 2 or higher")
    controls = [t for t in cfg.tasks if t.kind is TaskKind.CONTROL]
    if len(controls) != 2:
        raise ScenarioSemanticError(f"exactly two control tasks are required, got {len(controls)}")
    for task in cfg.tasks:
        if task.period_s <= 0:
            raise ScenarioSemanticError(f"task {task.name}: period must be positive")
        if task.kind is TaskKind.CONTROL and not cfg.h_min_s <= task.period_s <= cfg.h_max_s:
            raise ScenarioSemanticError(
                f"task {task.name}: initial period {task.period_s:g} outside [h_min, h_max]"
            )
        for _, _, mean in task.exec_segments:
            if mean >= task.period_s:
                raise ScenarioSemanticError(
                    f"task {task.name}: mean execution time {mean:g} not below period {task.period_s:g}"
                )
    pid = cfg.pid
    if pid.kd > 0 and not pid.kp * pid.deriv_filter > 0:
        raise ScenarioSemanticError(
            f"pid: kp * deriv_filter ({pid.kp:g} * {pid.deriv_filter:g}) underflows to 0, "
            "and the derivative filter divides by it"
        )
    # numpy's normal draws stay below 40 (see _check_kernel_times), so u_raw stays finite
    if not math.isfinite(40.0 * cfg.util_std):
        raise ScenarioSemanticError(f"util_std {cfg.util_std!r} lets the utilization measurement overflow")
    _check_kernel_times(cfg)


def _check_kernel_times(cfg: ScenarioConfig) -> None:
    """The kernel counts whole nanoseconds up to `ExecSchedule.FOREVER`:
    every time it is given must be finite, at least 1 ns once rounded and at
    most FOREVER ns (checked before converting, which would overflow), and no
    execution segment may round to nothing. Execution-time noise must keep
    every draw within FOREVER ns too. Command-line overrides reach here
    unparsed."""

    forever = ExecSchedule.FOREVER
    times = [
        ("horizon", cfg.horizon_s),
        ("scheduler period", cfg.fs_period_s),
        ("scheduler exec", cfg.fs_exec_s),
        ("h_min", cfg.h_min_s),
        ("h_max", cfg.h_max_s),
    ]
    for task in cfg.tasks:
        times.append((f"task {task.name} period", task.period_s))
        times.extend((f"task {task.name} exec", mean) for _, _, mean in task.exec_segments)
    for name, value in times:
        if not math.isfinite(value) or value * NS > forever or seconds_to_ns(value) < 1:
            raise ScenarioSemanticError(
                f"{name} must be a finite time from 1 ns to {forever} ns, got {value!r}"
            )
    for task in cfg.tasks:
        for start, end, _ in task.exec_segments:
            if math.isinf(end):
                continue
            if end * NS > forever:
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segment end {end!r} lies past {forever} ns"
                )
            if seconds_to_ns(end) <= seconds_to_ns(start):
                raise ScenarioSemanticError(
                    f"task {task.name}: execution segment {start:g}-{end:g} is shorter than 1 ns"
                )
    # a standard-normal draw from numpy never reaches 40 (its ziggurat tail
    # stops below 14), so no execution time can be drawn past this bound
    max_mean_ns = max(seconds_to_ns(mean) for task in cfg.tasks for _, _, mean in task.exec_segments)
    if not max_mean_ns * (1.0 + 40.0 * cfg.exec_std) <= forever:
        raise ScenarioSemanticError(
            f"exec_std {cfg.exec_std!r} lets execution times exceed {forever} ns"
        )


def _enum(keys, key, default, allowed):
    if key not in keys:
        return default
    value, lineno = keys[key]
    if value not in allowed:
        raise ScenarioSemanticError(f"line {lineno}: {key} must be one of {', '.join(allowed)}; got {value!r}")
    return value


def _positive(keys, key, default):
    if key not in keys:
        return default
    value = _float_value(keys[key])
    if value <= 0:
        raise ScenarioSemanticError(f"line {keys[key][1]}: {key} must be positive, got {value:g}")
    return value


def _non_negative(keys, key, default):
    if key not in keys:
        return default
    value = _float_value(keys[key])
    if value < 0:
        raise ScenarioSemanticError(f"line {keys[key][1]}: {key} must be non-negative, got {value:g}")
    return value


def _float_value(entry: tuple[str, int]) -> float:
    return _to_float(entry[0], entry[1])


def _to_float(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScenarioSyntaxError(f"expected a number, got {text!r}", lineno, 1) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ScenarioSemanticError(f"line {lineno}: non-finite number {text!r}")
    return value


def _int_value(entry: tuple[str, int]) -> int:
    text, lineno = entry
    try:
        return int(text)
    except ValueError:
        raise ScenarioSyntaxError(f"expected an integer, got {text!r}", lineno, 1) from None
