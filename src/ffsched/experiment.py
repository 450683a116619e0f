"""Wiring of kernel, plants, controllers and scheduler into one run.

A run couples three layers at exact integer-nanosecond instants. The kernel
decides who computes when; each control job latches its reference and plant
measurement at its release instant (time-triggered sampling), computes once
it gets the CPU, and actuates when it completes. Queueing delay therefore
reaches the control loop as genuine input-output latency: a backlogged task
keeps actuating on ever-staler samples, which is exactly how sustained
overload destabilizes a loop. The feedback scheduler runs as the
highest-priority task: on every invocation it measures the utilization of
the window just ended, picks a rescaling factor according to the configured
mode, and re-periods the control tasks.

The coupling runs one way, from schedule to control: the scheduler reads
only the utilization, never plant or controller state, and the kernel's
timeline does not depend on the loops. So the loops are not run from
per-job kernel hooks. The kernel files each task's release and completion
instants, and every invocation replays each control loop over the job
timeline of the window it takes, then advances the plants to the invocation
instant. That is exact, not an approximation: each plant is advanced over
the same instants in the same order as a per-job replay would, and an event
on the invocation instant itself is replayed in the next window with a zero
step.

Every invocation appends one trace record, stamped at the invocation instant
with the measurement, the factor, the periods just applied and both the
reference and actual positions. Runs with equal configuration and seed
produce byte-identical traces.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import chain
from math import cos, expm1, pi, sin
from typing import Iterable, Iterator, Mapping, NamedTuple

from .control import (
    ReferencePath,
    pid_compute,
    plant_step,  # noqa: F401  (kept in this namespace for benchmark/tracing.py)
    reference_at,
    tracking_error,
)
from .errors import EmitError, ScenarioSemanticError
from .rtsim import (
    NS,
    ExecDraws,
    ExecTimeSource,
    Kernel,
    TaskKind,
    TaskSpec,
    TaskStats,
    measure_utilization,
    normal_blocks,
    sample_execution_time,
)
from .scenario import SCHEDULER_TASK, ScenarioConfig, validate_scenario
from .schedulers import FuzzyFeedbackScheduler, apply_periods, ideal_eta

class TraceRecord(NamedTuple):
    """One feedback-scheduler invocation, stamped at its start instant."""

    t_s: float
    u_meas: float  # utilization measurement after clamping to [0, 1]
    u_raw: float  # the same measurement before clamping: the true demand estimate
    eta: float
    periods_s: tuple[float, float]  # control periods just applied (x axis, y axis)
    ref: tuple[float, float]
    act: tuple[float, float]
    err: float


class RunSummary(NamedTuple):
    mode: str
    seed: int
    horizon_s: float
    invocations: int
    mean_tracking_error: float
    max_tracking_error: float
    mean_utilization: float
    mean_utilization_final: float  # over invocations in the last simulated second
    final_periods_s: tuple[float, float]
    task_stats: Mapping[str, TaskStats]


class ExperimentResult(NamedTuple):
    control_names: tuple[str, str]
    records: tuple[TraceRecord, ...]
    summary: RunSummary


def run_experiment(cfg: ScenarioConfig, seed: int) -> ExperimentResult:
    """Simulate one scenario to its horizon and return trace plus summary.

    Each axis's loop state lives in the locals of its own `control_loop`
    generator (axis 0 = x, 1 = y), which calls `pid_compute` and evaluates the
    plant's closed form and the reference path inline; `tests/decision_model.py`,
    a model of the run without a kernel, checks it against the `control.py`
    formulas it copies. User task i
    draws its execution-time noise from `normal_blocks(seed, i)` and the
    measurement its noise from stream `len(cfg.tasks)`. A stream is read
    only while its noise is on, and builds its Generator at the first read,
    so a run with neither noise never imports numpy. The kernel
    finds each release's mean; when a release enters a span of the mean
    schedule, a noisy task's source, its `ExecDraws.times`, hands it an
    iterator over the times of every later job at that mean. A task without
    noise (the scheduler always, every task when `exec_std` is 0) gets no
    source from `exec_time_of`, so its jobs run for the mean itself.
    `cfg` goes through `validate_scenario` first, so a configuration built
    in Python meets the rules a parsed one does.
    """

    if seed < 0:
        raise ValueError("seed must be non-negative")

    horizon_ns, h_min_ns, h_max_ns, task_specs = validate_scenario(cfg)
    ctrl = cfg.control_tasks()
    ctrl_names: tuple[str, str] = (ctrl[0].name, ctrl[1].name)
    load_names = [t.name for t in cfg.tasks if t.kind is TaskKind.LOAD]
    specs = {spec.name: spec for spec in task_specs[:-1]}  # the user tasks; the scheduler comes last

    # callees looked up in this module's namespace once per run, so a
    # wrapper installed there before the run still sees every call
    sample = sample_execution_time
    reference = reference_at
    pid = pid_compute
    exec_std = cfg.exec_std
    mode, util_std = cfg.mode, cfg.util_std

    stream_of = {t.name: i for i, t in enumerate(cfg.tasks)}
    util_normals = chain.from_iterable(block.tolist() for block in normal_blocks(seed, len(cfg.tasks)))

    def exec_time_of(spec: TaskSpec) -> ExecTimeSource | None:
        """A noisy user task's times, by blocks at the mean the kernel found;
        `None`, so its jobs run for that mean, for a noise-free run and for
        the scheduler."""
        i = stream_of.get(spec.name)  # None for the scheduler, whose cost is fixed by assumption
        if i is None or not exec_std:
            return None
        return ExecDraws(normal_blocks(seed, i), exec_std, sample).times

    path = ReferencePath(duration=cfg.ref_duration_s)
    # the path holds its end point from `duration` on; compared in float
    # seconds, because the duration rounded to ns may fall below it
    ref_end = reference(path, path.duration)
    ref_duration_s = path.duration
    plant, gains = cfg.plant, cfg.pid

    def control_loop(axis: int):
        """One axis's plant and PID, replayed a window at a time.

        Sent `(releases, finishes, end_ns)`, the control task's job timeline
        of one window, it replays the jobs in time order and yields the
        plant position at `end_ns`. A release advances the plant to its
        instant and latches the job's reference, measurement and sampling
        interval; a completion advances the plant, runs the PID on the oldest
        latched sample (the completing job's, as a task's jobs complete in
        release order) and switches the held command. A release and a
        completion on one instant leave the plant in the same state whichever
        comes first. The plant's closed form and the path are evaluated
        inline, as in `plant_step` and `reference_at`; the velocity the held
        command settles to is computed once per command.
        """
        a, gain = plant.pole_rate, plant.input_gain
        centre, radius, trig = path.centre[axis], path.radius, sin if axis else cos
        position = velocity = command = 0.0
        v_inf = gain * command / a  # the steady-state velocity under the held command
        clock = 0  # the instant the plant was last advanced to
        integrator = deriv = 0.0
        last_meas: float | None = None
        latched: deque[tuple[float, float, float]] = deque()  # FIFO of samples not yet consumed
        # the release before the first one lies one initial period back, so
        # the first job's sampling interval is that period
        prev_release = -specs[ctrl_names[axis]].period_ns
        end_ref = ref_end[axis]
        releases, finishes, end_ns = yield
        while True:
            n, i = len(releases), 0
            # each finish, then `end_ns`, is a stop; the releases before it come first
            for stop_ns in (*finishes, end_ns):
                while i < n and releases[i] < stop_ns:
                    release_ns = releases[i]
                    i += 1
                    if release_ns > clock:
                        dt_s = (release_ns - clock) / NS
                        ramp = -expm1(-a * dt_s)
                        dv = velocity - v_inf
                        position, velocity = position + dv * ramp / a + v_inf * dt_s, v_inf + dv * (1.0 - ramp)
                        clock = release_ns
                    t_s = release_ns / NS
                    ref = end_ref
                    if t_s < ref_duration_s:  # so t_s / ref_duration_s lies in [0, 1]
                        ref = centre + radius * trig(pi * (1.0 - t_s / ref_duration_s))
                    latched.append((ref, position, (release_ns - prev_release) / NS))
                    prev_release = release_ns
                if stop_ns > clock:
                    dt_s = (stop_ns - clock) / NS
                    ramp = -expm1(-a * dt_s)
                    dv = velocity - v_inf
                    position, velocity = position + dv * ramp / a + v_inf * dt_s, v_inf + dv * (1.0 - ramp)
                    clock = stop_ns
                if stop_ns == end_ns:  # finishes all lie before it
                    break
                ref, meas, spacing_s = latched.popleft()
                command, integrator, deriv = pid(gains, spacing_s, integrator, deriv, last_meas, ref, meas)
                v_inf = gain * command / a
                last_meas = meas
            releases, finishes, end_ns = yield position

    loop_x, loop_y = control_loop(0), control_loop(1)
    next(loop_x), next(loop_y)

    fuzzy = FuzzyFeedbackScheduler(target=cfg.target)
    name_x, name_y = ctrl_names
    records: list[TraceRecord] = []
    # user task periods in `specs` order, kept in step with the kernel below
    periods_now = {name: spec.period_ns for name, spec in specs.items()}
    # the control periods in seconds, rebuilt only when periods are applied,
    # so the records of windows that keep them share this one tuple
    periods_s = (periods_now[name_x] / NS, periods_now[name_y] / NS)
    new_tuple = tuple.__new__

    def schedule_step(name: str, release_ns: int, t_inv_ns: int) -> bool | None:
        """The kernel's start hook: invokes the scheduler when its job starts.

        A factor of 1 leaves the periods as they are: each already lies in
        [h_min, h_max], the initial ones by validation and later ones by the
        clamp in `apply_periods`, which would return them unchanged.
        """
        nonlocal periods_s
        if name != SCHEDULER_TASK:
            return False  # every other task opts out at its first job
        # the scheduler is released at 0 and, at priority 1, starts there; that
        # first invocation only starts the first window
        if t_inv_ns == 0:
            return None
        window = kernel.window_snapshot(t_inv_ns)
        u_meas, u_raw = measure_utilization(window, periods_now, util_normals, util_std)
        current = (periods_now[name_x], periods_now[name_y])
        if mode == "fuzzy":
            eta = fuzzy.step(u_meas)
        elif mode == "open":
            eta = 1.0
        else:
            true_means = tuple(float(specs[name].exec_schedule.mean_at(t_inv_ns)) for name in ctrl_names)
            u_others = sum(specs[name].exec_schedule.mean_at(t_inv_ns) / periods_now[name] for name in load_names)
            eta = ideal_eta(true_means, tuple(float(h) for h in current), u_others, cfg.target)
        if eta != 1.0:
            periods_ns = apply_periods(eta, current, h_min_ns, h_max_ns)
            set_period(name_x, periods_ns[0])
            set_period(name_y, periods_ns[1])
            periods_now[name_x], periods_now[name_y] = periods_ns
            periods_s = (periods_ns[0] / NS, periods_ns[1] / NS)
        releases, finishes = window.releases, window.finishes
        act = (
            loop_x.send((releases[name_x], finishes[name_x], t_inv_ns)),
            loop_y.send((releases[name_y], finishes[name_y], t_inv_ns)),
        )
        t_s = t_inv_ns / NS
        ref = ref_end if t_s >= ref_duration_s else reference(path, t_s)
        record = (t_s, u_meas, u_raw, eta, periods_s, ref, act, tracking_error(act, ref))
        records.append(new_tuple(TraceRecord, record))  # skips TraceRecord.__new__

    kernel = Kernel(task_specs, exec_time_of=exec_time_of, on_job_start=schedule_step)
    set_period = kernel.set_period
    kernel.run(horizon_ns)

    summary = summarize(
        records,
        cfg,
        seed,
        task_stats={spec.name: kernel.stats(spec.name) for spec in task_specs},
    )
    return ExperimentResult(control_names=ctrl_names, records=tuple(records), summary=summary)


def summarize(
    records,
    cfg: ScenarioConfig,
    seed: int,
    task_stats: Mapping[str, TaskStats],
) -> RunSummary:
    """Aggregate a run's records; invocations fall on a uniform grid, so the
    time-weighted tracking-error mean reduces to the plain mean over records.

    A run whose loop left the floating-point range is a scenario error: the
    first non-finite tracking error is named, or the overflowing mean.
    """

    if not records:
        raise ValueError("no scheduler invocations recorded; horizon too short")
    errs = [r.err for r in records]
    try:
        mean_err = math.fsum(errs) / len(errs)
    except OverflowError:
        mean_err = math.inf
    if not math.isfinite(mean_err):
        t_s = next((r.t_s for r in records if not math.isfinite(r.err)), None)
        if t_s is None:
            raise ScenarioSemanticError("the control loop diverged: the mean tracking error overflows")
        raise ScenarioSemanticError(f"the control loop diverged: the tracking error is not finite at t = {t_s!r} s")
    final_start = cfg.horizon_s - 1.0
    finals = [r.u_meas for r in records if r.t_s > final_start] or [records[-1].u_meas]
    return RunSummary(
        mode=cfg.mode,
        seed=seed,
        horizon_s=cfg.horizon_s,
        invocations=len(records),
        mean_tracking_error=mean_err,
        max_tracking_error=max(errs),
        mean_utilization=math.fsum(r.u_meas for r in records) / len(records),
        mean_utilization_final=math.fsum(finals) / len(finals),
        final_periods_s=records[-1].periods_s,
        task_stats=dict(task_stats),
    )


def trace_header(control_names: tuple[str, str]) -> str:
    a, b = control_names
    return f"t,u_meas,u_raw,eta,h_{a},h_{b},x_ref,y_ref,x_act,y_act,err"


def trace_lines(result: ExperimentResult) -> Iterator[str]:
    """The lines of trace.csv, each ending in a newline: the header, then one
    row per record, each cell the `repr` of its value. Written as they are
    formatted, the trace is never held whole in memory. `u_raw` is formatted
    only when it is not the `u_meas` object itself, which it is whenever the
    measurement was not clamped. Likewise `eta`, the periods and the
    reference are formatted only when they are not the previous row's
    objects, which consecutive records share while the factor stays 1 and
    the path holds its end point. Each test is identity, not equality,
    since `0.0 == -0.0` while their reprs differ."""
    yield trace_header(result.control_names) + "\n"
    unset = object()  # no record's value, so the first row formats every cell
    last_eta = last_periods = last_ref = unset
    for t_s, u_meas, u_raw, eta, periods, ref, (x_act, y_act), err in result.records:
        meas = repr(u_meas)
        raw = meas if u_raw is u_meas else repr(u_raw)
        if eta is not last_eta:
            last_eta, eta_cell = eta, repr(eta)
        if periods is not last_periods:
            last_periods, periods_cells = periods, f"{periods[0]!r},{periods[1]!r}"
        if ref is not last_ref:
            last_ref, ref_cells = ref, f"{ref[0]!r},{ref[1]!r}"
        yield f"{t_s!r},{meas},{raw},{eta_cell},{periods_cells},{ref_cells},{x_act!r},{y_act!r},{err!r}\n"


def format_summary(summary: RunSummary) -> str:
    lines = [
        f"mode = {summary.mode}",
        f"seed = {summary.seed}",
        f"horizon_s = {summary.horizon_s!r}",
        f"invocations = {summary.invocations}",
        f"mean_tracking_error = {summary.mean_tracking_error!r}",
        f"max_tracking_error = {summary.max_tracking_error!r}",
        f"mean_utilization = {summary.mean_utilization!r}",
        f"mean_utilization_final = {summary.mean_utilization_final!r}",
        f"final_period_x = {summary.final_periods_s[0]!r}",
        f"final_period_y = {summary.final_periods_s[1]!r}",
    ]
    for name in sorted(summary.task_stats):
        s = summary.task_stats[name]
        lines.append(
            f"{name}.released = {s.released}\n{name}.completed = {s.completed}\n"
            f"{name}.missed = {s.missed}\n{name}.preemptions = {s.preemptions}"
        )
    return "\n".join(lines) + "\n"


def write_lines(path: str, lines: Iterable[str], mkdir: str | None = None) -> None:
    """Write `lines`, each ending in a newline, to the UTF-8 file `path` as
    they come, after creating the directory `mkdir` if one is given; every
    output file goes through here. An OSError becomes an EmitError."""

    try:
        if mkdir:
            os.makedirs(mkdir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


def emit_traces(out_dir: str, result: ExperimentResult) -> tuple[str, str]:
    """Write trace.csv and summary.txt under `out_dir`; returns their paths."""

    trace_path = os.path.join(out_dir, "trace.csv")
    summary_path = os.path.join(out_dir, "summary.txt")
    write_lines(trace_path, trace_lines(result), mkdir=out_dir)
    write_lines(summary_path, [format_summary(result.summary)])
    return trace_path, summary_path
