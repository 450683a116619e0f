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

Every invocation appends one trace record, stamped at the invocation instant
with the measurement, the factor, the periods just applied and both the
reference and actual positions. Runs with equal configuration and seed
produce byte-identical traces.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from statistics import fmean
from typing import Mapping, NamedTuple

import numpy as np

from .control import (
    ReferencePath,
    pid_compute,  # noqa: F401  (kept in this namespace for benchmark/tracing.py)
    pid_update,
    plant_advance,
    plant_step,  # noqa: F401  (kept in this namespace for benchmark/tracing.py)
    reference_at,
    reference_coordinate,
    tracking_error,
)
from .errors import EmitError, ScenarioSemanticError
from .rtsim import (
    NS,
    ExecDraws,
    ExecSchedule,
    Kernel,
    TaskKind,
    TaskSpec,
    TaskStats,
    measure_utilization,
    sample_execution_time,
    seconds_to_ns,
)
from .scenario import SCHEDULER_TASK, ScenarioConfig
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


@dataclass(frozen=True)
class RunSummary:
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


@dataclass(frozen=True)
class ExperimentResult:
    control_names: tuple[str, str]
    records: tuple[TraceRecord, ...]
    summary: RunSummary


def run_experiment(cfg: ScenarioConfig, seed: int) -> ExperimentResult:
    """Simulate one scenario to its horizon and return trace plus summary.

    The per-axis loop state lives in plain lists local to this call, indexed
    by axis (0 = x, 1 = y): plant position, velocity and held command, the
    instant the plant was last advanced to, the PID integrator, filtered
    derivative and last measurement, the command computed but not yet
    actuated, and the FIFO of samples latched at release. The kernel hooks
    below update them in place, calling the float-level formulas of
    `plant_advance` and `pid_update`.
    """

    if seed < 0:
        raise ValueError("seed must be non-negative")

    ctrl = cfg.control_tasks()
    ctrl_names: tuple[str, str] = (ctrl[0].name, ctrl[1].name)
    axis_of = {ctrl_names[0]: 0, ctrl_names[1]: 1}
    load_names = [t.name for t in cfg.tasks if t.kind is TaskKind.LOAD]
    h_min_ns, h_max_ns = seconds_to_ns(cfg.h_min_s), seconds_to_ns(cfg.h_max_s)
    horizon_ns = seconds_to_ns(cfg.horizon_s)

    specs = {t.name: _spec_of(t) for t in cfg.tasks}
    fs_exec_ns = seconds_to_ns(cfg.fs_exec_s)
    fs_spec = TaskSpec(
        name=SCHEDULER_TASK,
        kind=TaskKind.SCHEDULER,
        priority=1,
        period_ns=seconds_to_ns(cfg.fs_period_s),
        exec_schedule=ExecSchedule.constant(fs_exec_ns),
    )

    # callees looked up in this module's namespace once per run, so a
    # wrapper installed there before the run still sees every call
    sample = sample_execution_time
    reference = reference_at
    exec_std = cfg.exec_std

    # per user task, its mean execution time and the draw of a private noise
    # stream (untouched when exec_std = 0); one more stream for the measurement
    exec_draw = {
        t.name: (
            specs[t.name].exec_schedule.mean_at,
            ExecDraws(np.random.default_rng(np.random.SeedSequence([seed, i])), exec_std, sample).draw,
        )
        for i, t in enumerate(cfg.tasks)
    }
    util_rng = np.random.default_rng(np.random.SeedSequence([seed, len(cfg.tasks)]))

    def exec_time_of(spec: TaskSpec, release_ns: int) -> int:
        draw = exec_draw.get(spec.name)
        if draw is None:
            return fs_exec_ns  # the scheduler's own cost is fixed by assumption
        mean_at, draw_exec = draw
        return draw_exec(mean_at(release_ns)) if exec_std else mean_at(release_ns)

    path = ReferencePath(duration=cfg.ref_duration_s)
    # the path holds its end point from `duration` on; compared in float
    # seconds, because the duration rounded to ns may fall below it
    ref_end = reference(path, path.duration)
    ref_duration_s = path.duration
    plant, gains = cfg.plant, cfg.pid
    position = [0.0, 0.0]
    velocity = [0.0, 0.0]
    command = [0.0, 0.0]
    plant_clock = [0, 0]
    integrator = [0.0, 0.0]
    deriv = [0.0, 0.0]
    last_meas: list[float | None] = [None, None]
    pending_u = [0.0, 0.0]
    latched: list[deque[tuple[float, float, float]]] = [deque(), deque()]
    # the release before each axis's first one lies one initial period back,
    # so the first job's sampling interval is that period
    prev_release = [-specs[name].period_ns for name in ctrl_names]

    fuzzy = FuzzyFeedbackScheduler(target=cfg.target)
    mode, util_std = cfg.mode, cfg.util_std
    name_x, name_y = ctrl_names
    records: list[TraceRecord] = []
    # user task periods in `specs` order, kept in step with the kernel below
    periods_now = {name: spec.period_ns for name, spec in specs.items()}
    warmed_up = False  # the very first invocation only starts the first window

    def schedule_step(t_inv_ns: int) -> None:
        nonlocal warmed_up
        if not warmed_up:
            warmed_up = True
            return
        window = kernel.window_snapshot(t_inv_ns)
        u_meas, u_raw = measure_utilization(window, periods_now, util_rng, util_std)
        current = (periods_now[name_x], periods_now[name_y])
        if mode == "fuzzy":
            eta = fuzzy.step(u_meas)
        elif mode == "open":
            eta = 1.0
        else:
            true_means = tuple(float(specs[name].exec_schedule.mean_at(t_inv_ns)) for name in ctrl_names)
            u_others = sum(specs[name].exec_schedule.mean_at(t_inv_ns) / periods_now[name] for name in load_names)
            eta = ideal_eta(true_means, tuple(float(h) for h in current), u_others, cfg.target)
        periods_ns = apply_periods(eta, current, h_min_ns, h_max_ns)
        set_period(name_x, periods_ns[0])
        set_period(name_y, periods_ns[1])
        periods_now[name_x], periods_now[name_y] = periods_ns
        for axis in (0, 1):
            dt_ns = t_inv_ns - plant_clock[axis]
            if dt_ns > 0:
                position[axis], velocity[axis] = plant_advance(
                    position[axis], velocity[axis], command[axis], dt_ns / NS, plant
                )
            plant_clock[axis] = t_inv_ns
        t_s = t_inv_ns / NS
        ref = ref_end if t_s >= ref_duration_s else reference(path, t_s)
        act = (position[0], position[1])
        records.append(
            TraceRecord(
                t_s, u_meas, u_raw, eta, (periods_ns[0] / NS, periods_ns[1] / NS), ref, act, tracking_error(act, ref)
            )
        )

    def on_release(name: str, release_ns: int) -> None:
        axis = axis_of.get(name)
        if axis is None:
            return
        dt_ns = release_ns - plant_clock[axis]
        if dt_ns > 0:
            position[axis], velocity[axis] = plant_advance(
                position[axis], velocity[axis], command[axis], dt_ns / NS, plant
            )
        plant_clock[axis] = release_ns
        spacing_ns = release_ns - prev_release[axis]
        prev_release[axis] = release_ns
        t_s = release_ns / NS
        ref = ref_end[axis] if t_s >= ref_duration_s else reference_coordinate(path, t_s, axis)
        latched[axis].append((ref, position[axis], spacing_ns / NS))

    def on_start(name: str, release_ns: int, start_ns: int) -> None:
        if name == SCHEDULER_TASK:
            schedule_step(start_ns)
            return
        axis = axis_of.get(name)
        if axis is None:
            return
        # consume the sample latched at this job's release (queues are FIFO,
        # so under backlog the computation runs on proportionally stale data)
        ref, meas, spacing_s = latched[axis].popleft()
        pending_u[axis], integrator[axis], deriv[axis] = pid_update(
            gains, spacing_s, integrator[axis], deriv[axis], last_meas[axis], ref, meas
        )
        last_meas[axis] = meas

    def on_finish(rec) -> None:
        axis = axis_of.get(rec.task)
        if axis is None:
            return
        dt_ns = rec.finish_ns - plant_clock[axis]
        if dt_ns > 0:
            position[axis], velocity[axis] = plant_advance(
                position[axis], velocity[axis], command[axis], dt_ns / NS, plant
            )
        plant_clock[axis] = rec.finish_ns
        command[axis] = pending_u[axis]

    kernel = Kernel(
        list(specs.values()) + [fs_spec],
        exec_time_of=exec_time_of,
        on_job_release=on_release,
        on_job_start=on_start,
        on_job_finish=on_finish,
    )
    set_period = kernel.set_period
    kernel.run(horizon_ns)

    summary = summarize(
        records,
        cfg,
        seed,
        task_stats={name: kernel.stats(name) for name in [*specs, SCHEDULER_TASK]},
    )
    return ExperimentResult(control_names=ctrl_names, records=tuple(records), summary=summary)


def _spec_of(task) -> TaskSpec:
    segments = []
    for start_s, end_s, mean_s in task.exec_segments:
        end_ns = ExecSchedule.FOREVER if math.isinf(end_s) else seconds_to_ns(end_s)
        segments.append((seconds_to_ns(start_s), end_ns, seconds_to_ns(mean_s)))
    return TaskSpec(
        name=task.name,
        kind=task.kind,
        priority=task.priority,
        period_ns=seconds_to_ns(task.period_s),
        exec_schedule=ExecSchedule(tuple(segments)),
    )


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
        mean_err = fmean(errs)
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
        mean_utilization=fmean(r.u_meas for r in records),
        mean_utilization_final=fmean(finals),
        final_periods_s=records[-1].periods_s,
        task_stats=dict(task_stats),
    )


def trace_header(control_names: tuple[str, str]) -> str:
    a, b = control_names
    return f"t,u_meas,u_raw,eta,h_{a},h_{b},x_ref,y_ref,x_act,y_act,err"


def format_trace_csv(result: ExperimentResult) -> str:
    lines = [trace_header(result.control_names)]
    for t_s, u_meas, u_raw, eta, (h_x, h_y), (x_ref, y_ref), (x_act, y_act), err in result.records:
        lines.append(
            f"{t_s!r},{u_meas!r},{u_raw!r},{eta!r},{h_x!r},{h_y!r},{x_ref!r},{y_ref!r},{x_act!r},{y_act!r},{err!r}"
        )
    return "\n".join(lines) + "\n"


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


def emit_traces(out_dir: str, result: ExperimentResult) -> tuple[str, str]:
    """Write trace.csv and summary.txt under `out_dir`; returns their paths."""

    try:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace.csv")
        summary_path = os.path.join(out_dir, "summary.txt")
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_trace_csv(result))
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_summary(result.summary))
    except OSError as exc:
        raise EmitError(f"cannot write traces under {out_dir}: {exc}") from exc
    return trace_path, summary_path
