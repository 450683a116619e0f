"""The run wiring that advanced plants and ran the PIDs from per-job kernel hooks.

A test-only reference for `ffsched.experiment.run_experiment`, which replays
the same control loops once per scheduler window from the kernel's window
timeline. Here the kernel calls back at every release (advance the plant,
latch the sample), at every job start (run the PID, or invoke the scheduler)
and at every completion (advance the plant, actuate), so the loops run in
step with the kernel. Both wirings must give identical trace records, and
as this wiring calls `plant_step`, `pid_compute` and `reference_at` from
`ffsched.control`, that also checks the replay's inlined plant and path
arithmetic against them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ffsched.control import (
    ReferencePath,
    pid_compute,
    plant_step,
    reference_at,
    tracking_error,
)
from ffsched.experiment import ExperimentResult, TraceRecord, summarize
from ffsched.rtsim import (
    NS,
    ExecDraws,
    Kernel,
    TaskKind,
    TaskSpec,
    measure_utilization,
    sample_execution_time,
)
from ffsched.scenario import SCHEDULER_TASK, ScenarioConfig, kernel_times
from ffsched.schedulers import FuzzyFeedbackScheduler, apply_periods, ideal_eta
from invariants import per_job


def run_with_job_hooks(cfg: ScenarioConfig, seed: int) -> ExperimentResult:
    """`run_experiment` with the loops driven by the kernel's job hooks."""

    if seed < 0:
        raise ValueError("seed must be non-negative")

    ctrl = cfg.control_tasks()
    ctrl_names: tuple[str, str] = (ctrl[0].name, ctrl[1].name)
    axis_of = {ctrl_names[0]: 0, ctrl_names[1]: 1}
    load_names = [t.name for t in cfg.tasks if t.kind is TaskKind.LOAD]
    horizon_ns, h_min_ns, h_max_ns, task_specs = kernel_times(cfg)
    specs = {spec.name: spec for spec in task_specs[:-1]}  # the user tasks; the scheduler comes last

    # callees looked up in this module's namespace once per run, so a
    # wrapper installed there before the run still sees every call
    sample = sample_execution_time
    reference = reference_at
    exec_std = cfg.exec_std

    # per user task, the draw of a private noise stream (untouched when
    # exec_std = 0); one more stream for the measurement, drawn a value at a
    # time. Each stream seeds its own Generator, so this wiring does not
    # share `rtsim.normal_blocks` with the run it checks.
    def stream(i: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([seed, i]))

    def blocks(rng: np.random.Generator):
        while True:
            yield rng.standard_normal(100)  # not NOISE_BLOCK: the times must not depend on the block size

    def scalars(rng: np.random.Generator):
        while True:
            yield float(rng.standard_normal())

    exec_draw = {t.name: ExecDraws(blocks(stream(i)), exec_std, sample).times for i, t in enumerate(cfg.tasks)}
    util_normals = scalars(stream(len(cfg.tasks)))

    def exec_time_of(spec: TaskSpec):
        """Every task's source, the scheduler's too: at each release it
        checks the mean the kernel found against a lookup of its own at the
        release and the job index against the task's releases so far, then
        draws that job's time alone (or, without noise, keeps the mean)."""
        draw = exec_draw.get(spec.name)  # None for the scheduler, whose cost is fixed by assumption
        mean_at = spec.exec_schedule.mean_at

        def exec_time(mean_ns: int, job: int) -> int:
            assert mean_ns == mean_at(kernel.now_ns), (spec.name, kernel.now_ns, mean_ns)
            assert job == kernel.stats(spec.name).released, (spec.name, kernel.now_ns, job)
            return next(draw(mean_ns, job)) if draw is not None and exec_std else mean_ns

        return per_job(exec_time)

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

    def schedule_step(t_inv_ns: int) -> None:
        if t_inv_ns == 0:  # the first invocation only starts the first window
            return
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
        periods_ns = apply_periods(eta, current, h_min_ns, h_max_ns)
        set_period(name_x, periods_ns[0])
        set_period(name_y, periods_ns[1])
        periods_now[name_x], periods_now[name_y] = periods_ns
        for axis in (0, 1):
            dt_ns = t_inv_ns - plant_clock[axis]
            if dt_ns > 0:
                position[axis], velocity[axis] = plant_step(
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
            position[axis], velocity[axis] = plant_step(
                position[axis], velocity[axis], command[axis], dt_ns / NS, plant
            )
        plant_clock[axis] = release_ns
        spacing_ns = release_ns - prev_release[axis]
        prev_release[axis] = release_ns
        t_s = release_ns / NS
        ref = ref_end[axis] if t_s >= ref_duration_s else reference(path, t_s)[axis]
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
        pending_u[axis], integrator[axis], deriv[axis] = pid_compute(
            gains, spacing_s, integrator[axis], deriv[axis], last_meas[axis], ref, meas
        )
        last_meas[axis] = meas

    def on_finish(rec) -> None:
        axis = axis_of.get(rec.task)
        if axis is None:
            return
        dt_ns = rec.finish_ns - plant_clock[axis]
        if dt_ns > 0:
            position[axis], velocity[axis] = plant_step(
                position[axis], velocity[axis], command[axis], dt_ns / NS, plant
            )
        plant_clock[axis] = rec.finish_ns
        command[axis] = pending_u[axis]

    kernel = Kernel(
        task_specs,
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
        task_stats={spec.name: kernel.stats(spec.name) for spec in task_specs},
    )
    return ExperimentResult(control_names=ctrl_names, records=tuple(records), summary=summary)
