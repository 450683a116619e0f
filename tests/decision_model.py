"""A model of `ffsched.experiment.run_experiment` that shares no machinery with it.

Written from the docstrings of `ffsched.rtsim` and `ffsched.experiment`, it
rebuilds a whole run in three phases, with no `Kernel`, no execution-time
source and no `normal_blocks`: it draws the run's seeded noise streams from
numpy Generators of its own, in blocks of another size:

1. Decisions, without dispatch. The scheduler task starts at each of its
   releases (it holds priority 1 and its cost is below its period), and the
   loops never feed back into the schedule, so every decision follows from
   the scenario and the seed. Each user task releases from 0 at the period
   in force; a period set at an invocation takes effect from the release
   after the one already pending, so a release on the invocation instant
   itself keeps the old period. A job runs for `sample_execution_time` of
   the mean in force at its release and its own value of the task's noise
   stream. An invocation measures the jobs released since the previous
   one, picks a factor and applies it to the control periods.
2. Dispatch. `reference_dispatch.dispatch` schedules every task's jobs, the
   scheduler's included.
3. Loops. Each axis's plant and PID run job by job with the `control.py`
   formulas, and each invocation reads both plant positions.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from types import SimpleNamespace

import numpy as np

from ffsched.control import ReferencePath, pid_compute, plant_step, reference_at, tracking_error
from ffsched.experiment import ExperimentResult, TraceRecord, summarize
from ffsched.rtsim import NS, TaskKind, TaskStats, measure_utilization, sample_execution_time
from ffsched.scenario import validate_scenario
from ffsched.schedulers import FuzzyFeedbackScheduler, apply_periods, ideal_eta
from reference_dispatch import dispatch

BLOCK = 100  # values drawn at a time; not the run's NOISE_BLOCK, so no output may depend on the block size
FINISH, RELEASE, READ = 0, 1, 2  # a control task's events, in their order on one instant


def blocks(seed: int, stream: int):
    """Noise stream `stream` of the run seeded `seed`, BLOCK values at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    while True:
        yield rng.standard_normal(BLOCK)


def exec_times(seed: int, stream: int, rel_std: float):
    """`time(mean_ns, job)`: the time of job `job` (from 0) of the task with
    noise stream `stream`, at the mean in force at its release. Each job
    spends value `job` of the stream; a block is converted once per mean."""
    values, drawn, converted = blocks(seed, stream), [], {}

    def time(mean_ns: int, job: int) -> int:
        b, i = divmod(job, BLOCK)
        while len(drawn) <= b:
            drawn.append(next(values))
        if (b, mean_ns) not in converted:
            converted[b, mean_ns] = sample_execution_time(mean_ns, drawn[b], rel_std)
        return converted[b, mean_ns][i]

    return time


def run_model(cfg, seed: int) -> tuple[ExperimentResult, dict[str, list[tuple[int, int]]]]:
    """The run of `cfg` at `seed`, and each task's `(release_ns, exec_ns)`
    jobs released up to the horizon, the horizon included."""

    horizon, h_min, h_max, specs = validate_scenario(cfg)
    *users, sched = specs
    mean_at = {s.name: s.exec_schedule.mean_at for s in specs}
    ctrl = [s.name for s in users if s.kind is TaskKind.CONTROL]
    loads = [s.name for s in users if s.kind is TaskKind.LOAD]
    x, y = ctrl
    time = {s.name: exec_times(seed, i, cfg.exec_std) for i, s in enumerate(users)}
    util_normals = chain.from_iterable(block.tolist() for block in blocks(seed, len(users)))

    # 1. decisions
    initial = {s.name: s.period_ns for s in users}
    period = dict(initial)  # in force, as the scheduler last set them
    pending = dict.fromkeys(period, 0)  # each user task's next release
    jobs = {s.name: [] for s in specs}
    cursor = dict.fromkeys(period, 0)  # each user task's first job not yet measured
    fuzzy = FuzzyFeedbackScheduler(target=cfg.target)
    decisions = []

    def release_until(t: int) -> None:
        for name in period:
            r, listed = pending[name], jobs[name]
            while r <= t:
                listed.append((r, time[name](mean_at[name](r), len(listed))))
                r += period[name]
            pending[name] = r

    # the first invocation, at 0, only starts the first window
    for t in range(sched.period_ns, horizon, sched.period_ns):
        release_until(t)  # the releases at t come before the scheduler's job
        samples = {}
        for name in period:
            listed = jobs[name]
            end = len(listed) - (listed[-1][0] == t)  # a release at t opens the next window
            samples[name] = [e for _, e in listed[cursor[name] : end]]
            cursor[name] = end
        u_meas, u_raw = measure_utilization(SimpleNamespace(samples=samples), period, util_normals, cfg.util_std)
        current = (period[x], period[y])
        if cfg.mode == "fuzzy":
            eta = fuzzy.step(u_meas)
        elif cfg.mode == "open":
            eta = 1.0
        else:
            true_means = tuple(float(mean_at[n](t)) for n in ctrl)
            u_others = sum(mean_at[n](t) / period[n] for n in loads)
            eta = ideal_eta(true_means, tuple(float(h) for h in current), u_others, cfg.target)
        period[x], period[y] = apply_periods(eta, current, h_min, h_max)
        decisions.append((t, u_meas, u_raw, eta, (period[x] / NS, period[y] / NS)))
    release_until(horizon)
    jobs[sched.name] = [(r, mean_at[sched.name](r)) for r in range(0, horizon + 1, sched.period_ns)]
    pending[sched.name] = jobs[sched.name][-1][0] + sched.period_ns

    # 2. dispatch
    _, completions, preemptions = dispatch(jobs, {s.name: s.priority for s in specs}, horizon)
    finishes = {name: [] for name in jobs}
    for c in completions:
        finishes[c.task].append(c.finish_ns)

    # 3. loops
    path, plant, gains = ReferencePath(duration=cfg.ref_duration_s), cfg.plant, cfg.pid
    reads = [(t, READ) for t, *_ in decisions]
    act = []
    for axis, name in enumerate(ctrl):
        position = velocity = command = integrator = deriv = 0.0
        clock, last_meas, latched, positions = 0, None, deque(), []
        prev_release = -initial[name]  # the first job's sampling interval is the initial period
        events = sorted([(f, FINISH) for f in finishes[name]] + [(r, RELEASE) for r, _ in jobs[name]] + reads)
        for t, kind in events:
            if t > clock:
                position, velocity = plant_step(position, velocity, command, (t - clock) / NS, plant)
                clock = t
            if kind == FINISH:  # the oldest latched sample is the completing job's
                ref, meas, spacing_s = latched.popleft()
                command, integrator, deriv = pid_compute(gains, spacing_s, integrator, deriv, last_meas, ref, meas)
                last_meas = meas
            elif kind == RELEASE:
                latched.append((reference_at(path, t / NS)[axis], position, (t - prev_release) / NS))
                prev_release = t
            else:
                positions.append(position)
        act.append(positions)

    records = []
    for (t, u_meas, u_raw, eta, periods_s), pos in zip(decisions, zip(*act)):
        ref = reference_at(path, t / NS)
        records.append(TraceRecord(t / NS, u_meas, u_raw, eta, periods_s, ref, pos, tracking_error(pos, ref)))
    stats = {}
    for name, listed in jobs.items():
        # a deadline is the release plus the period in force then: the next release
        deadlines = [r for r, _ in listed[1:]] + [pending[name]]
        missed = sum(f > d for f, d in zip(finishes[name], deadlines))
        stats[name] = TaskStats(len(listed), len(finishes[name]), missed, preemptions[name])
    result = ExperimentResult(tuple(ctrl), tuple(records), summarize(records, cfg, seed, task_stats=stats))
    return result, jobs
