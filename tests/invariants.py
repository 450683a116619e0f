"""Randomized invariant checks shared by the unit and acceptance suites.

Each checker runs `cases` independent random trials and raises AssertionError
with context on the first violation; it returns the number of trials so
callers can assert the workload actually happened. `check_dispatch` is the
one harness that holds a kernel's run to `reference_dispatch.dispatch`, on
job lists built from the task set and its period changes by `periodic_jobs`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import count, repeat

import numpy as np

from ffsched.control import PlantParams, ReferencePath, plant_step, reference_at
from ffsched.fuzzy import (
    DEFAULT_RULES,
    INPUT_FAMILY,
    OUTPUT_FAMILY,
    RuleBase,
    defuzzify_centroid,
    fuzzify,
    infer,
    load_golden_table,
)
from ffsched.rtsim import ExecSchedule, JobRecord, Kernel, TaskKind, TaskSpec
from ffsched.schedulers import FuzzyFeedbackScheduler
from reference_dispatch import dispatch

MS = 1_000_000

_IN_MIRROR = {"NB": "PB", "NS": "PS", "ZE": "ZE", "PS": "NS", "PB": "NB"}
_OUT_MIRROR = {"NB": "PB", "NM": "PM", "NS": "PS", "ZE": "ZE", "PS": "NS", "PM": "NM", "PB": "NB"}


def _mirrored_rules() -> RuleBase:
    n = len(DEFAULT_RULES.error_labels)
    matrix = tuple(
        tuple(_OUT_MIRROR[DEFAULT_RULES.matrix[n - 1 - i][n - 1 - j]] for j in range(n))
        for i in range(n)
    )
    return RuleBase(
        error_labels=DEFAULT_RULES.error_labels,
        delta_labels=DEFAULT_RULES.delta_labels,
        output_labels=DEFAULT_RULES.output_labels,
        matrix=matrix,
    )


def check_fuzzy_invariants(cases: int, seed: int = 1001) -> int:
    """Range, point-symmetry and centroid-boundedness of the inference engine."""

    rng = np.random.default_rng(seed)
    mirrored = _mirrored_rules()
    table = load_golden_table()
    for cell_row in table.cells:
        for q in cell_row:
            assert -7 <= q <= 7
    scheduler = FuzzyFeedbackScheduler()
    for _ in range(cases):
        x_e = float(rng.uniform(-6, 6))
        x_ec = float(rng.uniform(-6, 6))
        mu_e, mu_ec = fuzzify(x_e, INPUT_FAMILY), fuzzify(x_ec, INPUT_FAMILY)
        agg = infer(mu_e, mu_ec, DEFAULT_RULES, OUTPUT_FAMILY)
        centroid = defuzzify_centroid(agg, OUTPUT_FAMILY)
        support = [lvl for lvl, m in zip(OUTPUT_FAMILY.universe.levels, agg) if m > 0]
        assert support, "aggregate must have support for in-range inputs"
        assert min(support) <= centroid <= max(support), (x_e, x_ec, centroid)
        assert -7.0 <= centroid <= 7.0

        mu_e_m, mu_ec_m = fuzzify(-x_e, INPUT_FAMILY), fuzzify(-x_ec, INPUT_FAMILY)
        mirrored_centroid = defuzzify_centroid(infer(mu_e_m, mu_ec_m, mirrored, OUTPUT_FAMILY), OUTPUT_FAMILY)
        assert abs(centroid + mirrored_centroid) <= 1e-12, (x_e, x_ec, centroid, mirrored_centroid)

        u = float(rng.uniform(0.0, 1.0))
        scheduler.prev_error = float(rng.uniform(-1.0, 1.0))
        eta = scheduler.step(u)
        assert 0.5 <= eta <= 1.5, (u, eta)
    return cases


def check_control_invariants(cases: int, seed: int = 2002) -> int:
    """Exact-discretization semigroup property and reference-circle residual."""

    rng = np.random.default_rng(seed)
    path = ReferencePath()
    cx, cy = path.centre
    params = PlantParams()
    for _ in range(cases):
        state = (float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3)))
        u = float(rng.uniform(-2.0, 2.0))
        dt = float(10.0 ** rng.uniform(-5, -0.3))
        frac = float(rng.uniform(0.05, 0.95))
        one = plant_step(*state, u, dt, params)
        two = plant_step(*plant_step(*state, u, frac * dt, params), u, (1.0 - frac) * dt, params)
        scale = max(1.0, abs(one[0]), abs(one[1]))
        assert abs(one[0] - two[0]) <= 1e-12 * scale, (state, u, dt)
        assert abs(one[1] - two[1]) <= 1e-12 * scale, (state, u, dt)

        t = float(rng.uniform(-2.0, 6.0))
        x, y = reference_at(path, t)
        residual = abs(math.hypot(x - cx, y - cy) - path.radius)
        assert residual <= 1e-12, (t, residual)
        assert y >= -1e-15, "reference never dips below the baseline"
    return cases


def per_job(time_of):
    """An execution-time source that calls `time_of(mean_ns, job)` for each
    job as the kernel releases it, so a test sees every release."""
    return lambda mean_ns, job: map(time_of, repeat(mean_ns), count(job))


def span_entries(schedule: ExecSchedule, releases) -> list[int]:
    """The releases that enter a span other than the previous release's,
    where the spans are each segment and all of t >= the final segment end,
    found by a linear scan; releases are never negative."""

    def span_of(t_ns):
        for k, (start, end, _) in enumerate(schedule.segments):
            if start <= t_ns < end:
                return k
        return len(schedule.segments)

    entries, last = [], None
    for t_ns in releases:
        span = span_of(t_ns)
        if span != last:
            entries.append(t_ns)
            last = span
    return entries


def check_rtsim_invariants(cases: int, seed: int = 3003) -> int:
    """`check_dispatch` on random task sets, each run in chunks with up to
    two period changes between them."""

    rng = np.random.default_rng(seed)
    for case in range(cases):
        n_tasks = int(rng.integers(2, 5))
        periods = [int(rng.integers(2, 21)) * MS for _ in range(n_tasks)]
        prios = [int(p) + 1 for p in rng.permutation(n_tasks)]
        means = [max(1, int(period * rng.uniform(0.1, 0.6))) for period in periods]
        specs = [
            TaskSpec(f"t{i}", TaskKind.LOAD, prios[i], periods[i], ExecSchedule.constant(means[i]))
            for i in range(n_tasks)
        ]
        horizon = int(rng.integers(20, 41)) * MS
        jobs = horizon // (2 * MS) + 1  # the most any task releases, at the shortest period
        times = {f"t{i}": [max(1, int(mean * u)) for u in rng.uniform(0.3, 1.5, jobs)] for i, mean in enumerate(means)}
        boundaries = sorted(int(rng.integers(1, horizon)) for _ in range(int(rng.integers(0, 3))))
        changes = [(b, specs[int(rng.integers(0, n_tasks))].name, int(rng.integers(2, 21)) * MS) for b in boundaries]
        records, kernel = run_chunked(specs, times, changes, horizon)
        check_dispatch(specs, records, kernel, times, changes, horizon, where=f"case {case}")
    return cases


def periodic_jobs(period_ns, changes, horizon_ns):
    """The release instants up to the horizon of a task first run at
    `period_ns`, with each job's deadline; `changes` are the task's
    `(boundary_ns, period_ns)` period changes, each made after a run to its
    boundary, in call order. A change reaches the releases after the
    boundary, so the release it falls after keeps the old period, and its
    successor stays put."""
    releases, deadlines = [], []
    t = 0
    while t <= horizon_ns:
        period = period_ns
        for boundary, new_period in changes:
            if boundary < t:
                period = new_period
        releases.append(t)
        deadlines.append(t + period)
        t += period
    return releases, deadlines


def run_chunked(specs, times, changes, horizon):
    """A `Kernel` in which task `name` runs job k for `times[name][k]`, run
    to each `(boundary_ns, task, period_ns)` change in turn, re-perioded
    there, then to `horizon`. Returns the `JobRecord`s its finish hook got,
    in completion order, and the kernel."""
    records = []
    kernel = Kernel(
        specs, exec_time_of=lambda spec: lambda mean_ns, job: times[spec.name][job:], on_job_finish=records.append
    )
    for boundary, name, period_ns in changes:
        kernel.run(boundary)
        kernel.set_period(name, period_ns)
    kernel.run(horizon)
    return records, kernel


def check_dispatch(specs, records, kernel, times, changes, horizon, where=""):
    """Holds a kernel's run of `specs` to `horizon` to the reference
    dispatcher: `records` are its finish hook's `JobRecord`s in completion
    order, task `name` ran job k for `times[name][k]`, and `changes` are the
    run's `(boundary_ns, task, period_ns)` period changes in call order, each
    made at its boundary. Release instants and deadlines come from
    `periodic_jobs`, never from the kernel. The records and every
    `TaskStats` count must equal the reference's, and the reference's own
    schedule must keep the invariants: no overlap, exact execution times,
    priority order, work conservation and preemption accounting. `where`
    prefixes each failure message."""

    prio = {spec.name: spec.priority for spec in specs}
    jobs, deadlines = {}, {}
    for spec in specs:
        task_changes = [(b, p) for b, name, p in changes if name == spec.name]
        releases, deadlines[spec.name] = periodic_jobs(spec.period_ns, task_changes, horizon)
        assert len(times[spec.name]) >= len(releases), f"{where}: task {spec.name} has too few execution times"
        jobs[spec.name] = list(zip(releases, times[spec.name]))
    segs, completions, preemptions = dispatch(jobs, prio, horizon)
    expected = [
        JobRecord(task, index, release, deadlines[task][index], exec_ns, start, finish, finish > deadlines[task][index])
        for task, index, release, exec_ns, start, finish in completions
    ]
    first = next((i for i, (a, b) in enumerate(zip(records, expected)) if a != b), min(len(records), len(expected)))
    assert records == expected, f"{where}: record {first}: {records[first:first + 1]} != {expected[first:first + 1]}"
    for spec in specs:
        mine = [r for r in expected if r.task == spec.name]
        counts = (len(jobs[spec.name]), len(mine), sum(r.missed for r in mine), preemptions[spec.name])
        assert kernel.stats(spec.name) == counts, f"{where}, task {spec.name}"

    for a, b in zip(segs, segs[1:]):
        assert a.start_ns < a.end_ns <= b.start_ns, f"{where}: overlapping segments {a} {b}"

    # every completed job got exactly its execution time, never before release
    by_job: dict[tuple[str, int], list] = defaultdict(list)
    for s in segs:
        by_job[(s.task, s.index)].append(s)
    for c in completions:
        pieces = by_job[(c.task, c.index)]
        assert sum(p.end_ns - p.start_ns for p in pieces) == c.exec_ns, f"{where}: {c}"
        assert c.release_ns <= pieces[0].start_ns == c.start_ns, f"{where}: {c}"
        assert pieces[-1].end_ns == c.finish_ns, f"{where}: {c}"

    # each job's pending interval, the unfinished ones' capped at the horizon
    finish_of = {(c.task, c.index): c.finish_ns for c in completions}
    pending = [
        (name, release, finish_of.get((name, k), horizon), prio[name])
        for name, task_jobs in jobs.items()
        for k, (release, _) in enumerate(task_jobs)
    ]

    # priority order: no segment runs while a higher-priority job is pending
    for s in segs:
        for name, rel, fin, p in pending:
            if p < prio[s.task] and rel < s.end_ns and fin > s.start_ns:
                raise AssertionError(f"{where}: {name} (prio {p}) pending during segment {s}")

    # work conservation: the CPU is idle only when nothing is pending
    gaps = []
    cursor = 0
    for s in segs:
        if s.start_ns > cursor:
            gaps.append((cursor, s.start_ns))
        cursor = max(cursor, s.end_ns)
    if cursor < horizon:
        gaps.append((cursor, horizon))
    for g0, g1 in gaps:
        for name, rel, fin, _ in pending:
            assert not (rel < g1 and fin > g0), f"{where}: {name} pending during idle [{g0}, {g1})"

    # each non-contiguous split is a displacement, plus one more for a job
    # cut off unfinished before the horizon that never got the CPU back
    displaced = dict.fromkeys(prio, 0)
    for (name, k), pieces in by_job.items():
        displaced[name] += len(pieces) - 1 + ((name, k) not in finish_of and pieces[-1].end_ns < horizon)
    assert displaced == preemptions, f"{where}: {displaced} != {preemptions}"
