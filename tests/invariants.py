"""Randomized invariant checks shared by the unit and acceptance suites.

Each checker runs `cases` independent random trials and raises AssertionError
with context on the first violation; it returns the number of trials so
callers can assert the workload actually happened. The kernel checks read
the schedule off `reference_dispatch.dispatch` fed with the kernel's own job
stream, after holding the kernel's job records and preemption counts to it.
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
from ffsched.rtsim import ExecSchedule, Kernel, TaskKind, TaskSpec
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


class JobStreamKernel(Kernel):
    """A `Kernel` that keeps a copy of every job its window snapshots hand
    out. `job_stream()` takes a final snapshot and returns each task's
    `(release_ns, exec_ns)` pairs in release order, the input of
    `reference_dispatch.dispatch`."""

    def __init__(self, tasks, **kwargs):
        self._jobs = defaultdict(list)
        super().__init__(tasks, **kwargs)

    def window_snapshot(self, window_end_ns):
        window = super().window_snapshot(window_end_ns)
        for name, releases in window.releases.items():
            self._jobs[name] += zip(releases, window.samples[name])
        return window

    def job_stream(self) -> dict[str, list[tuple[int, int]]]:
        self.window_snapshot(ExecSchedule.FOREVER)
        return dict(self._jobs)


def check_rtsim_invariants(cases: int, seed: int = 3003) -> int:
    """Agreement with the reference dispatcher, work conservation, priority
    correctness and accounting on random task sets."""

    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n_tasks = int(rng.integers(2, 5))
        periods = [int(rng.integers(2, 21)) * MS for _ in range(n_tasks)]
        prios = [int(p) + 1 for p in rng.permutation(n_tasks)]
        specs = [
            TaskSpec(
                name=f"t{i}",
                kind=TaskKind.LOAD,
                priority=prios[i],
                period_ns=periods[i],
                exec_schedule=ExecSchedule.constant(max(1, int(periods[i] * rng.uniform(0.1, 0.6)))),
            )
            for i in range(n_tasks)
        ]
        horizon = int(rng.integers(20, 41)) * MS

        releases: dict[str, list[int]] = defaultdict(list)
        finishes: dict[str, list] = defaultdict(list)

        def exec_time_of(spec: TaskSpec):
            # every task's source draws one job's time at a time from the one
            # shared rng, at each release, in release order
            return per_job(lambda mean_ns, job: max(1, int(mean_ns * rng.uniform(0.3, 1.5))))

        kernel = JobStreamKernel(
            specs,
            exec_time_of=exec_time_of,
            on_job_release=lambda name, rel: releases[name].append(rel),
            on_job_finish=lambda rec: finishes[rec.task].append(rec),
        )
        # run in chunks with period changes in between to exercise re-perioding
        boundaries = sorted(int(rng.integers(1, horizon)) for _ in range(int(rng.integers(0, 3))))
        for b in boundaries:
            kernel.run(b)
            victim = specs[int(rng.integers(0, n_tasks))]
            kernel.set_period(victim.name, int(rng.integers(2, 21)) * MS)
        kernel.run(horizon)

        _verify_case(specs, kernel, releases, finishes, horizon)
    return cases


def _verify_case(specs, kernel, releases, finishes, horizon) -> None:
    """Checks one run of a `JobStreamKernel` up to `horizon`; `releases` and
    `finishes` hold what its release and finish hooks got, per task."""
    prio = {s.name: s.priority for s in specs}
    jobs = kernel.job_stream()
    segs, completions, preemptions = dispatch(jobs, prio, horizon)
    # the kernel dispatched its job stream as the reference does
    for s_ in specs:
        name = s_.name
        assert [release_ns for release_ns, _ in jobs[name]] == releases[name], name
        kernel_jobs = [(r.task, r.index, r.release_ns, r.exec_ns, r.start_ns, r.finish_ns) for r in finishes[name]]
        assert kernel_jobs == [c for c in completions if c.task == name], name
        assert kernel.stats(name).preemptions == preemptions[name], name

    for a, b in zip(segs, segs[1:]):
        assert a.end_ns <= b.start_ns, f"overlapping segments {a} {b}"
        assert a.start_ns < a.end_ns

    # every completed job got exactly its execution time, never before release
    by_job: dict[tuple[str, int], list] = defaultdict(list)
    for s in segs:
        by_job[(s.task, s.index)].append(s)
    for name, recs in finishes.items():
        for rec in recs:
            pieces = by_job[(name, rec.index)]
            assert sum(p.end_ns - p.start_ns for p in pieces) == rec.exec_ns, rec
            assert pieces[0].start_ns >= rec.release_ns
            assert pieces[-1].end_ns == rec.finish_ns

    # job table with finish horizon-capped for the unfinished
    jobs = []  # (name, release, finish, priority)
    finish_of = {(n, r.index): r.finish_ns for n, recs in finishes.items() for r in recs}
    for name, rels in releases.items():
        for idx, rel in enumerate(rels):
            jobs.append((name, rel, finish_of.get((name, idx), horizon), prio[name]))

    # priority correctness: no segment runs while a higher-priority job is pending
    for s in segs:
        for name, rel, fin, p in jobs:
            if p < prio[s.task] and rel < s.end_ns and fin > s.start_ns:
                raise AssertionError(f"{name} (prio {p}) pending during segment {s}")

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
        for name, rel, fin, _ in jobs:
            assert not (rel < g1 and fin > g0), f"{name} pending during idle [{g0}, {g1})"

    # accounting: hook counts, misses and preemptions all agree with stats()
    for s_ in specs:
        st = kernel.stats(s_.name)
        assert st.released == len(releases[s_.name])
        assert st.completed == len(finishes[s_.name])
        assert st.missed == sum(1 for r in finishes[s_.name] if r.finish_ns > r.deadline_ns)
        assert all(r.missed == (r.finish_ns > r.deadline_ns) for r in finishes[s_.name])
        # each non-contiguous split is a displacement, plus one more for a job
        # cut off unfinished before the horizon that never got the CPU back
        expected_preemptions = 0
        for (name, idx), pieces in by_job.items():
            if name != s_.name:
                continue
            expected_preemptions += len(pieces) - 1
            if (name, idx) not in finish_of and pieces[-1].end_ns < horizon:
                expected_preemptions += 1
        assert st.preemptions == expected_preemptions, s_.name
