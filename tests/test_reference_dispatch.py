"""The kernel against the reference dispatcher on a grid of ties.

Periods are whole milliseconds and execution times multiples of 0.5 ms, so
completions, releases and deadlines often fall on one instant; some times
are off the grid by 1 ns, on either side of such a tie. Release instants,
deadlines and execution times are worked out here from the task set and
its period changes, not read back from the kernel.
"""

import numpy as np

from ffsched.rtsim import ExecSchedule, JobRecord, Kernel, TaskKind, TaskSpec
from reference_dispatch import dispatch

MS = 1_000_000
CASES = 1000


def _releases(period_ns, changes, horizon_ns):
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


def _case(seed):
    """A task set, its execution times and a chunked run of it: the specs,
    each task's times by job index, the horizon and the `(boundary_ns, task,
    period_ns)` period changes in call order."""
    rng = np.random.default_rng(seed)
    n_tasks = int(rng.integers(1, 6))
    prios = [int(p) + 1 for p in rng.permutation(n_tasks)]
    specs = [
        TaskSpec(f"t{i}", TaskKind.LOAD, prios[i], int(rng.integers(2, 13)) * MS, ExecSchedule.constant(MS))
        for i in range(n_tasks)
    ]
    horizon = int(rng.integers(20, 61)) * MS
    jobs = horizon // (2 * MS) + 1  # the most any task releases, at the shortest period
    times = {
        spec.name: [
            int(k) * MS // 2 + int(jitter)
            for k, jitter in zip(rng.integers(1, 8, jobs), rng.choice([0, 0, 0, 0, -1, 1], jobs))
        ]
        for spec in specs
    }
    boundaries = sorted(int(rng.integers(1, 2 * horizon // MS)) * MS // 2 for _ in range(int(rng.integers(0, 3))))
    changes = [(b, specs[int(rng.integers(0, n_tasks))].name, int(rng.integers(2, 13)) * MS) for b in boundaries]
    return specs, times, horizon, changes


def test_kernel_dispatches_as_the_reference_on_the_tie_grid():
    for seed in range(CASES):
        specs, times, horizon, changes = _case(seed)
        records = []
        kernel = Kernel(
            specs,
            exec_time_of=lambda spec: lambda mean_ns, job: times[spec.name][job:],
            on_job_finish=records.append,
        )
        for boundary, name, period_ns in changes:
            kernel.run(boundary)
            kernel.set_period(name, period_ns)
        kernel.run(horizon)

        jobs, deadlines = {}, {}
        for spec in specs:
            task_changes = [(b, p) for b, name, p in changes if name == spec.name]
            releases, deadlines[spec.name] = _releases(spec.period_ns, task_changes, horizon)
            jobs[spec.name] = list(zip(releases, times[spec.name]))
        _, completions, preemptions = dispatch(jobs, {spec.name: spec.priority for spec in specs}, horizon)
        expected = [
            JobRecord(task, index, release, deadlines[task][index], exec_ns, start, finish, finish > deadlines[task][index])
            for task, index, release, exec_ns, start, finish in completions
        ]
        assert records == expected, f"case {seed}"
        for spec in specs:
            mine = [r for r in expected if r.task == spec.name]
            stats = kernel.stats(spec.name)
            assert stats.released == len(jobs[spec.name]), f"case {seed}"
            assert (stats.completed, stats.missed, stats.preemptions) == (
                len(mine),
                sum(r.missed for r in mine),
                preemptions[spec.name],
            ), f"case {seed}, task {spec.name}"
