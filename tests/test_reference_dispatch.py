"""The kernel against the reference dispatcher on a grid of ties.

Periods are whole milliseconds and execution times multiples of 0.5 ms, so
completions, releases and deadlines often fall on one instant; some times
are off the grid by 1 ns, on either side of such a tie. The execution
times are drawn here and the release instants and deadlines worked out by
`invariants.periodic_jobs` from the task set and its period changes, not
read back from the kernel.
"""

import numpy as np

from ffsched.rtsim import ExecSchedule, TaskKind, TaskSpec
from invariants import check_dispatch, run_chunked

MS = 1_000_000
CASES = 1000


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
        records, kernel = run_chunked(specs, times, changes, horizon)
        check_dispatch(specs, records, kernel, times, changes, horizon, where=f"case {seed}")
