"""A corpus of generated scenario texts, the same on every Python and library version.

`cases(n)` returns the first `n` cases, each a scenario text and a run seed,
drawn from one `random.Random(CORPUS_SEED)`; plain `random`, so the corpus
does not move with the Hypothesis version. A case varies what a run's
decisions and loops depend on:

- the mode, two control tasks and zero to two load tasks, with distinct
  priorities;
- one to three execution segments per task, their cut points on the
  scheduler's grid or off it;
- `exec_std` 0, 0.1 or 0.3 and `util_std` 0 or 0.1;
- scheduler period 10, 20 or 30 ms and target 0.6, 0.85 or 0.95;
- reference duration 0.5, 1 or 4 s;
- horizon 0.3 to 1 s, one case in eight up to 1.5 s, so that the summary's
  last-second mean sees more than one second;
- seed 1 to 5.

Periods lie on a 1 ms grid, so control releases fall on invocation
instants, and mean execution times on a 0.1 ms grid, so some jobs finish
exactly on their deadline, which is not a miss. Loads may ask for more than
an `ideal` target, which that mode refuses. Standard library only:
`tools/same_outputs.py` imports it.
"""

from __future__ import annotations

import random

CORPUS_SEED = 20081
MODES = ("fuzzy", "ideal", "open")


def _segments(rng: random.Random, period_s: float, fs_period_s: float, horizon_s: float) -> str:
    """A task's `exec` value: one mean, or two or three segments."""

    means = [round(period_s * rng.uniform(0.05, 0.45), 4) for _ in range(rng.randint(1, 3))]
    if len(means) == 1:
        return repr(means[0])
    cuts = set()
    while len(cuts) < len(means):  # the inner cut points, then the last segment's end
        if rng.random() < 0.5:
            cuts.add(round(fs_period_s * rng.randint(1, int(horizon_s / fs_period_s)), 6))
        else:
            cuts.add(round(rng.uniform(0.001, horizon_s), 4))
    ends = sorted(cuts)
    starts = [0, *ends[:-1]]
    return ", ".join(f"{a!r}-{b!r}: {m!r}" for a, b, m in zip(starts, ends, means))


def case(rng: random.Random) -> tuple[str, int]:
    """One scenario text and its run seed."""

    fs_period_s = rng.choice((0.01, 0.02, 0.03))
    horizon_s = round(rng.uniform(1.0, 1.5) if rng.random() < 0.125 else rng.uniform(0.3, 1.0), 3)
    lines = [
        "[run]",
        f"mode = {rng.choice(MODES)}",
        f"horizon = {horizon_s!r}",
        "[scheduler]",
        f"period = {fs_period_s!r}",
        f"target = {rng.choice((0.6, 0.85, 0.95))!r}",
        "[noise]",
        f"exec_std = {rng.choice((0, 0.1, 0.3))!r}",
        f"util_std = {rng.choice((0, 0.1))!r}",
        "[reference]",
        f"duration = {rng.choice((0.5, 1, 4))!r}",
    ]
    kinds = ["control", "control"] + ["load"] * rng.randint(0, 2)
    priorities = rng.sample(range(2, 8), len(kinds))
    for i, (kind, priority) in enumerate(zip(kinds, priorities)):
        period_s = rng.choice((0.002, 0.003, 0.004, 0.005, 0.006) if kind == "control" else (0.004, 0.005, 0.008, 0.01))
        lines += [
            f"[task t{i}]",
            f"kind = {kind}",
            f"priority = {priority}",
            f"period = {period_s!r}",
            f"exec = {_segments(rng, period_s, fs_period_s, horizon_s)}",
        ]
    return "\n".join(lines) + "\n", rng.randint(1, 5)


def cases(n: int) -> list[tuple[str, int]]:
    """The first `n` cases of the corpus."""

    rng = random.Random(CORPUS_SEED)
    return [case(rng) for _ in range(n)]
