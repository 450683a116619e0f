"""A fixed reference computation that measures how fast the host runs right now.

On a shared machine the host's speed drifts by tens of percent within
minutes, so raw seconds from one run are not comparable with the next. Each
sample times this computation next to its set-up and its CLI call, in the
same process, and run.py scales the end-to-end times by it.

It mimics the co-simulation's host profile: a release loop over a few
periodic tasks, a FIFO, scalar numpy normal draws, frozen dataclasses rebuilt
with `replace`, and `math` calls. It imports nothing from ffsched, so a
change to ffsched does not change it. Changing this file rescales every
end-to-end time; do not change it.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

REPS = 3  # runs timed after set-up, and again after the CLI call


@dataclass(frozen=True)
class _State:
    x: float = 0.0
    v: float = 0.0
    u: float = 0.0


def reference(n: int = 6000) -> float:
    rng = np.random.default_rng(12345)
    periods = {"a": 3000, "b": 4000, "c": 5000}
    next_release = dict.fromkeys(periods, 0)
    queue = deque()
    state = _State()
    acc = 0.0
    for _ in range(n):
        name = min(next_release, key=next_release.get)
        t = next_release[name]
        next_release[name] = t + periods[name]
        cost = max(1, int(round(800 * (1.0 + 0.1 * float(rng.standard_normal())))))
        queue.append((name, t, cost))
        if len(queue) > 8:
            name, t, cost = queue.popleft()
            ramp = -math.expm1(-2.0 * cost * 1e-6)
            state = replace(state, x=state.x + state.v * ramp, v=state.v * (1.0 - ramp) + state.u,
                            u=0.001 * math.cos(t * 1e-6))
            acc += math.hypot(state.x, state.v)
    return acc


def time_reference(samples: list[int]) -> None:
    """Append the host nanoseconds of REPS reference runs to `samples`."""

    for _ in range(REPS):
        start = time.perf_counter_ns()
        reference()
        samples.append(time.perf_counter_ns() - start)
