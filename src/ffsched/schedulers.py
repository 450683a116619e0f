"""Period-rescaling policies that keep CPU utilization at a set point.

Three interchangeable policies drive the co-simulation. The fuzzy feedback
scheduler measures utilization and turns the error through a quantized
look-up table into a rescaling factor. The omniscient variant reads the true
mean execution times instead of measuring and solves for the factor exactly;
it upper-bounds what any feedback policy could do. The open loop keeps the
factor at 1 and serves as the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InfeasibleLoadError
from .fuzzy import ERROR_UNIVERSE, RESCALE_UNIVERSE, LookupTable, load_golden_table, lookup


def apply_periods(
    eta: float,
    periods_ns: tuple[int, ...],
    h_min_ns: int,
    h_max_ns: int,
) -> tuple[int, ...]:
    """Scale every period by `eta`, then clamp each into [h_min_ns, h_max_ns]."""

    if eta <= 0:
        raise ValueError("rescaling factor must be positive")
    if not 0 < h_min_ns <= h_max_ns:
        raise ValueError("need 0 < h_min_ns <= h_max_ns")
    new_periods = []
    for h in periods_ns:
        if h <= 0:
            raise ValueError("periods must be positive")
        new_periods.append(min(h_max_ns, max(h_min_ns, int(round(eta * h)))))
    return tuple(new_periods)


@dataclass
class FuzzyFeedbackScheduler:
    """Feedback scheduler built on the quantized fuzzy look-up table.

    Each step compares measured utilization against the target, quantizes the
    error and its increment onto 13 levels, reads the table, and maps the
    output level back to a rescaling factor around 1. The error memory makes
    this stateful; one instance serves one run.
    """

    target: float = 0.85
    table: LookupTable = field(default_factory=load_golden_table)
    prev_error: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("utilization target must lie strictly inside (0, 1)")

    def step(self, u_measured: float) -> float:
        """Consume one utilization measurement and return the rescaling factor."""

        error = self.target - u_measured
        delta = error - self.prev_error
        e_q = ERROR_UNIVERSE.quantize(error)
        ec_q = ERROR_UNIVERSE.quantize(delta)
        level = lookup(self.table, e_q, ec_q)
        self.prev_error = error
        # not RESCALE_UNIVERSE's centre + level / gain, which is 1 ulp lower at level -5
        return 1.0 + level * (1.0 / RESCALE_UNIVERSE.gain)


def ideal_eta(
    exec_means: tuple[float, ...],
    periods: tuple[float, ...],
    u_others: float,
    target: float = 0.85,
) -> float:
    """Rescaling factor that lands total utilization exactly on `target`.

    `exec_means` and `periods` describe the rescalable tasks (any consistent
    time unit); `u_others` is the utilization of everything that cannot be
    rescaled. Scaling every period by the returned factor makes
    u_others + sum(c / (eta * h)) equal `target` identically.
    """

    if len(exec_means) != len(periods) or not exec_means:
        raise ValueError("need matching, non-empty execution times and periods")
    if not 0.0 < target < 1.0:
        raise ValueError("utilization target must lie strictly inside (0, 1)")
    if u_others < 0:
        raise ValueError("u_others must be non-negative")
    if target <= u_others:
        raise InfeasibleLoadError(
            f"non-rescalable load {u_others:.4f} already meets or exceeds the target {target:.4f}"
        )
    u_ctrl = 0.0
    for c, h in zip(exec_means, periods):
        if c <= 0 or h <= 0:
            raise ValueError("execution times and periods must be positive")
        u_ctrl += c / h
    return u_ctrl / (target - u_others)
