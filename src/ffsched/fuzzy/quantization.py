"""Integer level grids that map fuzzy variables onto real intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import OutOfRangeError


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties going away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class QuantizedUniverse:
    """Symmetric grid of integer levels -q_max..q_max over a real interval.

    The interval endpoints map onto the extreme levels, so `gain`, the
    levels per physical unit, converts a physical quantity into level units.
    The level count 2*q_max + 1 is odd by construction and level 0 sits at
    the interval centre.

    `gain` is computed once at construction and stored as a plain
    attribute, not a field (so `==`, `hash`, `repr` and
    `dataclasses.replace` see only `q_max` and `span`). Every scheduler step
    quantizes through it; a lazily cached value would create the instance
    `__dict__`, which takes every attribute load on the instance off
    CPython's specialised path.
    """

    q_max: int
    span: tuple[float, float]

    def __post_init__(self):
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")
        lo, hi = self.span
        if not hi > lo:
            raise ValueError("span must be a nonempty interval")
        # 2 * q_max / width rounds as q_max / (0.5 * width) does, and cannot
        # divide by zero when half a subnormal width rounds to 0
        object.__setattr__(self, "gain", 2 * self.q_max / (hi - lo))

    @property
    def levels(self) -> range:
        return range(-self.q_max, self.q_max + 1)

    def quantize(self, x: float) -> int:
        """Scale `x` by `gain`, round half away from zero, and saturate to
        the outermost levels."""
        level = round_half_away(x * self.gain)
        q_max = self.q_max
        return -q_max if level < -q_max else q_max if level > q_max else level

    def check(self, x: float) -> None:
        if not -self.q_max <= x <= self.q_max:
            raise OutOfRangeError(
                f"level {x} outside universe -{self.q_max}..{self.q_max}"
            )


# Utilization error and its increment share one input grid; the rescaling
# factor lives on a finer grid centred on 1.0.
ERROR_UNIVERSE = QuantizedUniverse(6, (-0.3, 0.3))
RESCALE_UNIVERSE = QuantizedUniverse(7, (0.5, 1.5))
