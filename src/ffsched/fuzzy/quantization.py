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

    The interval endpoints map onto the extreme levels, so `gain` converts
    a physical quantity into level units.  The level count 2*q_max + 1 is
    odd by construction and level 0 sits at the interval centre.
    """

    q_max: int
    span: tuple[float, float]

    def __post_init__(self):
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")
        lo, hi = self.span
        if not hi > lo:
            raise ValueError("span must be a nonempty interval")

    @property
    def levels(self) -> range:
        return range(-self.q_max, self.q_max + 1)

    @property
    def centre(self) -> float:
        lo, hi = self.span
        return 0.5 * (lo + hi)

    @property
    def gain(self) -> float:
        """Levels per physical unit."""
        lo, hi = self.span
        return self.q_max / (0.5 * (hi - lo))

    def quantize(self, x: float) -> int:
        """Scale `x` by `gain`, round half away from zero, and saturate to
        the outermost levels."""
        level = round_half_away(x * self.gain)
        return max(-self.q_max, min(self.q_max, level))

    def check(self, x: float) -> None:
        if not -self.q_max <= x <= self.q_max:
            raise OutOfRangeError(
                f"level {x} outside universe -{self.q_max}..{self.q_max}"
            )


# Utilization error and its increment share one input grid; the rescaling
# factor lives on a finer grid centred on 1.0.
ERROR_UNIVERSE = QuantizedUniverse(6, (-0.3, 0.3))
RESCALE_UNIVERSE = QuantizedUniverse(7, (0.5, 1.5))
