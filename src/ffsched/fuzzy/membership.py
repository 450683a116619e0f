"""Piecewise-linear membership families over quantized universes."""

from __future__ import annotations

from dataclasses import dataclass

from .quantization import ERROR_UNIVERSE, RESCALE_UNIVERSE, QuantizedUniverse


@dataclass(frozen=True)
class MembershipFamily:
    """Triangular labels whose supports reach the neighbouring peaks.

    Adjacent labels overlap fully (memberships at any point sum to 1) and
    the outermost labels saturate outward, so no point of the universe is
    left uncovered.
    """

    universe: QuantizedUniverse
    labels: tuple[str, ...]
    peaks: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.peaks):
            raise ValueError("one peak per label required")
        if len(self.labels) < 2:
            raise ValueError("a family needs at least two labels")
        if any(b <= a for a, b in zip(self.peaks, self.peaks[1:])):
            raise ValueError("peaks must be strictly ascending")
        q = self.universe.q_max
        if self.peaks[0] < -q or self.peaks[-1] > q:
            raise ValueError("peaks must lie inside the universe")

    def membership(self, label_index: int, x: float) -> float:
        p = self.peaks[label_index]
        if x < p:
            if label_index == 0:
                return 1.0  # saturated shoulder below the lowest peak
            left = self.peaks[label_index - 1]
            return max(0.0, (x - left) / (p - left))
        if x > p:
            if label_index == len(self.peaks) - 1:
                return 1.0  # saturated shoulder above the highest peak
            right = self.peaks[label_index + 1]
            return max(0.0, (right - x) / (right - p))
        return 1.0


def fuzzify(x: float, family: MembershipFamily) -> tuple[float, ...]:
    """Degrees of membership of `x` in every label of the family.

    `x` is a (possibly fractional) position on the family's level grid.
    Raises OutOfRangeError when it falls outside the universe; the result
    always has at least one strictly positive entry.
    """
    family.universe.check(x)
    return tuple(family.membership(i, x) for i in range(len(family.labels)))


INPUT_FAMILY = MembershipFamily(
    ERROR_UNIVERSE,
    labels=("NB", "NS", "ZE", "PS", "PB"),
    peaks=(-6, -3, 0, 3, 6),
)

OUTPUT_FAMILY = MembershipFamily(
    RESCALE_UNIVERSE,
    labels=("NB", "NM", "NS", "ZE", "PS", "PM", "PB"),
    peaks=(-6, -4, -2, 0, 2, 4, 6),
)
