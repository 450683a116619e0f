"""Quantized controller output table: the paper's table, offline compilation, diffing.

The runtime scheduler never runs inference; it reads a 13x13 table indexed
by the quantized error pair.  The paper's table, `load_golden_table()`, is
the golden reference; `compile_lookup_table` rebuilds one from the rule base
and membership shapes for cross-checking.
"""

from __future__ import annotations

import math

from .frozen import Frozen


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties going away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


class QuantizedUniverse(Frozen):
    """Symmetric grid of integer levels -q_max..q_max over a real interval.

    The interval endpoints map onto the extreme levels, so `gain`, the
    levels per physical unit, converts a physical quantity into level units.
    The level count 2*q_max + 1 is odd by construction and level 0 sits at
    the interval centre.

    `gain` is computed once at construction and stored in a slot that is
    not a field (so `==`, `hash` and `repr` see only `q_max` and `span`, and
    `replace` computes it again). Every scheduler step quantizes through it,
    a slot load on CPython's specialised path.
    """

    _fields = ("q_max", "span")
    __slots__ = (*_fields, "gain")

    def __init__(self, q_max: int, span: tuple[float, float]):
        if q_max <= 0:
            raise ValueError("q_max must be positive")
        lo, hi = span
        if not hi > lo:
            raise ValueError("span must be a nonempty interval")
        # 2 * q_max / width rounds as q_max / (0.5 * width) does, and cannot
        # divide by zero when half a subnormal width rounds to 0
        self._set(q_max, span, gain=2 * q_max / (hi - lo))

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
            raise ValueError(f"level {x} outside universe -{self.q_max}..{self.q_max}")


# Utilization error and its increment share one input grid; the rescaling
# factor lives on a finer grid centred on 1.0.
ERROR_UNIVERSE = QuantizedUniverse(6, (-0.3, 0.3))
RESCALE_UNIVERSE = QuantizedUniverse(7, (0.5, 1.5))


class MembershipFamily(Frozen):
    """Triangular labels whose supports reach the neighbouring peaks.

    Adjacent labels overlap fully (memberships at any point sum to 1) and
    the outermost labels saturate outward, so no point of the universe is
    left uncovered.
    """

    __slots__ = _fields = ("universe", "labels", "peaks")

    def __init__(self, universe: QuantizedUniverse, labels: tuple[str, ...], peaks: tuple[int, ...]):
        if len(labels) != len(peaks):
            raise ValueError("one peak per label required")
        if len(labels) < 2:
            raise ValueError("a family needs at least two labels")
        if any(b <= a for a, b in zip(peaks, peaks[1:])):
            raise ValueError("peaks must be strictly ascending")
        q = universe.q_max
        if peaks[0] < -q or peaks[-1] > q:
            raise ValueError("peaks must lie inside the universe")
        self._set(universe, labels, peaks)

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
    Raises ValueError when it falls outside the universe; the result
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


class RuleBase(Frozen):
    """Complete rule matrix: one output label per (error, delta-error) pair,
    `matrix[error][delta]`."""

    __slots__ = _fields = ("error_labels", "delta_labels", "output_labels", "matrix")

    def __init__(
        self,
        error_labels: tuple[str, ...],
        delta_labels: tuple[str, ...],
        output_labels: tuple[str, ...],
        matrix: tuple[tuple[str, ...], ...],
    ):
        if len(matrix) != len(error_labels):
            raise ValueError("one matrix row per error label required")
        for row in matrix:
            if len(row) != len(delta_labels):
                raise ValueError("one matrix column per delta label required")
            for label in row:
                if label not in output_labels:
                    raise ValueError(f"unknown output label {label!r}")
        self._set(error_labels, delta_labels, output_labels, matrix)

    def consequent_index(self, error_index: int, delta_index: int) -> int:
        return self.output_labels.index(self.matrix[error_index][delta_index])


# Negative error means the CPU runs above target, so periods must grow fast;
# positive error (spare capacity) shrinks them cautiously.  The labels are the
# families' own, so a consequent's index is its index in OUTPUT_FAMILY (`infer`).
DEFAULT_RULES = RuleBase(
    error_labels=INPUT_FAMILY.labels,
    delta_labels=INPUT_FAMILY.labels,
    output_labels=OUTPUT_FAMILY.labels,
    matrix=(
        ("PB", "PB", "PB", "PB", "PM"),
        ("PB", "PB", "PM", "PS", "ZE"),
        ("PM", "PS", "ZE", "ZE", "NS"),
        ("PS", "ZE", "ZE", "NS", "NM"),
        ("ZE", "NS", "NM", "NB", "NB"),
    ),
)


def infer(
    mu_error: tuple[float, ...],
    mu_delta: tuple[float, ...],
    rules: RuleBase,
    out_family: MembershipFamily,
) -> tuple[float, ...]:
    """Aggregate the rule consequents into one output fuzzy set.

    Each rule fires at the minimum of its antecedent memberships, clips its
    consequent shape at that strength, and the clipped shapes combine by
    pointwise maximum over the output level grid.
    """
    if not any(m > 0 for m in mu_error) or not any(m > 0 for m in mu_delta):
        raise ValueError("membership vector has no support")
    levels = out_family.universe.levels
    agg = [0.0] * len(levels)
    for i, wi in enumerate(mu_error):
        if wi <= 0.0:
            continue
        for j, wj in enumerate(mu_delta):
            if wj <= 0.0:
                continue
            strength = min(wi, wj)  # AND = min
            k = rules.consequent_index(i, j)
            for n, level in enumerate(levels):
                clipped = min(strength, out_family.membership(k, level))
                if clipped > agg[n]:
                    agg[n] = clipped
    return tuple(agg)


def defuzzify_centroid(aggregate: tuple[float, ...], out_family: MembershipFamily) -> float:
    """Centre of gravity of the aggregate over the output levels."""
    total = sum(aggregate)
    if total <= 0.0:
        raise ValueError("aggregate has zero mass")
    weighted = sum(level * m for level, m in zip(out_family.universe.levels, aggregate))
    return weighted / total


class LookupTable(Frozen):
    """13x13 grid of output levels, indexed [e + 6][ec + 6].

    Cells are non-increasing along each row and down each column: a larger
    utilization error (more spare CPU) never asks for a larger period
    stretch.  Violations are rejected at construction time.
    """

    __slots__ = _fields = ("cells", "provenance")

    def __init__(self, cells: tuple[tuple[int, ...], ...], provenance: str):  # provenance: "golden" or "compiled"
        n = len(ERROR_UNIVERSE.levels)
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValueError(f"table must be {n}x{n}")
        q = RESCALE_UNIVERSE.q_max
        for row in cells:
            for v in row:
                if not -q <= v <= q:
                    raise ValueError(f"cell value {v} outside -{q}..{q}")
            if any(b > a for a, b in zip(row, row[1:])):
                raise ValueError("rows must be non-increasing in ec")
        for col in zip(*cells):
            if any(b > a for a, b in zip(col, col[1:])):
                raise ValueError("columns must be non-increasing in e")
        self._set(cells, provenance)


# The paper's controller output table (rows e = -6..6, columns ec = -6..6);
# `LookupTable` checks it at import.
_GOLDEN_TABLE = LookupTable(
    cells=(
        ( 6,  6,  6,  6,  6,  6,  6,  6,  6,  6,  5,  5,  5),
        ( 6,  6,  6,  6,  5,  5,  5,  4,  4,  4,  3,  3,  3),
        ( 6,  6,  6,  6,  5,  5,  5,  4,  3,  3,  2,  2,  2),
        ( 6,  6,  6,  6,  5,  5,  5,  4,  3,  2,  2,  1,  0),
        ( 5,  4,  4,  4,  3,  3,  3,  3,  2,  2,  1,  0, -1),
        ( 5,  4,  3,  3,  2,  2,  2,  2,  2,  1,  0,  0, -1),
        ( 5,  4,  3,  2,  2,  1,  0,  0,  0,  0, -1, -1, -2),
        ( 4,  3,  2,  2,  2,  1,  0, -1, -1, -1, -2, -2, -3),
        ( 3,  2,  2,  1,  1,  1,  0, -1, -1, -1, -2, -3, -4),
        ( 2,  2,  1,  0,  0,  0,  0, -1, -1, -2, -3, -4, -5),
        ( 2,  1,  0, -1, -2, -2, -2, -2, -2, -3, -3, -4, -5),
        ( 1,  0,  0, -1, -2, -3, -3, -3, -3, -4, -4, -4, -5),
        ( 0, -1, -1, -2, -3, -4, -5, -5, -5, -6, -6, -6, -6),
    ),
    provenance="golden",
)


def lookup(table: LookupTable, e_q: int, ec_q: int) -> int:
    """O(1) cell read; both indices must be quantized levels in -6..6."""
    q = ERROR_UNIVERSE.q_max
    if not -q <= e_q <= q:
        raise ValueError(f"error level {e_q} outside -{q}..{q}")
    if not -q <= ec_q <= q:
        raise ValueError(f"delta level {ec_q} outside -{q}..{q}")
    return table.cells[e_q + q][ec_q + q]


def compile_lookup_table() -> LookupTable:
    """Run the full inference chain over `DEFAULT_RULES` and the shipped
    membership families for every quantized input pair.

    Centroids are rounded half away from zero onto the output grid.
    """
    rows = []
    for e_q in ERROR_UNIVERSE.levels:
        mu_e = fuzzify(e_q, INPUT_FAMILY)
        row = []
        for ec_q in ERROR_UNIVERSE.levels:
            mu_ec = fuzzify(ec_q, INPUT_FAMILY)
            agg = infer(mu_e, mu_ec, DEFAULT_RULES, OUTPUT_FAMILY)
            row.append(round_half_away(defuzzify_centroid(agg, OUTPUT_FAMILY)))
        rows.append(tuple(row))
    return LookupTable(cells=tuple(rows), provenance="compiled")


def load_golden_table() -> LookupTable:
    """The paper's table; frozen with tuple cells, so every caller shares it."""
    return _GOLDEN_TABLE


def format_table(table: LookupTable) -> str:
    lines = [f"# provenance: {table.provenance}"]
    for row in table.cells:
        lines.append(" ".join(f"{v:3d}" for v in row))
    return "\n".join(lines) + "\n"


def diff_report(candidate: LookupTable, reference: LookupTable) -> str:
    """Full per-cell difference grid plus agreement statistics."""
    n = len(ERROR_UNIVERSE.levels)
    lines = [
        f"cell differences ({candidate.provenance} - {reference.provenance}),"
        " rows e=-6..6, columns ec=-6..6"
    ]
    max_abs = exact = within = 0
    for cand_row, ref_row in zip(candidate.cells, reference.cells):
        diffs = [c - r for c, r in zip(cand_row, ref_row)]
        max_abs = max(max_abs, max(abs(d) for d in diffs))
        exact += sum(d == 0 for d in diffs)
        within += sum(abs(d) <= 1 for d in diffs)
        lines.append(" ".join(f"{d:3d}" for d in diffs))
    lines.append(f"cells equal: {exact}/{n * n} ({exact / (n * n):.1%})")
    lines.append(f"cells within +/-1: {within}/{n * n} ({within / (n * n):.1%})")
    lines.append(f"max abs difference: {max_abs}")
    return "\n".join(lines) + "\n"
