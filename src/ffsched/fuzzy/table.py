"""Quantized controller output table: the paper's table, offline compilation, diffing.

The runtime scheduler never runs inference; it reads a 13x13 table indexed
by the quantized error pair.  The paper's table, `load_golden_table()`, is
the golden reference; `compile_lookup_table` rebuilds one from the rule base
and membership shapes for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OutOfRangeError, TableError
from .inference import defuzzify_centroid, infer
from .membership import INPUT_FAMILY, OUTPUT_FAMILY, fuzzify
from .quantization import ERROR_UNIVERSE, RESCALE_UNIVERSE, round_half_away
from .rules import DEFAULT_RULES


@dataclass(frozen=True)
class LookupTable:
    """13x13 grid of output levels, indexed [e + 6][ec + 6].

    Cells are non-increasing along each row and down each column: a larger
    utilization error (more spare CPU) never asks for a larger period
    stretch.  Violations are rejected at construction time.
    """

    cells: tuple[tuple[int, ...], ...]
    provenance: str  # "golden" or "compiled"

    def __post_init__(self):
        n = len(ERROR_UNIVERSE.levels)
        if len(self.cells) != n or any(len(row) != n for row in self.cells):
            raise TableError(f"table must be {n}x{n}")
        q = RESCALE_UNIVERSE.q_max
        for row in self.cells:
            for v in row:
                if not -q <= v <= q:
                    raise TableError(f"cell value {v} outside -{q}..{q}")
            if any(b > a for a, b in zip(row, row[1:])):
                raise TableError("rows must be non-increasing in ec")
        for col in zip(*self.cells):
            if any(b > a for a, b in zip(col, col[1:])):
                raise TableError("columns must be non-increasing in e")


# The paper's controller output table (rows e = -6..6, columns ec = -6..6);
# `__post_init__` checks it at import.
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
        raise OutOfRangeError(f"error level {e_q} outside -{q}..{q}")
    if not -q <= ec_q <= q:
        raise OutOfRangeError(f"delta level {ec_q} outside -{q}..{q}")
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
