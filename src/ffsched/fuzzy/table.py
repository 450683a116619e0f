"""Quantized controller output table: offline compilation, golden data, diffing.

The runtime scheduler never runs inference; it reads a 13x13 table indexed
by the quantized error pair.  The table shipped with the package is the
golden reference; `compile_lookup_table` rebuilds one from the rule base
and membership shapes for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..errors import OutOfRangeError, TableError
from .inference import defuzzify_centroid, infer
from .membership import INPUT_FAMILY, OUTPUT_FAMILY, MembershipFamily, fuzzify
from .quantization import ERROR_UNIVERSE, RESCALE_UNIVERSE, round_half_away
from .rules import DEFAULT_RULES, RuleBase


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


def lookup(table: LookupTable, e_q: int, ec_q: int) -> int:
    """O(1) cell read; both indices must be quantized levels in -6..6."""
    q = ERROR_UNIVERSE.q_max
    if not -q <= e_q <= q:
        raise OutOfRangeError(f"error level {e_q} outside -{q}..{q}")
    if not -q <= ec_q <= q:
        raise OutOfRangeError(f"delta level {ec_q} outside -{q}..{q}")
    return table.cells[e_q + q][ec_q + q]


def compile_lookup_table(
    rules: RuleBase = DEFAULT_RULES,
    in_family: MembershipFamily = INPUT_FAMILY,
    out_family: MembershipFamily = OUTPUT_FAMILY,
) -> LookupTable:
    """Run the full inference chain for every quantized input pair.

    Centroids are rounded half away from zero onto the output grid.
    """
    rows = []
    for e_q in ERROR_UNIVERSE.levels:
        mu_e = fuzzify(e_q, in_family)
        row = []
        for ec_q in ERROR_UNIVERSE.levels:
            mu_ec = fuzzify(ec_q, in_family)
            agg = infer(mu_e, mu_ec, rules, out_family)
            row.append(round_half_away(defuzzify_centroid(agg, out_family)))
        rows.append(tuple(row))
    return LookupTable(cells=tuple(rows), provenance="compiled")


def load_golden_table() -> LookupTable:
    """Parse the table shipped as package data."""
    text = resources.files("ffsched.fuzzy").joinpath("data/golden_table.txt").read_text()
    return parse_table_text(text, provenance="golden")


def parse_table_text(text: str, provenance: str = "golden") -> LookupTable:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise TableError(f"line {lineno}: cells must be integers") from exc
    return LookupTable(cells=tuple(rows), provenance=provenance)


def format_table(table: LookupTable) -> str:
    lines = [f"# provenance: {table.provenance}"]
    for row in table.cells:
        lines.append(" ".join(f"{v:3d}" for v in row))
    return "\n".join(lines) + "\n"


def agreement_within(candidate: LookupTable, reference: LookupTable, tolerance: int = 1) -> float:
    """Fraction of cells where the two tables differ by at most `tolerance`."""
    n = len(ERROR_UNIVERSE.levels)
    hits = sum(
        1
        for i in range(n)
        for j in range(n)
        if abs(candidate.cells[i][j] - reference.cells[i][j]) <= tolerance
    )
    return hits / (n * n)


def diff_report(candidate: LookupTable, reference: LookupTable) -> str:
    """Full per-cell difference grid plus agreement statistics."""
    n = len(ERROR_UNIVERSE.levels)
    lines = [
        f"cell differences ({candidate.provenance} - {reference.provenance}),"
        " rows e=-6..6, columns ec=-6..6"
    ]
    max_abs = 0
    for i in range(n):
        diffs = [candidate.cells[i][j] - reference.cells[i][j] for j in range(n)]
        max_abs = max(max_abs, max(abs(d) for d in diffs))
        lines.append(" ".join(f"{d:3d}" for d in diffs))
    within = agreement_within(candidate, reference, tolerance=1)
    exact = agreement_within(candidate, reference, tolerance=0)
    lines.append(f"cells equal: {round(exact * n * n)}/{n * n} ({100 * exact:.1f}%)")
    lines.append(f"cells within +/-1: {round(within * n * n)}/{n * n} ({100 * within:.1f}%)")
    lines.append(f"max abs difference: {max_abs}")
    return "\n".join(lines) + "\n"
