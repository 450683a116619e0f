"""Hand-transcribed reference copy of the control look-up table.

Kept outside the package on purpose: the tests compare the table literal
in `ffsched.fuzzy` against this copy, so a silent edit to that
literal cannot vouch for itself.  Rows run e = -6..6 top to bottom,
columns ec = -6..6 left to right.
"""

GOLDEN_CELLS = (
    (6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 5, 5),
    (6, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3, 3),
    (6, 6, 6, 6, 5, 5, 5, 4, 3, 3, 2, 2, 2),
    (6, 6, 6, 6, 5, 5, 5, 4, 3, 2, 2, 1, 0),
    (5, 4, 4, 4, 3, 3, 3, 3, 2, 2, 1, 0, -1),
    (5, 4, 3, 3, 2, 2, 2, 2, 2, 1, 0, 0, -1),
    (5, 4, 3, 2, 2, 1, 0, 0, 0, 0, -1, -1, -2),
    (4, 3, 2, 2, 2, 1, 0, -1, -1, -1, -2, -2, -3),
    (3, 2, 2, 1, 1, 1, 0, -1, -1, -1, -2, -3, -4),
    (2, 2, 1, 0, 0, 0, 0, -1, -1, -2, -3, -4, -5),
    (2, 1, 0, -1, -2, -2, -2, -2, -2, -3, -3, -4, -5),
    (1, 0, 0, -1, -2, -3, -3, -3, -3, -4, -4, -4, -5),
    (0, -1, -1, -2, -3, -4, -5, -5, -5, -6, -6, -6, -6),
)


def share_within(candidate, reference, tolerance: int) -> float:
    """Fraction of cells where two look-up tables differ by at most `tolerance`."""
    pairs = [(c, r) for cr, rr in zip(candidate.cells, reference.cells) for c, r in zip(cr, rr)]
    return sum(abs(c - r) <= tolerance for c, r in pairs) / len(pairs)
