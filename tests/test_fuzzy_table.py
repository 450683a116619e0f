"""Shipped golden table, offline compilation, and the diff tooling."""

from pathlib import Path

import pytest

from ffsched.fuzzy import (
    LookupTable,
    compile_lookup_table,
    diff_report,
    format_table,
    load_golden_table,
    lookup,
)
from oracle_tables import GOLDEN_CELLS, share_within


@pytest.fixture(scope="module")
def golden():
    return load_golden_table()


@pytest.fixture(scope="module")
def compiled():
    return compile_lookup_table()


class TestGoldenTable:
    def test_matches_reference_copy_cell_for_cell(self, golden):
        assert golden.provenance == "golden"
        assert golden.cells == GOLDEN_CELLS

    def test_spot_values(self, golden):
        assert lookup(golden, -6, -6) == 6
        assert lookup(golden, 6, 6) == -6
        assert lookup(golden, 0, 0) == 0
        assert lookup(golden, -3, 0) == 5
        assert lookup(golden, 6, 0) == -5
        assert lookup(golden, 0, -6) == 5
        assert lookup(golden, 0, 6) == -2

    def test_central_band_is_dead(self, golden):
        # small positive error with steady utilization asks for no change
        for e_q in range(0, 4):
            assert lookup(golden, e_q, 0) == 0

    def test_lookup_rejects_bad_levels(self, golden):
        with pytest.raises(ValueError, match=r"^error level 7 outside -6\.\.6$"):
            lookup(golden, 7, 0)
        with pytest.raises(ValueError, match=r"^delta level -7 outside -6\.\.6$"):
            lookup(golden, 0, -7)


def _zero_rows() -> list[list[int]]:
    return [[0] * 13 for _ in range(13)]


def _table(rows: list[list[int]]) -> LookupTable:
    return LookupTable(cells=tuple(tuple(r) for r in rows), provenance="golden")


def _assert_monotone(table: LookupTable) -> None:
    for row in table.cells:
        assert all(a >= b for a, b in zip(row, row[1:])), row
    for col in zip(*table.cells):
        assert all(a >= b for a, b in zip(col, col[1:])), col


class TestCompiledTable:
    def test_both_tables_monotone(self, golden, compiled):
        _assert_monotone(golden)
        _assert_monotone(compiled)

    def test_agreement_with_golden(self, golden, compiled):
        assert compiled.provenance == "compiled"
        assert share_within(compiled, golden, tolerance=1) == 1.0
        assert share_within(compiled, golden, tolerance=0) == pytest.approx(126 / 169)

    def test_compiled_corners_and_centre(self, compiled):
        assert lookup(compiled, -6, -6) == 6
        assert lookup(compiled, 6, 6) == -6
        assert lookup(compiled, 0, 0) == 0

    def test_diff_report_content(self, golden, compiled):
        report = diff_report(compiled, golden)
        assert "cells equal: 126/169 (74.6%)" in report
        assert "cells within +/-1: 169/169 (100.0%)" in report
        assert "max abs difference: 1" in report
        # 13 difference rows plus header and three stat lines
        assert len(report.strip().splitlines()) == 17

    def test_self_diff_is_all_zero(self, golden):
        report = diff_report(golden, golden)
        assert "cells equal: 169/169 (100.0%)" in report
        assert "max abs difference: 0" in report

    def test_diff_beyond_one_level(self):
        rows = _zero_rows()
        rows[0][:2] = [2, 1]
        report = diff_report(_table(rows), _table(_zero_rows())).splitlines()
        assert report[1].split() == ["2", "1"] + ["0"] * 11
        assert report[-3:] == [
            "cells equal: 167/169 (98.8%)",
            "cells within +/-1: 168/169 (99.4%)",
            "max abs difference: 2",
        ]


class TestFormatAndChecks:
    def test_format_lists_every_cell(self, golden):
        header, *lines = format_table(golden).splitlines()
        assert header == "# provenance: golden"
        assert tuple(tuple(int(tok) for tok in line.split()) for line in lines) == GOLDEN_CELLS

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="^table must be 13x13$"):
            LookupTable(cells=((1, 2, 3), (4, 5, 6)), provenance="golden")

    def test_out_of_range_cell_rejected(self):
        rows = _zero_rows()
        rows[0][0] = 8
        with pytest.raises(ValueError, match=r"^cell value 8 outside -7\.\.7$"):
            _table(rows)

    def test_monotonicity_violation_rejected(self):
        rows = _zero_rows()
        rows[6][7] = 1  # jumps up along the row
        with pytest.raises(ValueError, match="^rows must be non-increasing in ec$"):
            _table(rows)


def test_package_ships_only_python_sources():
    # the golden table is code, so an install cannot miss a data file
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "ffsched"
    shipped = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert shipped and all(p.suffix == ".py" for p in shipped), shipped
    pyproject = (root / "pyproject.toml").read_text()
    assert "package-data" not in pyproject and "package_data" not in pyproject
