"""Quantization grids and triangular membership families."""

import math

import pytest

from ffsched.fuzzy import (
    ERROR_UNIVERSE,
    INPUT_FAMILY,
    OUTPUT_FAMILY,
    RESCALE_UNIVERSE,
    MembershipFamily,
    QuantizedUniverse,
    fuzzify,
    round_half_away,
)


class TestRoundHalfAway:
    def test_ties_go_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(-0.5) == -1
        assert round_half_away(1.5) == 2
        assert round_half_away(-1.5) == -2
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3

    def test_non_ties_round_to_nearest(self):
        assert round_half_away(2.4) == 2
        assert round_half_away(-2.4) == -2
        assert round_half_away(2.6) == 3
        assert round_half_away(-2.6) == -3
        assert round_half_away(0.0) == 0
        assert round_half_away(7.0) == 7


class TestUniverses:
    def test_error_grid(self):
        assert list(ERROR_UNIVERSE.levels) == list(range(-6, 7))
        assert ERROR_UNIVERSE.gain == 20.0
        assert 0.5 * sum(ERROR_UNIVERSE.span) == 0.0  # level 0 sits at the interval centre
        assert ERROR_UNIVERSE.quantize(0.3) == 6
        assert ERROR_UNIVERSE.quantize(-0.3) == -6
        assert ERROR_UNIVERSE.quantize(0.05) == 1

    def test_rescale_grid(self):
        assert list(RESCALE_UNIVERSE.levels) == list(range(-7, 8))
        assert 1.0 / RESCALE_UNIVERSE.gain == 1.0 / 14.0
        assert 0.5 * sum(RESCALE_UNIVERSE.span) == pytest.approx(1.0)
        assert RESCALE_UNIVERSE.quantize(0.5) == 7
        assert RESCALE_UNIVERSE.quantize(-0.5) == -7

    def test_gain_is_a_plain_attribute_set_at_construction(self):
        assert QuantizedUniverse._fields == ("q_max", "span")
        assert "gain" not in repr(ERROR_UNIVERSE)
        twin = QuantizedUniverse(6, (-0.3, 0.3))
        assert twin == ERROR_UNIVERSE and hash(twin) == hash(ERROR_UNIVERSE)
        assert ERROR_UNIVERSE.replace(q_max=3).gain == 10.0  # replace recomputes it
        assert QuantizedUniverse(1, (0.0, 5e-324)).gain == math.inf  # half the width would round to 0

    @pytest.mark.parametrize(
        "x, level",
        [
            (0.0125, 0),
            (0.122, 2),
            (0.125, 3),  # tie rounds away from zero
            (-0.125, -3),
            (1.0, 6),  # saturates, never overflows
            (-0.35, -6),
        ],
    )
    def test_quantize(self, x, level):
        assert ERROR_UNIVERSE.quantize(x) == level

    def test_check_rejects_out_of_range_levels(self):
        ERROR_UNIVERSE.check(6.0)
        ERROR_UNIVERSE.check(-6.0)
        with pytest.raises(ValueError, match=r"^level 6\.001 outside universe -6\.\.6$"):
            ERROR_UNIVERSE.check(6.001)
        with pytest.raises(ValueError, match=r"^level -6\.001 outside universe -6\.\.6$"):
            ERROR_UNIVERSE.check(-6.001)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QuantizedUniverse(0, (-1.0, 1.0))
        with pytest.raises(ValueError):
            QuantizedUniverse(3, (1.0, 1.0))
        with pytest.raises(ValueError):
            QuantizedUniverse(3, (2.0, -2.0))


class TestMembership:
    def test_input_triangles_hand_values(self):
        ze = INPUT_FAMILY.labels.index("ZE")
        ps = INPUT_FAMILY.labels.index("PS")
        ns = INPUT_FAMILY.labels.index("NS")
        assert INPUT_FAMILY.membership(ze, 0.0) == 1.0
        assert INPUT_FAMILY.membership(ze, 1.5) == pytest.approx(0.5)
        assert INPUT_FAMILY.membership(ps, 1.5) == pytest.approx(0.5)
        assert INPUT_FAMILY.membership(ze, 3.0) == 0.0
        assert INPUT_FAMILY.membership(ns, -3.0) == 1.0
        assert INPUT_FAMILY.membership(ns, -4.5) == pytest.approx(0.5)
        assert INPUT_FAMILY.membership(ns, 0.0) == 0.0

    def test_extreme_labels_saturate_outward(self):
        nb = OUTPUT_FAMILY.labels.index("NB")
        pb = OUTPUT_FAMILY.labels.index("PB")
        # output peaks sit at +/-6 but the universe runs to +/-7
        assert OUTPUT_FAMILY.membership(pb, 6.0) == 1.0
        assert OUTPUT_FAMILY.membership(pb, 7.0) == 1.0
        assert OUTPUT_FAMILY.membership(pb, 6.5) == 1.0
        assert OUTPUT_FAMILY.membership(nb, -7.0) == 1.0
        assert OUTPUT_FAMILY.membership(pb, 5.0) == pytest.approx(0.5)
        assert OUTPUT_FAMILY.membership(nb, -5.0) == pytest.approx(0.5)

    def test_fuzzify_partitions_unity(self):
        for x in [-6.0, -4.2, -1.0, 0.0, 0.7, 2.999, 3.0, 5.5, 6.0]:
            mu = fuzzify(x, INPUT_FAMILY)
            assert len(mu) == 5
            assert math.isclose(sum(mu), 1.0, rel_tol=0, abs_tol=1e-12)
            assert sum(1 for m in mu if m > 0) <= 2
            assert any(m > 0 for m in mu)

    def test_fuzzify_output_family_shoulders(self):
        mu = fuzzify(7.0, OUTPUT_FAMILY)
        assert mu == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        mu = fuzzify(-7.0, OUTPUT_FAMILY)
        assert mu == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_fuzzify_rejects_out_of_universe(self):
        with pytest.raises(ValueError, match=r"^level 6\.5 outside universe -6\.\.6$"):
            fuzzify(6.5, INPUT_FAMILY)
        with pytest.raises(ValueError, match=r"^level -7\.5 outside universe -7\.\.7$"):
            fuzzify(-7.5, OUTPUT_FAMILY)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            MembershipFamily(ERROR_UNIVERSE, labels=("A", "B"), peaks=(0,))
        with pytest.raises(ValueError):
            MembershipFamily(ERROR_UNIVERSE, labels=("A",), peaks=(0,))
        with pytest.raises(ValueError):
            MembershipFamily(ERROR_UNIVERSE, labels=("A", "B"), peaks=(2, 2))
        with pytest.raises(ValueError):
            MembershipFamily(ERROR_UNIVERSE, labels=("A", "B"), peaks=(-7, 0))
