"""Rule base checks, and max-min inference and centroid defuzzification
against hand-worked cases."""

import pytest

from ffsched.fuzzy import (
    DEFAULT_RULES,
    INPUT_FAMILY,
    OUTPUT_FAMILY,
    RuleBase,
    defuzzify_centroid,
    fuzzify,
    infer,
)


def _aggregate(levels_to_mu: dict[int, float]) -> tuple[float, ...]:
    return tuple(levels_to_mu.get(level, 0.0) for level in OUTPUT_FAMILY.universe.levels)


class TestInfer:
    def test_two_rule_hand_case(self):
        # error fires NB at 0.5 and PB at 0.25, delta fires ZE crisply:
        # (NB, ZE) -> PB clipped at 0.5, (PB, ZE) -> NM clipped at 0.25
        mu_e = (0.5, 0.0, 0.0, 0.0, 0.25)
        mu_ec = (0.0, 0.0, 1.0, 0.0, 0.0)
        agg = infer(mu_e, mu_ec, DEFAULT_RULES, OUTPUT_FAMILY)
        assert agg == _aggregate({-5: 0.25, -4: 0.25, -3: 0.25, 5: 0.5, 6: 0.5, 7: 0.5})
        assert defuzzify_centroid(agg, OUTPUT_FAMILY) == pytest.approx(8.0 / 3.0)

    def test_centre_of_table_is_exactly_zero(self):
        agg = infer(fuzzify(0.0, INPUT_FAMILY), fuzzify(0.0, INPUT_FAMILY), DEFAULT_RULES, OUTPUT_FAMILY)
        assert defuzzify_centroid(agg, OUTPUT_FAMILY) == 0.0

    def test_saturated_corner(self):
        # (PB, PB) -> NB at full strength; the shoulder extends to level -7
        agg = infer(fuzzify(6.0, INPUT_FAMILY), fuzzify(6.0, INPUT_FAMILY), DEFAULT_RULES, OUTPUT_FAMILY)
        assert agg == _aggregate({-7: 1.0, -6: 1.0, -5: 0.5})
        assert defuzzify_centroid(agg, OUTPUT_FAMILY) == pytest.approx(-6.2)

    def test_opposite_corner_mirrors(self):
        agg = infer(fuzzify(-6.0, INPUT_FAMILY), fuzzify(-6.0, INPUT_FAMILY), DEFAULT_RULES, OUTPUT_FAMILY)
        assert defuzzify_centroid(agg, OUTPUT_FAMILY) == pytest.approx(6.2)

    def test_no_firing_raises(self):
        with pytest.raises(ValueError, match="^membership vector has no support$"):
            infer((0.0,) * 5, (0.0, 0.0, 1.0, 0.0, 0.0), DEFAULT_RULES, OUTPUT_FAMILY)


class TestDefuzzify:
    def test_two_level_hand_case(self):
        agg = _aggregate({2: 0.5, 4: 1.0})
        assert defuzzify_centroid(agg, OUTPUT_FAMILY) == pytest.approx(10.0 / 3.0)

    def test_single_level_returns_that_level(self):
        assert defuzzify_centroid(_aggregate({-3: 0.7}), OUTPUT_FAMILY) == pytest.approx(-3.0)

    def test_zero_mass_raises(self):
        with pytest.raises(ValueError, match="^aggregate has zero mass$"):
            defuzzify_centroid(_aggregate({}), OUTPUT_FAMILY)


class TestRuleBase:
    def test_default_rules_use_the_families_labels(self):
        assert DEFAULT_RULES.error_labels is INPUT_FAMILY.labels
        assert DEFAULT_RULES.delta_labels is INPUT_FAMILY.labels
        assert DEFAULT_RULES.output_labels is OUTPUT_FAMILY.labels

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (DEFAULT_RULES.matrix[:-1], "one matrix row per error label"),
            (DEFAULT_RULES.matrix[:-1] + (DEFAULT_RULES.matrix[-1][:-1],), "one matrix column per delta label"),
            (DEFAULT_RULES.matrix[:-1] + (("ZE",) * 4 + ("XX",),), "unknown output label 'XX'"),
        ],
        ids=["rows", "columns", "label"],
    )
    def test_malformed_matrix_rejected(self, matrix, message):
        labels = dict(
            error_labels=DEFAULT_RULES.error_labels,
            delta_labels=DEFAULT_RULES.delta_labels,
            output_labels=DEFAULT_RULES.output_labels,
        )
        with pytest.raises(ValueError, match=message):
            RuleBase(matrix=matrix, **labels)
