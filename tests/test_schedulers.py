"""Rescaling policies: fuzzy feedback, omniscient, open loop."""

import numpy as np
import pytest

from ffsched.errors import InfeasibleLoadError
from ffsched.fuzzy import ERROR_UNIVERSE
from ffsched.schedulers import FuzzyFeedbackScheduler, apply_periods, ideal_eta
from oracle_tables import GOLDEN_CELLS

MS = 1_000_000


class TestFuzzyFeedbackScheduler:
    def test_on_target_means_no_rescale(self):
        fs = FuzzyFeedbackScheduler()
        assert fs.step(0.85) == 1.0

    def test_heavy_overload_shrinks_fast(self):
        # huge spare capacity: e and its jump both saturate at +6 -> level -6
        fs = FuzzyFeedbackScheduler()
        assert fs.step(0.55) == pytest.approx(1.0 - 6.0 / 14.0)

    def test_worked_positive_cell(self):
        # e = -0.15 -> level -3, ec = -0.10 -> level -2: table gives +5
        fs = FuzzyFeedbackScheduler()
        fs.prev_error = -0.05
        assert fs.step(1.0) == pytest.approx(1.0 + 5.0 / 14.0)

    def test_worked_negative_cell(self):
        # e = 0.15 -> level 3, ec = 0.30 -> level 6: table gives -5
        fs = FuzzyFeedbackScheduler()
        fs.prev_error = -0.15
        assert fs.step(0.70) == pytest.approx(1.0 - 5.0 / 14.0)

    def test_error_memory_updates(self):
        fs = FuzzyFeedbackScheduler()
        fs.step(0.95)
        assert fs.prev_error == pytest.approx(-0.10)
        fs.step(0.80)
        assert fs.prev_error == pytest.approx(0.05)

    def test_dead_band_around_target(self):
        # small positive errors with steady measurements leave periods alone
        fs = FuzzyFeedbackScheduler()
        for u in (0.85, 0.84, 0.82, 0.80):
            fs.prev_error = 0.85 - u
            assert fs.step(u) == 1.0

    def test_output_always_in_half_to_three_halves(self):
        fs = FuzzyFeedbackScheduler()
        rng = np.random.default_rng(7)
        for u in rng.uniform(0.0, 1.0, size=500):
            eta = fs.step(float(u))
            assert 0.5 <= eta <= 1.5

    def test_every_table_cell_maps_to_its_factor_bit_for_bit(self):
        # the trace pins depend on this exact expression, not on an equal-valued
        # one; cells of one level return one factor object
        factor_of_level = {}
        for e_q in ERROR_UNIVERSE.levels:
            for ec_q in ERROR_UNIVERSE.levels:
                fs = FuzzyFeedbackScheduler()
                u = fs.target - e_q / 20.0
                error = fs.target - u
                fs.prev_error = error - ec_q / 20.0
                assert ERROR_UNIVERSE.quantize(error) == e_q
                assert ERROR_UNIVERSE.quantize(error - fs.prev_error) == ec_q
                cell = GOLDEN_CELLS[e_q + 6][ec_q + 6]
                factor = fs.step(u)
                assert factor == 1.0 + cell * (1.0 / 14.0), (e_q, ec_q)
                assert factor_of_level.setdefault(cell, factor) is factor, (e_q, ec_q)

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzyFeedbackScheduler(target=1.0)
        with pytest.raises(ValueError):
            FuzzyFeedbackScheduler(target=0.0)


class TestIdealEta:
    def test_hand_case(self):
        # u_ctrl = 1.2/3 + 1.2/4 = 0.7 against headroom 0.65
        assert ideal_eta((1.2, 1.2), (3.0, 4.0), u_others=0.2) == pytest.approx(0.7 / 0.65)

    def test_lands_exactly_on_target(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            execs = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(n))
            periods = tuple(float(rng.uniform(1.0, 10.0)) for _ in range(n))
            u_others = float(rng.uniform(0.0, 0.8))
            target = float(rng.uniform(u_others + 0.01, 0.99))
            eta = ideal_eta(execs, periods, u_others, target)
            predicted = u_others + sum(c / (eta * h) for c, h in zip(execs, periods))
            assert predicted == pytest.approx(target, abs=1e-12)

    def test_one_step_fixed_point(self):
        execs, periods, u_others = (1.2, 1.2), (3.0, 4.0), 0.2
        eta = ideal_eta(execs, periods, u_others)
        rescaled = tuple(eta * h for h in periods)
        assert ideal_eta(execs, rescaled, u_others) == pytest.approx(1.0)

    def test_infeasible_load(self):
        with pytest.raises(InfeasibleLoadError):
            ideal_eta((1.0,), (10.0,), u_others=0.85)
        with pytest.raises(InfeasibleLoadError):
            ideal_eta((1.0,), (10.0,), u_others=0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_eta((), (), u_others=0.0)
        with pytest.raises(ValueError):
            ideal_eta((1.0, 1.0), (10.0,), u_others=0.0)
        with pytest.raises(ValueError):
            ideal_eta((0.0,), (10.0,), u_others=0.0)
        with pytest.raises(ValueError):
            ideal_eta((1.0,), (10.0,), u_others=-0.1)
        with pytest.raises(ValueError):
            ideal_eta((1.0,), (10.0,), u_others=0.0, target=1.5)


class TestApplyPeriods:
    def test_scales_and_rounds(self):
        periods = apply_periods(1.25, (4 * MS, 6 * MS), h_min_ns=1 * MS, h_max_ns=10 * MS)
        assert periods == (5 * MS, int(round(7.5 * MS)))

    def test_clamps_each_period_independently(self):
        assert apply_periods(1.2, (5 * MS, 6_500_000), h_min_ns=1 * MS, h_max_ns=7 * MS) == (6 * MS, 7 * MS)

    def test_lower_clamp(self):
        assert apply_periods(0.5, (1_500_000, 4 * MS), h_min_ns=1 * MS, h_max_ns=7 * MS) == (1 * MS, 2 * MS)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_periods(0.0, (4 * MS,), 1 * MS, 7 * MS)
        with pytest.raises(ValueError):
            apply_periods(1.0, (4 * MS,), 0, 7 * MS)
        with pytest.raises(ValueError):
            apply_periods(1.0, (4 * MS,), 8 * MS, 7 * MS)
        with pytest.raises(ValueError):
            apply_periods(1.0, (0,), 1 * MS, 7 * MS)
