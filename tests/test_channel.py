import math

import numpy as np
import pytest

from bcastopt.channel import (
    RateModel,
    broadcast_rate,
    fastest_rate,
    prob_high_from_area_ratio,
    rates_from_uniforms,
    unicast_rate,
)
from bcastopt.errors import InvalidParameterError
from bcastopt.payoff import _U_MAX

REFERENCE = RateModel(r_high=2.4, r_low=1.32, prob_high=0.1)


class TestUnicastRate:
    def test_degenerate_regions(self):
        assert unicast_rate(RateModel(2.4, 2.4, 0.37)) == 2.4

    def test_reference_parameters(self):
        # 45 % degradation and a 9:1 outer/inner area split.
        assert unicast_rate(REFERENCE) == pytest.approx(1.428, abs=1e-12)

    def test_all_users_in_good_region(self):
        assert unicast_rate(RateModel(2.0, 1.0, 1.0)) == 2.0

    def test_exact_affine_interpolation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r_low = rng.uniform(0.1, 2.0)
            r_high = r_low + rng.uniform(0.0, 3.0)
            p = rng.uniform(0.0, 1.0)
            model = RateModel(r_high, r_low, p)
            assert unicast_rate(model) == r_low + (r_high - r_low) * p


class TestBroadcastRate:
    def test_single_user_equals_unicast(self):
        assert broadcast_rate(REFERENCE, 1) == unicast_rate(REFERENCE)

    def test_three_users_by_hand(self):
        assert broadcast_rate(REFERENCE, 3) == pytest.approx(1.32108, abs=1e-12)

    def test_large_group_limit_is_low_rate(self):
        assert broadcast_rate(REFERENCE, 10**6) == pytest.approx(1.32, abs=1e-12)

    def test_non_increasing_in_group_size(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r_low = rng.uniform(0.1, 2.0)
            model = RateModel(r_low + rng.uniform(0.01, 2.0), r_low, rng.uniform(0.0, 0.999))
            rates = [broadcast_rate(model, n) for n in range(1, 30)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
            assert all(r <= unicast_rate(model) + 1e-15 for r in rates)
            assert all(r >= model.r_low for r in rates)

    def test_strictly_decreasing_above_float_resolution(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r_low = rng.uniform(0.1, 2.0)
            model = RateModel(r_low + rng.uniform(0.05, 2.0), r_low, rng.uniform(0.1, 0.9))
            rates = [broadcast_rate(model, n) for n in range(1, 9)]
            assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            broadcast_rate(REFERENCE, -1)


def rates_for_seed(model, n, seed):
    return rates_from_uniforms(model, np.random.default_rng(seed).random(n))


class TestSampleUserRate:
    def test_degenerate_probabilities(self):
        always_high = RateModel(2.0, 1.0, 1.0)
        always_low = RateModel(2.0, 1.0, 0.0)
        for seed in range(20):
            assert rates_for_seed(always_high, 5, seed).tolist() == [2.0] * 5
            assert rates_for_seed(always_low, 5, seed).tolist() == [1.0] * 5

    def test_empirical_frequency_within_three_sigma(self):
        n = 1_000_000
        rates = rates_for_seed(REFERENCE, n, 7)
        freq = np.mean(rates == REFERENCE.r_high)
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert abs(freq - 0.1) < 3 * sigma

    def test_deterministic_per_seed(self):
        a = rates_for_seed(REFERENCE, 1000, 5)
        b = rates_for_seed(REFERENCE, 1000, 5)
        assert np.array_equal(a, b)


class TestFastestRate:
    @pytest.mark.parametrize("prob_high, expected", [
        (0.0, 1.0), (1e-12, 2.0), (0.5, 2.0), (1.0, 2.0),
    ])
    def test_high_rate_unless_nobody_draws_it(self, prob_high, expected):
        assert fastest_rate(RateModel(2.0, 1.0, prob_high)) == expected

    @pytest.mark.parametrize("prob_high", [0.0, 0.1, 1.0])
    def test_bounds_every_draw_and_is_reached(self, prob_high):
        model = RateModel(2.4, 1.32, prob_high)
        rates = rates_for_seed(model, 1000, 3)
        assert rates.max() == fastest_rate(model)


class TestRateClasses:
    @pytest.mark.parametrize("prob_high", [0.0, 0.1, 1.0])
    def test_a_uniform_places_a_user_in_row_u_at_least_prob_high(self, prob_high):
        # The rule rates_from_uniforms draws by and expected_revenue's
        # row index, int(u >= prob_high), pick the same class.
        model = RateModel(2.4, 1.32, prob_high)
        rates, probs = model.classes
        assert rates.shape == (2, 1)
        assert (rates[0, 0], probs[0]) == (model.r_high, prob_high)
        assert probs.sum() == 1.0
        for u in (0.0, np.nextafter(prob_high, -np.inf), prob_high, _U_MAX):
            row = int(u >= prob_high)
            assert rates_from_uniforms(model, u) == rates[row, 0], u


class TestModelValidation:
    def test_area_ratio_helper(self):
        assert prob_high_from_area_ratio(9.0) == pytest.approx(0.1)
        assert prob_high_from_area_ratio(0.0) == 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(r_high=1.0, r_low=1.5, prob_high=0.5),
            dict(r_high=1.0, r_low=0.0, prob_high=0.5),
            dict(r_high=1.0, r_low=0.5, prob_high=1.5),
            dict(r_high=1.0, r_low=0.5, prob_high=-0.1),
        ],
    )
    def test_invalid_models_rejected(self, kw):
        with pytest.raises(InvalidParameterError):
            RateModel(**kw)

    def test_non_positive_scale_factor_rejected(self):
        with pytest.raises(InvalidParameterError, match="scale factor must be positive, got 0"):
            REFERENCE.scaled(0)

    def test_negative_area_ratio_rejected(self):
        with pytest.raises(InvalidParameterError, match="area ratio must be >= 0, got -1"):
            prob_high_from_area_ratio(-1)

    def test_scaled_preserves_ratio(self):
        scaled = REFERENCE.scaled(0.01)
        assert scaled.r_high / scaled.r_low == pytest.approx(REFERENCE.r_high / REFERENCE.r_low)
        assert scaled.prob_high == REFERENCE.prob_high
