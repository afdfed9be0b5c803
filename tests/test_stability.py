import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpl.stability import (
    alpha_prime,
    b_asymp,
    b_finite,
    check_alpha_prime,
    delta_star,
    eta_heuristic,
    gamma_grid,
    laplace,
    t_fn,
)


class FixedUniform:
    """Stands in for a Generator whose random() returns a chosen value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestAlphaPrime:
    def test_hand_anchor(self):
        # alpha=0.1, delta=0.05, n=1000, eps=0.1/sqrt(1000)
        val = alpha_prime(0.1, 0.05, 1000, 0.1 / math.sqrt(1000.0))
        assert val == pytest.approx(0.04343, abs=1e-4)

    def test_zero_epsilon_is_plain_deduction(self):
        assert alpha_prime(0.1, 0.03, 500, 0.0) == pytest.approx(0.07, abs=1e-12)

    def test_n_invariance_under_root_n_scaling(self):
        gamma = 0.2
        vals = [alpha_prime(0.1, 0.04, n, gamma / math.sqrt(n)) for n in (100, 10_000, 1_000_000)]
        assert max(vals) - min(vals) < 1e-12

    @pytest.mark.parametrize(
        "alpha,delta", [(0.1, 0.1), (0.1, 0.2), (0.1, 0.0), (1.0, 0.5)]
    )
    def test_delta_range(self, alpha, delta):
        with pytest.raises(ValueError, match="0 < delta < alpha < 1"):
            alpha_prime(alpha, delta, 100, 0.01)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            alpha_prime(0.1, 0.05, 100, -0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.99),
        st.integers(1, 10_000),
        st.floats(0.0, 1.0),
    )
    def test_always_below_alpha_minus_delta(self, alpha, frac, n, eps):
        delta = alpha * frac
        val = alpha_prime(alpha, delta, n, eps)
        # the exponential can underflow to zero at extreme (n, eps)
        assert 0.0 <= val <= alpha - delta + 1e-15


class TestDeltaStar:
    def test_maximizer_at_small_gamma(self):
        d, ap = delta_star(0.1, 1000, 0.1 / math.sqrt(1000.0))
        assert ap == pytest.approx(0.0811, abs=0.002)
        assert 1e-4 < d < 1e-2  # maximizer sits at 1e-3 order

    def test_maximizer_at_large_gamma(self):
        _, ap = delta_star(0.1, 1000, 0.5 / math.sqrt(1000.0))
        assert ap == pytest.approx(0.0353, abs=0.002)

    def test_value_is_n_invariant(self):
        gamma = 0.1
        refs = [delta_star(0.1, n, gamma / math.sqrt(n))[1] for n in (100, 10_000, 1_000_000)]
        assert max(refs) - min(refs) < 1e-12

    def test_beats_grid_everywhere(self):
        # the refined optimum should weakly dominate a fresh coarse scan
        alpha, n, eps = 0.1, 1, 0.3
        _, ap = delta_star(alpha, n, eps)
        for d in np.linspace(alpha * 1e-4, alpha * (1 - 1e-4), 500):
            assert ap >= alpha_prime(alpha, float(d), n, eps) - 1e-12

    def test_zero_epsilon_keeps_lower_end(self):
        # alpha' = alpha - delta only falls, so the bracket's lower end wins
        assert delta_star(0.1, 1000, 0.0) == (0.1 * 1e-6, 0.1 - 0.1 * 1e-6)

    @pytest.mark.parametrize("alpha, eps", [(0.05, 0.01), (0.5, 3.0)])
    def test_root_of_first_order_condition(self, alpha, eps):
        # delta* is where d alpha'/d delta changes sign: alpha' at its two
        # neighbors a relative 1e-6 away is no larger
        d, ap = delta_star(alpha, 1, eps)
        for side in (d * (1 - 1e-6), d * (1 + 1e-6)):
            assert alpha_prime(alpha, side, 1, eps) <= ap

    def test_returns_feasible_delta(self):
        d, ap = delta_star(0.05, 200, 0.4)
        assert 0.0 < d < 0.05
        assert ap == pytest.approx(alpha_prime(0.05, d, 200, 0.4), abs=1e-15)


class TestGammaGrid:
    def test_ratio_anchor(self):
        assert gamma_grid([0.1], [0.3])[0, 0] == pytest.approx(0.54, abs=0.02)

    def test_tiny_gamma_costs_little(self):
        assert gamma_grid([0.1], [0.01])[0, 0] >= 0.97

    def test_nonincreasing_in_gamma(self):
        row = gamma_grid([0.1], np.linspace(0.01, 0.8, 20))[0]
        assert np.all(np.diff(row) <= 1e-4)

    def test_shape_follows_inputs(self):
        out = gamma_grid([0.05, 0.1, 0.2], [0.1, 0.3])
        assert out.shape == (3, 2)
        assert np.all((out > 0.0) & (out < 1.0))


class TestTFn:
    def test_small_case_exact(self):
        assert t_fn(2, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_large_case(self):
        assert t_fn(1000, 4.0) == pytest.approx(9.6096e-5, abs=1e-9)

    @given(st.integers(2, 10_000), st.floats(0.1, 50.0))
    def test_quadratic_in_xi(self, n, xi):
        assert t_fn(n, 2.0 * xi) == pytest.approx(4.0 * t_fn(n, xi), rel=1e-9)

    def test_decreasing_in_n(self):
        assert t_fn(100, 3.0) > t_fn(101, 3.0) > t_fn(1000, 3.0)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="n >= 2"):
            t_fn(1, 1.0)


class TestSensitivityBounds:
    def test_b_finite_anchor(self):
        # n=1000, xi=4, alpha'=0.04343:
        # 8/1000 + sqrt(2 log(3/0.04343) t(1000, 4))
        assert b_finite(1000, 4.0, 0.04343) == pytest.approx(0.03653, abs=1e-4)

    def test_b_asymp_anchor(self):
        # n=1000, xi=4, alpha'=0.0811, eta=10, |S|=2:
        # 16/1000 + Phi^{-1}(1 - 0.004055) sqrt(384/999000)
        assert b_asymp(1000, 4.0, 0.0811, 10, 2) == pytest.approx(0.06792, abs=2e-4)

    def test_b_finite_level_domain(self):
        with pytest.raises(ValueError, match="alpha'"):
            b_finite(100, 1.0, 0.0)

    def test_b_asymp_per_test_domain(self):
        with pytest.raises(ValueError, match="eta"):
            b_asymp(100, 1.0, 0.9, 1, 1)

    def test_b_asymp_keeps_a_tiny_level(self):
        # 1 - 1e-20 rounds to 1; the quantile is taken at 1e-20 itself:
        # Phi^{-1}(1 - 1e-20) = 9.2623400897984
        expected = 16.0 / 1000 + 9.2623400897984 * math.sqrt(t_fn(1000, 8.0))
        assert b_asymp(1000, 4.0, 2e-20, 1, 2) == pytest.approx(expected, rel=1e-13)

    def test_both_shrink_with_n(self):
        assert b_finite(10_000, 4.0, 0.05) < b_finite(1000, 4.0, 0.05)
        assert b_asymp(10_000, 4.0, 0.05, 10, 2) < b_asymp(1000, 4.0, 0.05, 10, 2)


class TestCheckAlphaPrime:
    def test_accepts_a_tiny_level(self):
        check_alpha_prime(1e-300, 10, 2)
        check_alpha_prime(0.05, 1, 1)

    @pytest.mark.parametrize("aprime, eta", [(0.0, 1), (1e-307, 1), (1e-300, 10**300)])
    def test_rejects_a_level_whose_bounds_overflow(self, aprime, eta):
        # 12 eta |S| / alpha' must be finite: a factor 4 inside 3 eta |S| / alpha'
        with pytest.raises(ValueError, match="too small for snpl's bounds"):
            check_alpha_prime(aprime, eta, 2)

    def test_accepted_level_gives_finite_bounds(self):
        aprime = 12.0 * 2 / np.finfo(float).max * 1.01
        check_alpha_prime(aprime, 1, 2)
        assert math.isfinite(b_finite(1000, 4.0, aprime))
        assert math.isfinite(b_asymp(1000, 4.0, aprime, 1, 2))


class TestEtaHeuristic:
    def test_paper_operating_points(self):
        assert eta_heuristic(0.1, 0.0811, 2949, 2, 0.5) == 10
        assert eta_heuristic(0.1, 0.0811, 2500, 2, 0.5) == 10

    def test_floor_of_one(self):
        assert eta_heuristic(0.1, 0.001, 4, 2, 0.5) == 1

    def test_ceiling(self):
        # raw = 0.05 * sqrt(400) / (sqrt(0.1) * sqrt(2)) = 1 / 0.4472... ~ 2.236
        assert eta_heuristic(0.1, 0.05, 400, 2, 0.5) == 3

    def test_p_below_one(self):
        with pytest.raises(ValueError, match="p must be < 1"):
            eta_heuristic(0.1, 0.05, 100, 2, 1.0)


class TestLaplace:
    def test_median_uniform_maps_to_zero(self):
        v = laplace(1.0, FixedUniform(0.5))
        assert v == 0.0
        assert math.copysign(1.0, v) == 1.0  # normalized, not -0.0

    def test_zero_uniform_guarded(self):
        v = laplace(1.0, FixedUniform(0.0))
        assert math.isfinite(v)
        assert v < -30.0  # deep left tail, not -inf

    def test_quartiles(self):
        assert laplace(1.0, FixedUniform(0.25)) == pytest.approx(-math.log(2.0) * 1.0)
        assert laplace(2.0, FixedUniform(0.75)) == pytest.approx(math.log(2.0) * 2.0)

    def test_moments(self):
        rng = np.random.default_rng(123)
        draws = np.array([laplace(1.0, rng) for _ in range(1_000_000)])
        assert draws.mean() == pytest.approx(0.0, abs=0.005)
        assert draws.var() == pytest.approx(2.0, abs=0.02)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            laplace(0.0, np.random.default_rng(0))
