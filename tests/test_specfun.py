import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonlinosc import specfun
from nonlinosc.errors import ConvergenceError, DomainError
from nonlinosc.specfun import (
    entropy_h,
    gamma_fn,
    kummer_phi,
    kummer_phi_log_grid,
)

from helpers import entropy_oracle, gamma_oracle, kummer_mp, kummer_rational_series


class TestGamma:
    def test_factorial_identity(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_against_stirling_series_oracle(self):
        for x in (0.1, 0.35, 1.3, 2.7, 9.2, 17.5, 30.0):
            assert gamma_fn(x) == pytest.approx(gamma_oracle(x), rel=1e-12)

    def test_negative_non_integer_allowed(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_arguments_raise(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            gamma_fn(400.0)

    def test_non_finite_raises(self):
        with pytest.raises(DomainError):
            gamma_fn(math.nan)

    def test_recurrence_1000_random(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(0.1, 20.0, 1000):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-11)


class TestKummer:
    @pytest.mark.parametrize("a,b", [(0.3, 0.7), (2.0, 5.5), (19.0, 0.4)])
    def test_empty_sum_at_zero(self, a, b):
        assert kummer_phi(a, b, 0.0).value == 1.0

    def test_exponential_identity(self):
        assert kummer_phi(1.0, 1.0, 2.0).value == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_rational_series_oracle(self):
        # Phi(2,3,1) telescopes to exactly 2; the 200-term rational sum
        # nails it without rounding.
        expected = kummer_rational_series(2, 3, 1)
        assert expected == pytest.approx(2.0, abs=1e-15)
        assert kummer_phi(2.0, 3.0, 1.0).value == pytest.approx(expected, rel=1e-12)

    def test_catalog_rectangle_against_mpmath(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = float(rng.uniform(0.05, 20.0))
            b = float(rng.uniform(0.05, 20.0))
            z = float(rng.uniform(0.0, 1200.0))
            result = kummer_phi(a, b, z)
            reference = kummer_mp(a, b, z)
            if result.value != math.inf:
                assert result.value == pytest.approx(float(reference), rel=1e-10)
            assert result.log_scaled == pytest.approx(float(mp.log(reference)), abs=1e-9)

    def test_kummer_transformation_property(self):
        # Ranges keep the alternating-series cancellation on the transformed
        # side within the 1e-8 tolerance.
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.5, 3.0))
            z = float(rng.uniform(0.0, 6.0))
            lhs = kummer_phi(a, b, z).value
            rhs = math.exp(z) * kummer_phi(b - a, b, -z).value
            assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_log_scaled_populated_past_1e100(self):
        result = kummer_phi(0.3, 0.5, 800.0)
        assert result.log_scaled is not None
        assert result.log_scaled > math.log(1e100)

    def test_log_scaled_consistent_when_finite(self):
        result = kummer_phi(0.3, 0.5, 250.0)
        assert math.isfinite(result.value)
        assert math.exp(result.log_scaled) == pytest.approx(result.value, rel=1e-12)

    def test_value_inf_when_overflowing(self):
        result = kummer_phi(1.0, 1.0, 800.0)
        assert result.value == math.inf
        assert result.log_scaled == pytest.approx(800.0, rel=1e-12)

    def test_branch_seam_continuity(self):
        # Both evaluation branches must agree with the reference across the
        # z = 40 switchover, so the seam introduces no jump beyond 1e-10.
        below = kummer_phi(1.7, 2.3, 39.999).value
        above = kummer_phi(1.7, 2.3, 40.001).value
        assert below == pytest.approx(float(kummer_mp(1.7, 2.3, 39.999)), rel=1e-10)
        assert above == pytest.approx(float(kummer_mp(1.7, 2.3, 40.001)), rel=1e-10)

    @pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
    def test_parameter_pole_raises(self, b):
        with pytest.raises(DomainError):
            kummer_phi(1.0, b, 1.0)

    def test_deep_negative_z_uses_transformation(self):
        value = kummer_phi(0.7, 1.9, -50.0).value
        assert value == pytest.approx(float(kummer_mp(0.7, 1.9, -50.0)), rel=1e-9)

    def test_unsupported_corner_raises(self):
        # z < -8 with b <= a lands on a negative first parameter with a large
        # positive argument, which the positive-term accumulation cannot do.
        with pytest.raises(ConvergenceError):
            kummer_phi(5.0, 1.5, -100.0)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (0.2, 0.5, [0.0, 0.5, 3.0, 41.0, 120.0, 900.0]),
            # log Phi(20, 1/2; 1200) is about 1300, far past log(float max):
            # the sum stays finite only through the per-element rescale.
            (20.0, 0.5, [0.0, 1.0, 600.0, 1200.0]),
        ],
    )
    def test_log_grid_matches_mpmath(self, a, b, z):
        logs = kummer_phi_log_grid(a, b, np.array(z))
        for zi, li in zip(z, logs):
            assert li == pytest.approx(float(mp.log(kummer_mp(a, b, zi))), rel=1e-14, abs=1e-14)

    @given(
        st.floats(min_value=1e-3, max_value=20.0),
        st.floats(min_value=1e-3, max_value=20.0),
        st.lists(st.floats(min_value=0.0, max_value=1200.0), min_size=1, max_size=6),
    )
    def test_log_grid_against_mpmath(self, a, b, z):
        logs = kummer_phi_log_grid(a, b, np.array(z))
        for zi, li in zip(z, logs):
            expected = float(mp.log(kummer_mp(a, b, zi)))
            assert li == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_log_grid_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_CAP", 10)
        with pytest.raises(ConvergenceError):
            kummer_phi_log_grid(0.2, 0.5, np.array([1.0, 100.0]))

    def test_log_grid_empty_input(self):
        assert kummer_phi_log_grid(0.2, 0.5, np.array([])).size == 0

    def test_log_grid_rejects_negative(self):
        with pytest.raises(DomainError):
            kummer_phi_log_grid(0.2, 0.5, np.array([-1.0]))


class TestEntropyH:
    def test_limit_at_half(self):
        assert entropy_h(0.5) == 0.0

    def test_three_halves(self):
        assert entropy_h(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert entropy_h(1.5) == pytest.approx(entropy_oracle(1.5), rel=1e-14)

    def test_clamp_just_below_half(self):
        assert entropy_h(0.5 - 1e-10) == 0.0

    def test_domain_error_below_clamp(self):
        with pytest.raises(DomainError):
            entropy_h(0.4999)

    def test_non_finite_raises(self):
        with pytest.raises(DomainError):
            entropy_h(math.inf)

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_strictly_increasing(self, x, step):
        assert entropy_h(x + step) > entropy_h(x)

    def test_matches_oracle_on_range(self):
        for x in (0.5 + 1e-8, 0.52, 1.0, 5.0, 49.0):
            assert entropy_h(x) == pytest.approx(entropy_oracle(x), abs=1e-12)
