import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonlinosc import specfun
from nonlinosc.errors import ConvergenceError, DomainError
from nonlinosc.measures import sized_ground_state
from nonlinosc.potentials import P_PLUS, FellowsSmith
from nonlinosc.specfun import eta_ng_of_excess, kummer_phi_log_grid

from helpers import (
    entropy_h,
    entropy_oracle,
    gamma_fn,
    gamma_oracle,
    kummer_mp,
    stirling_log_gamma,
)


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

    def test_log_gamma_against_stirling_series_oracle(self):
        # math.lgamma is the package's Gamma: it sets the Fellows-Smith seed.
        for x in (0.1, 0.35, 1.3, 2.7, 9.2, 17.5, 30.0, 400.0):
            assert math.lgamma(x) == pytest.approx(stirling_log_gamma(x), rel=1e-13, abs=1e-13)


def assert_matches_mpmath(a: float, b: float, z: list[float]) -> None:
    """log Phi(a, b; z) and rho = z (a/b) Phi(a+1, b+1; z) / Phi(a, b; z) against mpmath."""
    logs, rhos = kummer_phi_log_grid(a, b, np.array(z))
    for zi, li, ri in zip(z, logs, rhos):
        phi = kummer_mp(a, b, zi)
        assert li == pytest.approx(float(mp.log(phi)), rel=1e-14, abs=1e-14)
        rho = float(zi * mp.mpf(a) / b * kummer_mp(a + 1, b + 1, zi) / phi)
        assert ri == pytest.approx(rho, rel=1e-13, abs=1e-300)


class TestKummer:
    @pytest.mark.parametrize("a,b", [(0.3, 0.7), (2.0, 5.5), (19.0, 0.4)])
    def test_empty_sum_at_zero(self, a, b):
        log_phi, rho = kummer_phi_log_grid(a, b, np.array([0.0]))
        assert (log_phi.tolist(), rho.tolist()) == ([0.0], [0.0])

    @pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
    def test_parameter_pole_raises(self, b):
        with pytest.raises(DomainError):
            kummer_phi_log_grid(1.0, b, np.array([1.0]))

    def test_exponential_identity(self):
        log_phi, rho = kummer_phi_log_grid(1.0, 1.0, np.array([2.0]))
        assert math.exp(log_phi[0]) == pytest.approx(math.exp(2.0), rel=1e-13)
        assert rho[0] == pytest.approx(2.0, rel=1e-14)  # z d(log e^z)/dz = z

    def test_value_inf_when_overflowing(self):
        # Phi(1, 1; 800) = e^800 overflows a float; its log does not.
        log_phi, _ = kummer_phi_log_grid(1.0, 1.0, np.array([800.0]))
        with np.errstate(over="ignore"):
            assert np.exp(log_phi[0]) == math.inf
        assert log_phi[0] == pytest.approx(800.0, rel=1e-12)

    def test_catalog_rectangle_against_mpmath(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = float(rng.uniform(0.05, 20.0))
            b = float(rng.uniform(0.05, 20.0))
            z = float(rng.uniform(0.0, 1200.0))
            log_phi, _ = kummer_phi_log_grid(a, b, np.array([z]))
            reference = kummer_mp(a, b, z)
            assert log_phi[0] == pytest.approx(float(mp.log(reference)), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (0.2, 0.5, [0.0, 0.5, 3.0, 41.0, 120.0, 900.0]),
            # log Phi(20, 1/2; 1200) is about 1300, far past log(float max):
            # the sum stays finite only through the per-element rescale.
            (20.0, 0.5, [0.0, 1.0, 600.0, 1200.0]),
            # Phi(1, 1; z) = e^z.
            (1.0, 1.0, [0.0, 2.0, 800.0]),
            # Phi(2, 3; 1) telescopes to exactly 2.
            (2.0, 3.0, [1.0]),
        ],
    )
    def test_log_grid_matches_mpmath(self, a, b, z):
        assert_matches_mpmath(a, b, z)

    @given(
        st.floats(min_value=1e-3, max_value=20.0),
        st.floats(min_value=1e-3, max_value=20.0),
        st.lists(st.floats(min_value=0.0, max_value=1200.0), min_size=1, max_size=6),
    )
    def test_log_grid_against_mpmath(self, a, b, z):
        assert_matches_mpmath(a, b, z)

    @pytest.mark.parametrize("p", [0.0, -0.1, P_PLUS, -0.6, -0.9])
    def test_log_grid_on_fellows_smith_grids(self, p):
        # The grids and both parameter pairs the Fellows-Smith state and
        # potential sample: Phi((1+p)/2, 1/2; x^2) and Phi((3+p)/2, 3/2; x^2).
        z = sized_ground_state(FellowsSmith(p)).grid.points() ** 2
        assert z.size == 4097
        for a, b in (((1.0 + p) / 2.0, 0.5), ((3.0 + p) / 2.0, 1.5)):
            logs, _ = kummer_phi_log_grid(a, b, z)
            for zi, li in zip(z[::64], logs[::64]):
                expected = float(mp.log(kummer_mp(a, b, zi)))
                assert li == pytest.approx(expected, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            # c_0 z = 2.4e7 and the terms keep growing for about 1,200 more:
            # the growth bound is passed partway through a block, many times.
            (20.0, 1e-3, [0.0, 0.5, 10.0, 150.0, 600.0, 1200.0]),
            # A single factor c_0 z_max = 5e201 passes the bound on its own.
            (1.0, 1e-200, [0.0, 1.0, 50.0]),
        ],
    )
    def test_log_grid_rescales_inside_a_block(self, a, b, z):
        assert_matches_mpmath(a, b, z)

    def test_log_grid_keeps_the_shape_of_z(self):
        for scalar in kummer_phi_log_grid(1.0, 1.0, np.float64(2.0)):
            assert scalar.shape == () and scalar == pytest.approx(2.0, rel=1e-15)
        z = np.array([[0.0, 1.0, 2.0], [3.0, 40.0, 5.0]])
        flat = kummer_phi_log_grid(0.2, 0.5, z.ravel())
        for grid, values in zip(kummer_phi_log_grid(0.2, 0.5, z), flat):
            assert grid.shape == z.shape
            assert grid.ravel().tolist() == values.tolist()

    def test_log_grid_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_CAP", 10)
        with pytest.raises(ConvergenceError):
            kummer_phi_log_grid(0.2, 0.5, np.array([1.0, 100.0]))

    def test_log_grid_series_cap_raises_past_the_peak(self, monkeypatch):
        # z = 5 passes the ratio peak within 10 terms but its tail is not
        # below e^-40 of the sum by then; 10 is not a multiple of the block.
        monkeypatch.setattr(specfun, "_SERIES_CAP", 10)
        with pytest.raises(ConvergenceError, match="did not converge"):
            kummer_phi_log_grid(0.2, 0.5, np.array([1.0, 5.0]))

    def test_log_grid_unreachable_peak_raises_before_summing(self):
        # (a + cap) z >= (b + cap)(cap + 1): no term within the cap is past
        # the ratio peak, so the kernel refuses without forming z^k (which
        # would overflow and warn).
        with pytest.raises(ConvergenceError, match="ratio peak"):
            kummer_phi_log_grid(0.2, 0.5, np.array([0.0, 3.0, 1e20]))

    def test_log_grid_empty_input(self):
        assert [v.size for v in kummer_phi_log_grid(0.2, 0.5, np.array([]))] == [0, 0]

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


class TestEtaNgOfDet:
    """eta_NG = h(sqrt(det sigma)), taken from the excess det sigma - 1/4."""

    @pytest.mark.parametrize("det", [0.25, 0.2500001, 0.3, 2.25, 40.0])
    def test_is_h_of_sqrt_det(self, det):
        assert eta_ng_of_excess(det - 0.25) == pytest.approx(entropy_h(math.sqrt(det)), rel=1e-14)

    def test_below_heisenberg_bound_raises(self):
        for excess in (-0.05, math.nan, math.inf):
            with pytest.raises(DomainError, match="below 1/4"):
                eta_ng_of_excess(excess)

    @pytest.mark.parametrize("excess", [0.0, 1e-300, 1e-30, 1e-16, 1e-9, 1e-3, 0.5, 1e6])
    def test_keeps_its_digits_near_a_gaussian(self, excess):
        # h(1/2 + u) with u = sqrt(1/4 + m) - 1/2, at 50 digits.
        with mp.workdps(50):
            u = excess / (mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 + excess))
            exact = float((1 + u) * mp.log1p(u) - (u * mp.log(u) if u else 0))
        assert eta_ng_of_excess(excess) == pytest.approx(exact, rel=1e-14, abs=0.0)
