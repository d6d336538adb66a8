import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest

from nonlinosc.errors import DomainError, SpecError
from nonlinosc.measures import measure_report
from nonlinosc.perturbation import (
    PerturbativeState,
    alpha_coefficients,
    eta_b_perturbative,
    parametric_curve,
    perturbed_excess,
    scatter_sample,
)
from nonlinosc.potentials import PerturbedHarmonic
from nonlinosc.specfun import eta_ng_of_excess

from helpers import entropy_h, perturbed_variances, three_term_state


class ScatterRow(NamedTuple):
    eps3: float
    eps4: float
    eta_b: float
    eta_ng: float


def scatter_rows(n, eps3_range, eps4_range, omega=1.0, seed=0) -> list[ScatterRow]:
    """Each seeded draw with the measures of its pert report, as ``scatter`` prints them."""
    rows = []
    for eps3, eps4 in scatter_sample(n, eps3_range, eps4_range, omega, seed):
        report = measure_report(PerturbedHarmonic(omega, eps3, eps4))
        rows.append(ScatterRow(eps3, eps4, report.eta_b, report.eta_ng))
    return rows


class TestAlphaCoefficients:
    def test_unperturbed(self):
        state = alpha_coefficients(0.0, 0.0, 1.0)
        assert state.alpha1 == 0.0 and state.alpha2 == 0.0
        assert state.norm_n == 1.0

    def test_cubic_only(self):
        state = alpha_coefficients(0.1, 0.0, 1.0)
        assert state.alpha1 == pytest.approx(-0.3 / 2.0**1.5, rel=1e-14)
        assert state.alpha2 == 0.0

    def test_quartic_only(self):
        state = alpha_coefficients(0.0, 0.25, 1.0)
        assert state.alpha2 == pytest.approx(-0.125 * 3.0 / math.sqrt(2.0), rel=1e-14)
        assert state.alpha1 == 0.0

    def test_guard(self):
        with pytest.raises(SpecError):
            alpha_coefficients(0.6, 0.0, 1.0)
        with pytest.raises(SpecError):
            alpha_coefficients(0.0, -0.51, 1.0)
        for alphas, name in (((math.nan, 0.0), "alpha1"), ((0.0, math.inf), "alpha2")):
            with pytest.raises(SpecError, match=f"{name} must be finite"):
                PerturbativeState(*alphas)


class TestPerturbedVariances:
    def test_vacuum(self):
        assert perturbed_variances(PerturbativeState(0.0, 0.0)) == (0.5, 0.5)

    @pytest.mark.parametrize("a1,a2", [(0.0, -0.2), (0.3, 0.1)])
    def test_number_basis_oracle_spot(self, a1, a2):
        var_q, var_p = perturbed_variances(PerturbativeState(a1, a2))
        _, var_x, oracle_var_p = three_term_state(a1, a2)
        assert var_q == pytest.approx(var_x, abs=1e-12)
        assert var_p == pytest.approx(oracle_var_p, abs=1e-12)

    def test_det_never_below_quarter(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a1, a2 = rng.uniform(-0.5, 0.5, 2)
            var_q, var_p = perturbed_variances(PerturbativeState(float(a1), float(a2)))
            assert var_q * var_p >= 0.25 - 1e-12


class TestEtaBPerturbative:
    def test_unperturbed_zero(self):
        assert eta_b_perturbative(PerturbativeState(0.0, 0.0)) == 0.0

    def test_quarter_quartic_frozen_value(self):
        state = alpha_coefficients(0.0, 0.25, 1.0)
        # alpha2^2 = 9/128, so N = 137/128 and the value is
        # sqrt(1 - sqrt(128/137)) = 0.1827693920...
        assert eta_b_perturbative(state) == pytest.approx(
            math.sqrt(1.0 - math.sqrt(128.0 / 137.0)), abs=1e-15
        )
        assert eta_b_perturbative(state) == pytest.approx(0.1827693921, abs=1e-9)

    @pytest.mark.parametrize("eps3,eps4", [(0.0, 1e-6), (1e-6, 0.0), (1e-6, -1e-6), (0.0, 1e-3)])
    def test_small_perturbation_without_cancellation(self, eps3, eps4):
        # 1 - N^{-1/2} is about 1e-13 at eps = 1e-6; 1.0 - N**-0.5 kept only 4 digits of it.
        # The reference is the same closed form at 40 digits: the three-term
        # state's vacuum overlap is N^{-1/2} (the test below), but in floats.
        state = alpha_coefficients(eps3, eps4, 1.0)
        with mp.workdps(40):
            n = 1 + mp.mpf(state.alpha1) ** 2 + mp.mpf(state.alpha2) ** 2
            exact = float(mp.sqrt(1 - 1 / mp.sqrt(n)))
        assert eta_b_perturbative(state) == pytest.approx(exact, rel=1e-15)

    def test_matches_vacuum_overlap_of_explicit_state(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a1, a2 = rng.uniform(-0.5, 0.5, 2)
            state = PerturbativeState(float(a1), float(a2))
            vacuum_overlap, _, _ = three_term_state(float(a1), float(a2))
            assert eta_b_perturbative(state) == pytest.approx(
                math.sqrt(1.0 - vacuum_overlap), abs=1e-12
            )


class TestEtaNgPerturbative:
    def test_unperturbed_zero(self):
        assert eta_ng_of_excess(perturbed_excess(PerturbativeState(0.0, 0.0))) == 0.0

    def test_even_case_closed_determinant(self):
        a2 = -0.1
        n = 1.0 + a2**2
        expected = entropy_h(0.5 * math.sqrt(1.0 + 24.0 * (a2**2 / n) ** 2))
        excess = perturbed_excess(PerturbativeState(0.0, a2))
        assert excess == pytest.approx(6.0 * (a2**2 / n) ** 2, rel=1e-15)
        assert eta_ng_of_excess(excess) == pytest.approx(expected, abs=1e-14)

    def test_matches_fock_determinant(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a1, a2 = rng.uniform(-0.5, 0.5, 2)
            state = PerturbativeState(float(a1), float(a2))
            _, var_x, var_p = three_term_state(float(a1), float(a2))
            assert eta_ng_of_excess(perturbed_excess(state)) == pytest.approx(
                entropy_h(math.sqrt(var_x * var_p)), abs=1e-12
            )

    @staticmethod
    def exact_excess(state: PerturbativeState) -> mp.mpf:
        """var_q var_p - 1/4 of the printed variances at 50 digits."""
        a1, a2 = mp.mpf(state.alpha1), mp.mpf(state.alpha2)
        r2, n = mp.sqrt(2), 1 + a1**2 + a2**2
        var_q = (3 * a1**4 - 6 * r2 * a1**2 * a2
                 + (1 + a2**2) * (1 + 2 * r2 * a2 + 5 * a2**2)) / (2 * n**2)
        var_p = mp.mpf(3) / 2 - (1 + r2 * a2 - a2**2) / n
        return var_q * var_p - mp.mpf(1) / 4

    def test_excess_cancels_the_quarter_symbolically(self):
        # Small, mixed and guard-edge alphas, and the near-cancelling a2 = sqrt2 a1^2 / 3.
        rng = np.random.default_rng(29)
        states = [PerturbativeState(float(a1), float(a2)) for a1, a2 in rng.uniform(-0.53, 0.53, (50, 2))]
        states += [PerturbativeState(a1, a2) for a1, a2 in
                   ((1e-8, 0.0), (0.0, 1e-8), (1e-3, -2e-4), (1e-4, math.sqrt(2.0) * 1e-8 / 3.0))]
        with mp.workdps(50):
            for state in states:
                assert perturbed_excess(state) == pytest.approx(
                    float(self.exact_excess(state)), rel=1e-13), state

    @pytest.mark.parametrize("eps3,eps4", [(0.0, 1e-6), (0.0, 1e-4), (1e-6, 0.0), (1e-4, -1e-5)])
    def test_small_perturbation_eta_ng_without_cancellation(self, eps3, eps4):
        # pert:omega=1,eps4=0.000001 printed eta_NG = 0 when det sigma - 1/4 was a subtraction.
        state = alpha_coefficients(eps3, eps4, 1.0)
        with mp.workdps(50):
            m = self.exact_excess(state)
            u = m / (mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 + m))
            exact = float((1 + u) * mp.log1p(u) - u * mp.log(u))
        report = measure_report(PerturbedHarmonic(1.0, eps3, eps4))
        assert report.eta_ng > 0.0
        assert report.eta_ng == pytest.approx(exact, rel=1e-12)


class TestParametricCurve:
    def test_origin(self):
        point = parametric_curve(0.0)
        assert point.printed == 0.0
        assert point.corrected == 0.0

    def test_printed_absent_for_positive_eta_b(self):
        # t = eta_b^2 (eta_b^2 - 2) < 0 on (0, sqrt(2)), so the argument of h
        # falls below its domain for every positive eta_b.
        for eta_b in (0.05, 0.1827693921, 0.3, 0.7, 0.95):
            assert parametric_curve(eta_b).printed is None

    def test_corrected_consistent_with_closed_chain(self):
        report = measure_report(PerturbedHarmonic(1.0, 0.0, 0.25))
        assert parametric_curve(report.eta_b).corrected == pytest.approx(
            report.eta_ng, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            parametric_curve(1.0)
        with pytest.raises(DomainError):
            parametric_curve(-0.1)


class TestScatterSample:
    def test_empty(self):
        assert scatter_sample(0, (-0.1, 0.1), (-0.25, 0.25)) == []

    def test_deterministic(self):
        kwargs = dict(eps3_range=(-0.1, 0.1), eps4_range=(-0.25, 0.25), omega=1.0, seed=42)
        assert scatter_rows(100, **kwargs) == scatter_rows(100, **kwargs)

    def test_guard_violation(self):
        with pytest.raises(SpecError):
            scatter_sample(10, (-0.9, 0.9), (-0.25, 0.25))
        with pytest.raises(SpecError):
            scatter_sample(10, (0.1, -0.1), (-0.25, 0.25))

    def test_ranges_respected(self):
        records = scatter_rows(500, (-0.1, 0.1), (-0.25, 0.25), seed=1)
        assert all(-0.1 <= r.eps3 <= 0.1 for r in records)
        assert all(-0.25 <= r.eps4 <= 0.25 for r in records)

    def test_near_even_samples_sit_on_corrected_curve(self):
        records = scatter_rows(1000, (-0.1, 0.1), (-0.25, 0.25), seed=7)
        near_even = [r for r in records if abs(r.eps3) <= 0.02]
        assert len(near_even) > 50
        for r in near_even:
            assert abs(r.eta_ng - parametric_curve(r.eta_b).corrected) <= 1e-3

    def test_odd_samples_scatter_below_curve(self):
        # With cubic terms the two measures stop being functions of each
        # other. At fixed eta_b the even-only point maximizes det sigma
        # (pure-odd samples have det sigma = 1/4 + O(alpha1^6)), so the
        # curve is an upper envelope: records fall on or below it, and
        # near-equal eta_b values map to well-separated eta_ng.
        records = scatter_rows(1000, (-0.2, 0.2), (-0.25, 0.25), seed=11)
        deviations = [r.eta_ng - parametric_curve(r.eta_b).corrected for r in records]
        assert max(deviations) <= 1e-12
        assert min(deviations) < -1e-3
        by_eta_b = sorted(records, key=lambda r: r.eta_b)
        spreads = [
            abs(a.eta_ng - b.eta_ng)
            for a, b in zip(by_eta_b, by_eta_b[1:])
            if abs(a.eta_b - b.eta_b) < 1e-3
        ]
        assert max(spreads) > 1e-2

    def test_cubic_term_raises_det_at_fixed_quartic(self):
        for eps4 in (-0.2, 0.0, 0.2):
            dets = []
            for eps3 in (0.0, 0.1, 0.2):
                dets.append(measure_report(PerturbedHarmonic(1.0, eps3, eps4)).det_sigma)
            assert dets[0] < dets[1] < dets[2]

    def test_every_det_physical(self):
        records = scatter_rows(500, (-0.2, 0.2), (-0.25, 0.25), seed=13)
        for r in records:
            assert r.eta_b < 1.0 and r.eta_ng >= 0.0
