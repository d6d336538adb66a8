import contextlib
import io
import math

import numpy as np
import pytest

from nonlinosc import measures, perturbation
from nonlinosc.cli import main
from nonlinosc.errors import DomainError
from nonlinosc.measures import measure_report
from nonlinosc.numerics import (
    Grid,
    SampledWavefunction,
    covariance_of,
    overlap,
    sized_ground_state,
)
from nonlinosc.oracle import fd_ground_state
from nonlinosc.potentials import (
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    PerturbedHarmonic,
)
from nonlinosc.specfun import entropy_h

from helpers import (
    GaussianCovariance,
    UnphysicalCovarianceError,
    bures_distance,
    entropy_oracle,
    mio_closed_moments,
    mio_reference_fidelity,
    morse_closed_moments,
    morse_reference_fidelity,
    mpt_closed_det,
    reference_gaussian,
    sample_ground_state,
    three_term_state,
    wigner_gaussian,
    wigner_normalization_check,
)


class TestFidelityAndBures:
    def test_self_fidelity(self):
        wf = sized_ground_state(Harmonic(1.0))
        assert overlap(wf, wf) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_pair(self):
        grid = sized_ground_state(Harmonic(1.0)).grid
        wf1 = sample_ground_state(Harmonic(1.0), grid)
        wf4 = sample_ground_state(Harmonic(4.0), grid)
        assert overlap(wf1, wf4) ** 2 == pytest.approx(0.8, abs=1e-9)

    def test_opposite_parity(self):
        grid = Grid(-12.0, 12.0, 4097)
        x = grid.points()
        even = SampledWavefunction(grid, np.exp(-(x**2) / 2.0))
        odd = SampledWavefunction(grid, x * np.exp(-(x**2) / 2.0))
        assert overlap(even, odd) ** 2 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("f,expected", [(1.0, 0.0), (0.0, math.sqrt(2.0)), (0.25, 1.0)])
    def test_bures_distance_values(self, f, expected):
        assert bures_distance(f) == pytest.approx(expected, abs=1e-12)

    def test_bures_clamps_and_decreases(self):
        assert bures_distance(1.0 + 1e-9) == 0.0
        grid = np.linspace(0.0, 1.0, 33)
        values = [bures_distance(float(f)) for f in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEtaBures:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 4.0])
    def test_harmonic_zero(self, omega):
        assert measure_report(Harmonic(omega)).eta_b <= 1e-6

    def test_small_alpha_morse_vanishing_trend(self):
        # The measure vanishes as alpha -> 0; the minimum-centered reference
        # leaves a residual ~0.33 sqrt(alpha) from the ground-state
        # displacement, so 0.05 is the honest small-alpha bound at 0.01.
        values = [measure_report(Morse(1.0, a)).eta_b for a in (0.005, 0.01, 0.05)]
        assert values[1] <= 0.05
        assert values[0] < values[1] < values[2]

    def test_fellows_smith_absent_without_reference(self):
        assert measure_report(FellowsSmith(-0.6)).eta_b is None
        assert measure_report(FellowsSmith(-0.9)).eta_b is None

    def test_perturbed_closed_form(self):
        spec = PerturbedHarmonic(1.0, 0.0, 0.25)
        alpha2 = -0.125 * 3.0 / math.sqrt(2.0)
        expected = math.sqrt(1.0 - (1.0 + alpha2**2) ** -0.5)
        assert measure_report(spec).eta_b == pytest.approx(expected, rel=1e-12)


class TestEtaNg:
    def test_harmonic_zero(self):
        assert measure_report(Harmonic(3.0)).eta_ng <= 1e-6

    def test_mpt_closed_form(self):
        # var_x = pi^2/12 and var_p = 1/3 give sqrt(det) = pi/6.
        assert measure_report(ModifiedPoschlTeller(1.0, 1.0)).eta_ng == pytest.approx(
            entropy_h(math.pi / 6.0), abs=1e-5
        )
        assert entropy_h(math.pi / 6.0) == pytest.approx(0.1122893011, abs=1e-9)

    def test_morse_edge_grows_large(self):
        assert measure_report(Morse(1.0, 2.8)).eta_ng > 1.0

    def test_perturbed_matches_fock_oracle(self):
        spec = PerturbedHarmonic(1.0, 0.1, -0.2)
        from nonlinosc.perturbation import alpha_coefficients

        state = alpha_coefficients(spec.eps3, spec.eps4, spec.omega)
        _, var_x, var_p = three_term_state(state.alpha1, state.alpha2)
        expected = entropy_h(math.sqrt(var_x * var_p))
        assert measure_report(spec).eta_ng == pytest.approx(expected, abs=1e-12)


class TestMeasureReport:
    def test_harmonic_fields(self):
        report = measure_report(Harmonic(1.0))
        assert report.eta_b == pytest.approx(0.0, abs=1e-6)
        assert report.eta_ng == pytest.approx(0.0, abs=1e-6)
        assert report.omega_r == 1.0
        assert report.ground_energy == pytest.approx(0.5)
        assert report.det_sigma == pytest.approx(0.25, abs=1e-9)
        assert report.fidelity_to_reference == pytest.approx(1.0, abs=1e-9)

    def test_mio_fields(self):
        report = measure_report(ModifiedIsotonic(1.0))
        assert report.ground_energy == pytest.approx(-3.5, rel=1e-12)
        assert report.omega_r == pytest.approx(math.sqrt(37.0), rel=1e-12)
        assert report.eta_b > 0.0 and report.eta_ng > 0.0

    def test_fellows_smith_triple_well(self):
        report = measure_report(FellowsSmith(-0.9))
        assert report.eta_b is None
        assert report.fidelity_to_reference is None
        assert report.eta_ng > 0.0

    def test_internal_consistency_eta_ng(self):
        report = measure_report(Morse(1.0, 1.5))
        assert report.eta_ng == pytest.approx(
            entropy_h(math.sqrt(report.det_sigma)), abs=1e-12
        )

    def test_eta_b_present_iff_reference(self):
        for spec in (Harmonic(2.0), Morse(1.0, 1.0), FellowsSmith(-0.05), FellowsSmith(-0.7)):
            report = measure_report(spec)
            assert (report.eta_b is None) == (report.omega_r is None)

    def test_morse_edge_warning(self):
        report = measure_report(Morse(1.0, 2.8))
        assert any("bound-state limit" in w for w in report.diagnostics.warnings)

    def test_perturbed_report(self):
        report = measure_report(PerturbedHarmonic(1.0, 0.0, 0.2))
        assert report.omega_r == 1.0
        assert report.ground_energy == pytest.approx(0.5 + 0.2 * 0.75, rel=1e-12)
        assert report.eta_b > 0.0
        assert report.diagnostics.grid is None

    def test_perturbed_report_evaluates_the_variances_once(self, monkeypatch):
        calls = []
        original = perturbation.perturbed_variances

        def counted(state):
            calls.append(state)
            return original(state)

        # Count every lookup the report path can make, in either module.
        for module in (perturbation, measures):
            monkeypatch.setattr(module, "perturbed_variances", counted, raising=False)
        report = measure_report(PerturbedHarmonic(1.0, 0.05, 0.1))
        assert len(calls) == 1
        var_q, var_p = original(calls[0])
        assert report.det_sigma == var_q * var_p
        assert report.eta_ng == entropy_h(math.sqrt(var_q * var_p))

    def test_perturbed_report_names_a_determinant_below_a_quarter(self, monkeypatch):
        monkeypatch.setattr(perturbation, "perturbed_variances", lambda state: (0.4, 0.5))
        with pytest.raises(DomainError, match="dips below 1/4"):
            measure_report(PerturbedHarmonic(1.0, 0.05, 0.1))

    @pytest.mark.parametrize("a", [0.01, 0.0225])
    def test_mio_low_a_peak_far_below_float_range(self, a):
        # Low-a MIO against mpmath quadrature of the same closed form.
        report = measure_report(ModifiedIsotonic(a))
        assert report.fidelity_to_reference == pytest.approx(mio_reference_fidelity(a), abs=1e-14)
        fine = measure_report(ModifiedIsotonic(a), n_points=16385)
        assert report.eta_ng == pytest.approx(fine.eta_ng, abs=1e-8)

    @pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-12, 1e-8, 1e-5])
    def test_mio_small_a_is_the_omega_5_gaussian(self, a):
        # (1 + a x^2)^(-2/a) -> e^(-2 x^2): the state tends to its own
        # omega_R = 5 reference, so both measures vanish.
        report = measure_report(ModifiedIsotonic(a))
        assert report.eta_ng <= 1e-8
        assert report.eta_b <= 1e-5
        assert report.fidelity_to_reference >= 1.0 - 1e-10
        assert report.det_sigma == pytest.approx(0.25, abs=1e-9)

    def test_deterministic(self):
        a = measure_report(ModifiedIsotonic(3.0))
        b = measure_report(ModifiedIsotonic(3.0))
        assert a == b

    def test_fellows_smith_p_zero_is_harmonic(self):
        # At p = 0 the supersymmetric-partner family collapses onto the
        # omega = 1 harmonic oscillator, so the whole hypergeometric pipeline
        # must reproduce the Gaussian null result.
        report = measure_report(FellowsSmith(0.0))
        assert report.eta_b <= 1e-6
        assert report.eta_ng <= 1e-6
        assert report.omega_r == pytest.approx(1.0, rel=1e-12)
        assert report.ground_energy == pytest.approx(0.5, rel=1e-12)


def exact_eta_ng(det: float) -> float:
    return entropy_oracle(math.sqrt(det))


class TestExactSeeds:
    """Outcomes that exact seed halfwidths and the exactly normalized
    reference changed, against the closed forms."""

    def test_deep_mpt_reports(self):
        # An old floor of 4/alpha gave +-4 for a state 0.006 wide: DomainError.
        spec = ModifiedPoschlTeller(1e6, 1.0)
        exact = exact_eta_ng(mpt_closed_det(spec.s))
        assert exact == pytest.approx(3.89437e-7, rel=1e-5)
        assert measure_report(spec).eta_ng == pytest.approx(exact, rel=1e-3)

    def test_deepest_mpt_keeps_its_digits(self):
        # s = 4.5e17: log cosh takes its sinh form; the expm1 form alone
        # printed eta_ng = 2.1e-8 for a state whose exact value is below 1e-17.
        spec = ModifiedPoschlTeller(1e35, 1.0)
        assert exact_eta_ng(mpt_closed_det(spec.s)) < 1e-17
        assert measure_report(spec).eta_ng <= 1e-12

    @pytest.mark.parametrize(
        "D,expected,rel",
        # D = 1e8 printed a value 19% low without a warning; D = 1e12 raised
        # DomainError. Both left sides were at least 2 wide.
        [(1e8, 5.8910974e-5, 1e-4), (1e12, 7.92608e-7, 1e-3)],
    )
    def test_deep_morse_reports(self, D, expected, rel):
        var_x, var_p = morse_closed_moments(D, 1.0)
        exact = exact_eta_ng(var_x * var_p)
        assert exact == pytest.approx(expected, rel=1e-6)
        report = measure_report(Morse(D, 1.0))
        assert report.eta_ng == pytest.approx(exact, rel=rel)
        assert report.diagnostics.warnings == ()

    def test_deepest_morse_keeps_its_digits(self):
        # N = 2.3e23: the peak-relative amplitude -N phi(d) takes phi's series
        # where e^{-d} - 1 + d cancels; without it the variances were lost.
        report = measure_report(Morse(1.5e40, 7.4e-4))
        assert report.det_sigma == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.parametrize("a", [1e20, 1e300])
    def test_unresolved_reference_exits_2_naming_it(self, a):
        # The omega_R = sqrt(25 + 12a) reference is far narrower than the
        # grid spacing; a = 1e300 printed eta_b = 0.98 with exit 0.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measure", "--potential", f"mio:a={a!r}"])
        assert code == 2 and out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: grid spacing ")
        assert "cannot resolve the reference Gaussian of omega_R" in line

    def test_low_a_mio_eta_ng(self):
        # A row of the sweep_mio golden; the old grid of +-6 left 1.6e-9.
        var_x, var_p = mio_closed_moments(0.01)
        report = measure_report(ModifiedIsotonic(0.01))
        assert report.eta_ng == pytest.approx(exact_eta_ng(var_x * var_p), abs=2e-10)

    @pytest.mark.parametrize("alpha", [0.2, 0.8, 0.9, 1.4, 2.0, 2.6])
    def test_morse_golden_fidelities_against_mpmath(self, alpha):
        # The rows of measure_morse.json and sweep_morse.csv; renormalizing the
        # reference on the state's grid had moved them by up to 5e-10.
        report = measure_report(Morse(1.0, alpha))
        expected = morse_reference_fidelity(1.0, alpha)
        assert report.fidelity_to_reference == pytest.approx(expected, abs=1e-11)


class TestReferenceGaussian:
    def test_vacuum_pass_through(self):
        cov = GaussianCovariance(var_x=0.5, var_p=0.5)
        state = reference_gaussian(cov)
        assert state.mean == (0.0, 0.0)
        assert state.covariance is cov

    def test_sech_state_covariance(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        cov = covariance_of(sized_ground_state(spec))
        state = reference_gaussian(GaussianCovariance(cov.var_x, cov.var_p, mean_x=cov.mean_x))
        assert state.covariance.var_x == pytest.approx(math.pi**2 / 12.0, rel=1e-8)
        assert state.covariance.var_p == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(UnphysicalCovarianceError):
            reference_gaussian(GaussianCovariance(var_x=0.4, var_p=0.6))  # det ~ 0.24


class TestWignerGaussian:
    def test_vacuum_at_origin(self):
        state = reference_gaussian(GaussianCovariance(var_x=0.5, var_p=0.5))
        assert wigner_gaussian(state, (0.0, 0.0)) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_peak_value_general(self):
        cov = GaussianCovariance(var_x=1.1, var_p=0.7, cov_xp=0.2, mean_x=0.3, mean_p=-0.2)
        state = reference_gaussian(cov)
        expected = 1.0 / (2.0 * math.pi * math.sqrt(cov.det))
        assert wigner_gaussian(state, (0.3, -0.2)) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_one_sigma_x(self):
        state = reference_gaussian(GaussianCovariance(var_x=0.5, var_p=0.5))
        assert wigner_gaussian(state, (1.0, 0.0)) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-12
        )

    def test_normalization_on_plane(self):
        cov = GaussianCovariance(var_x=0.9, var_p=0.5, cov_xp=0.15, mean_x=1.0, mean_p=-2.0)
        total = wigner_normalization_check(reference_gaussian(cov))
        assert total == pytest.approx(1.0, abs=1e-3)


class TestSymplecticInvariance:
    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_frequency_invariance(self, omega):
        assert measure_report(Harmonic(omega)).eta_ng <= 1e-6

    def test_displaced_gaussian_scores_zero(self):
        grid = Grid(-10.0, 16.0, 4097)
        x = grid.points()
        wf = SampledWavefunction(grid, np.exp(-((x - 3.0) ** 2) / 2.0))
        det = covariance_of(wf).det
        assert entropy_h(math.sqrt(det)) <= 1e-6


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [Morse(1.0, 1.0), ModifiedPoschlTeller(1.0, 1.0), ModifiedIsotonic(2.0), FellowsSmith(-0.5)],
    )
    def test_eta_ng_from_fd_state(self, spec):
        wf = sized_ground_state(spec)
        analytic = entropy_h(math.sqrt(covariance_of(wf).det))
        fd = entropy_h(math.sqrt(covariance_of(fd_ground_state(spec, wf.grid).wavefunction).det))
        assert fd == pytest.approx(analytic, abs=1e-4)
