import math

import numpy as np
import pytest

from nonlinosc.errors import GridError, SpecError, UnsupportedSpecError
from nonlinosc.numerics import (
    Grid,
    overlap,
    simpson_integral,
    sized_ground_state,
)
from nonlinosc.oracle import (
    EigenResult,
    _tridiagonal_hamiltonian,
    fd_ground_state,
)
from nonlinosc.potentials import (
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
)
from nonlinosc.perturbation import PerturbativeState, perturbed_variances

from helpers import (
    count_negative_eigenvalues,
    eigenvalues_at_or_below,
    morse_bound_state_count,
    refined,
    sample_ground_state,
    three_term_state,
)

_EPS = np.finfo(float).eps

STANDARD_SET = [
    Morse(1.0, 0.5),
    Morse(1.0, 1.0),
    Morse(2.0, 1.5),
    ModifiedPoschlTeller(1.0, 0.5),
    ModifiedPoschlTeller(1.0, 1.0),
    ModifiedPoschlTeller(3.0, 1.0),
    ModifiedIsotonic(0.5),
    ModifiedIsotonic(2.0),
    ModifiedIsotonic(8.0),
    FellowsSmith(-0.1),
    FellowsSmith(-0.5),
    FellowsSmith(-0.9),
]


def h_scale(spec, grid):
    from nonlinosc.potentials import evaluate_potential

    v = np.asarray(evaluate_potential(spec, grid.points()[1:-1]))
    return float(np.max(np.abs(1.0 / grid.spacing**2 + v))) + 1.0 / grid.spacing**2


class TestFdGroundState:
    def test_harmonic_energy(self):
        result = fd_ground_state(Harmonic(1.0), sized_ground_state(Harmonic(1.0)).grid)
        assert result.energy == pytest.approx(0.5, abs=1e-6)

    def test_mpt_energy(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        result = fd_ground_state(spec, sized_ground_state(spec).grid)
        assert result.energy == pytest.approx(-0.5, abs=1e-5)

    def test_mio_energy_at_zero(self):
        spec = ModifiedIsotonic(8.0)
        result = fd_ground_state(spec, sized_ground_state(spec).grid)
        assert result.energy == pytest.approx(0.0, abs=1e-5)

    def test_morse_energy_reading_adjudication(self):
        # At alpha != 1 the quadratic-in-alpha energy matches the solver and
        # the linear-in-alpha variant misses by a wide margin.
        spec = Morse(1.0, 0.5)
        n = spec.n_index
        result = fd_ground_state(spec, sized_ground_state(spec).grid)
        quadratic = -0.5 * spec.alpha**2 * n**2
        linear = -0.5 * spec.alpha * n**2
        assert result.energy == pytest.approx(quadratic, abs=1e-5)
        assert abs(result.energy - linear) > 0.5

    def test_wavefunction_normalized_and_positive(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        result = fd_ground_state(spec, sized_ground_state(spec).grid)
        wf = result.wavefunction
        assert simpson_integral(wf.amplitude**2, wf.grid.spacing) == pytest.approx(1.0, abs=1e-12)
        assert wf.amplitude[np.argmax(np.abs(wf.amplitude))] > 0.0
        assert wf.amplitude[0] == 0.0 and wf.amplitude[-1] == 0.0

    def test_grid_too_small_rejected(self):
        with pytest.raises(GridError):
            fd_ground_state(Harmonic(1.0), Grid(-2.0, 2.0, 513))

    @pytest.mark.parametrize("spec", STANDARD_SET)
    def test_residual_bound(self, spec):
        grid = sized_ground_state(spec).grid
        result = fd_ground_state(spec, grid)
        # Spec bound, with a machine-precision floor for eigenvalues near 0
        # (|E| ~ 1e-5 makes 1e-8 |E| unreachable in float64).
        hw_norm = abs(result.energy) * math.sqrt(
            float(np.sum(result.wavefunction.amplitude**2))
        )
        floor = 64.0 * _EPS * h_scale(spec, grid)
        assert result.residual <= max(1e-8 * hw_norm, floor)

    @pytest.mark.parametrize("spec", STANDARD_SET)
    def test_overlap_with_analytic_state(self, spec):
        analytic = sized_ground_state(spec)
        fd = fd_ground_state(spec, analytic.grid)
        assert overlap(analytic, fd.wavefunction) >= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "spec",
        [Harmonic(1.0), Morse(1.0, 1.0), ModifiedPoschlTeller(1.0, 1.0), ModifiedIsotonic(2.0)],
    )
    def test_second_order_convergence(self, spec):
        grid = sized_ground_state(spec).grid
        exact = spec.energy()
        err_coarse = fd_ground_state(spec, grid).energy - exact
        err_fine = fd_ground_state(spec, refined(grid)).energy - exact
        ratio = err_coarse / err_fine
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2

    def test_iterations_reported(self):
        result = fd_ground_state(Harmonic(1.0), sized_ground_state(Harmonic(1.0)).grid)
        assert 1 <= result.iterations <= 30

    def test_quartic_perturbed_matches_second_order_energy(self):
        # Quartic-only perturbation at omega = 1: second-order theory gives
        # E = 1/2 + (3/4) eps4 - (21/8) eps4^2 with matrix elements
        # <2|x^4|0> = 3/sqrt(2) and <4|x^4|0> = sqrt(24)/4. The perturbed
        # state has no closed amplitude; its harmonic part sizes the grid.
        from nonlinosc.potentials import PerturbedHarmonic

        eps4 = 0.02
        spec = PerturbedHarmonic(1.0, 0.0, eps4)
        result = fd_ground_state(spec, sized_ground_state(Harmonic(1.0)).grid)
        first_order = 0.5 + 0.75 * eps4
        second_order = first_order - 2.625 * eps4**2
        assert result.energy == pytest.approx(second_order, abs=5e-4)
        assert abs(result.energy - second_order) < abs(result.energy - first_order)


class TestEigenvalueAgainstLapack:
    # The solver's bisection and L D L^T inverse iteration are checked
    # against scipy's LAPACK tridiagonal eigensolver, a test-only reference.
    @pytest.mark.parametrize(
        "spec,n_points", [(s, 4097) for s in STANDARD_SET] + [(FellowsSmith(-0.9), 16385)]
    )
    def test_energy_matches_lapack(self, spec, n_points):
        linalg = pytest.importorskip("scipy.linalg")
        grid = sized_ground_state(spec, n_points=n_points).grid
        diag, off = _tridiagonal_hamiltonian(spec, grid)
        reference = linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
        energy = fd_ground_state(spec, grid).energy
        assert abs(energy - reference) <= 4.0 * _EPS * h_scale(spec, grid)

    @pytest.mark.parametrize("spec", [FellowsSmith(-0.5), FellowsSmith(-0.9)])
    def test_nothing_below_near_degenerate_ground_state(self, spec):
        # Double and triple wells: the energy returned is the lowest eigenvalue.
        grid = sized_ground_state(spec).grid
        diag, off = _tridiagonal_hamiltonian(spec, grid)
        energy = fd_ground_state(spec, grid).energy
        assert eigenvalues_at_or_below(diag, off, energy - 4.0 * _EPS * h_scale(spec, grid)) == 0


class TestCountNegativeEigenvalues:
    def test_morse_four_states(self):
        assert count_negative_eigenvalues(Morse(8.0, 1.0), Grid(-8.0, 60.0, 8193)) == 4

    def test_morse_matches_formula_count(self):
        assert morse_bound_state_count(1.0, 2.5) == 1
        assert count_negative_eigenvalues(Morse(1.0, 2.5), Grid(-3.0, 120.0, 8193)) == 1

    def test_beyond_limit_not_constructible(self):
        # alpha > 2 sqrt(2D) has no bound state; the potential type refuses
        # it and the closed-form count confirms zero.
        with pytest.raises(SpecError):
            Morse(1.0, 2.9)
        assert morse_bound_state_count(1.0, 2.9) == 0

    def test_mpt_single_state(self):
        assert count_negative_eigenvalues(ModifiedPoschlTeller(1.0, 1.0), Grid(-25.0, 25.0, 4097)) == 1

    def test_confining_potentials_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            count_negative_eigenvalues(Harmonic(1.0), Grid(-10.0, 10.0, 1025))
        with pytest.raises(UnsupportedSpecError):
            count_negative_eigenvalues(ModifiedIsotonic(1.0), Grid(-10.0, 10.0, 1025))


class TestFockCovariance:
    """Exact moments of the three-term number-basis state against the
    printed perturbative variances."""

    def test_vacuum(self):
        vacuum_overlap, var_x, var_p = three_term_state(0.0, 0.0)
        assert vacuum_overlap == 1.0
        assert var_x == pytest.approx(0.5, abs=1e-14)
        assert var_p == pytest.approx(0.5, abs=1e-14)

    def test_matches_printed_variances_spot(self):
        _, var_x, oracle_var_p = three_term_state(0.0, -0.2)
        var_q, var_p = perturbed_variances(PerturbativeState(0.0, -0.2))
        assert var_x == pytest.approx(var_q, abs=1e-12)
        assert oracle_var_p == pytest.approx(var_p, abs=1e-12)

    def test_matches_printed_variances_with_odd_part(self):
        _, var_x, oracle_var_p = three_term_state(0.3, 0.1)
        var_q, var_p = perturbed_variances(PerturbativeState(0.3, 0.1))
        assert var_x == pytest.approx(var_q, abs=1e-12)
        assert oracle_var_p == pytest.approx(var_p, abs=1e-12)

    def test_printed_variances_ensemble(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a1, a2 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
            _, var_x, oracle_var_p = three_term_state(a1, a2)
            var_q, var_p = perturbed_variances(PerturbativeState(a1, a2))
            assert var_x == pytest.approx(var_q, abs=1e-12)
            assert oracle_var_p == pytest.approx(var_p, abs=1e-12)


class TestEigenResultType:
    def test_immutable(self):
        result = fd_ground_state(Harmonic(1.0), sized_ground_state(Harmonic(1.0)).grid)
        assert isinstance(result, EigenResult)
        with pytest.raises(AttributeError):
            result.energy = 0.0
