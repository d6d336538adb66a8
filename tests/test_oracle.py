import numpy as np
import pytest

from nonlinosc.errors import ConvergenceError, GridError, SpecError
from nonlinosc.measures import sized_ground_state
from nonlinosc.numerics import Grid
from nonlinosc.oracle import (
    EigenResult,
    _hamiltonian,
    _solve,
    fd_ground_state,
    fidelity,
)
from nonlinosc.potentials import (
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
)
from nonlinosc.perturbation import PerturbativeState

from helpers import (
    count_negative_eigenvalues,
    morse_bound_state_count,
    perturbed_variances,
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
# The six specs of the accuracy table behind the DVR oracle.
TABLE_SET = [
    Morse(1.0, 1.0),
    Morse(2.0, 1.2),
    ModifiedIsotonic(1.0),
    ModifiedPoschlTeller(1.0, 0.7),
    FellowsSmith(-0.5),
    Harmonic(1.0),
]
# The oracle-check specs of the goldens and of the benchmark's cold commands.
GOLDEN_SET = [
    Harmonic(0.7),
    Morse(0.5, 0.4),
    Morse(2.0, 1.2),
    ModifiedPoschlTeller(1.0, 0.7),
    ModifiedPoschlTeller(3.0, 1.3),
    ModifiedIsotonic(1.0),
    FellowsSmith(-0.1),
    FellowsSmith(-0.85),
]


def solved(spec):
    return fd_ground_state(spec, sized_ground_state(spec).grid)


def dvr_matrix(spec, grid):
    """The DVR Hamiltonian on ``grid`` and its spectral norm."""
    h = _hamiltonian(spec, grid)
    return h, float(np.linalg.norm(h, 2))


class TestFdGroundState:
    def test_harmonic_energy(self):
        assert solved(Harmonic(1.0)).energy == pytest.approx(0.5, abs=1e-12)

    def test_mpt_energy(self):
        assert solved(ModifiedPoschlTeller(1.0, 1.0)).energy == pytest.approx(-0.5, abs=1e-12)

    def test_mio_energy_at_zero(self):
        assert solved(ModifiedIsotonic(8.0)).energy == pytest.approx(0.0, abs=1e-12)

    def test_morse_energy_reading_adjudication(self):
        # At alpha != 1 the quadratic-in-alpha energy matches the solver and
        # the linear-in-alpha variant misses by a wide margin.
        spec = Morse(1.0, 0.5)
        n = spec.n_index
        result = solved(spec)
        quadratic = -0.5 * spec.alpha**2 * n**2
        linear = -0.5 * spec.alpha * n**2
        assert result.energy == pytest.approx(quadratic, abs=1e-12)
        assert abs(result.energy - linear) > 0.5

    def test_wavefunction_normalized_and_positive(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        analytic_grid = sized_ground_state(spec).grid
        result = fd_ground_state(spec, analytic_grid)
        c = result.coefficients
        assert float(np.sum(c * c)) == pytest.approx(1.0, abs=1e-14)
        assert c[np.argmax(np.abs(c))] > 0.0
        assert result.grid == Grid(analytic_grid.x_min, analytic_grid.x_max, 257)

    def test_grid_too_small_rejected(self):
        with pytest.raises(GridError):
            fd_ground_state(Harmonic(1.0), Grid(-2.0, 2.0, 513))

    @pytest.mark.parametrize("spec", STANDARD_SET)
    def test_residual_bound(self, spec):
        # The returned pair is an eigenpair of the DVR Hamiltonian on its nodes.
        result = solved(spec)
        h, norm = dvr_matrix(spec, result.grid)
        c = result.coefficients
        assert float(np.linalg.norm(h @ c - result.energy * c)) <= 64.0 * _EPS * norm

    @pytest.mark.parametrize("spec", STANDARD_SET)
    def test_overlap_with_analytic_state(self, spec):
        assert fidelity(spec, solved(spec)) >= 1.0 - 1e-12

    def test_harmonic_eta_ng_in_excess_form(self):
        # det sigma - 1/4 = var_x |Dc + (x - mu) c/(2 var_x)|^2 is left only with the
        # sinc derivative's cut at the tail (2e-10 at the end nodes); as
        # var_x var_p - 1/4 it was eigh's rounding, and eta_ng printed 4.9e-13.
        spec = Harmonic(0.7)
        result = solved(spec)
        assert 0.0 <= result.eta_ng <= 1e-17
        _, excess, _ = _solve(spec, result.grid)
        assert 0.25 + excess == 0.25

    def test_iterations_reported(self):
        # Two solves, 129 and 257 nodes, when the first move is already below tolerance.
        assert solved(Harmonic(1.0)).iterations == 2

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


class TestLadder:
    @pytest.mark.parametrize("spec", TABLE_SET, ids=repr)
    def test_energy_at_the_stop_matches_closed_form(self, spec):
        energy = spec.energy()
        assert abs(solved(spec).energy - energy) <= 1e-12 * max(1.0, abs(energy))

    @pytest.mark.parametrize("spec", GOLDEN_SET, ids=repr)
    def test_move_from_129_to_257_nodes(self, spec):
        grid = sized_ground_state(spec).grid
        result = fd_ground_state(spec, grid)
        assert (result.grid.n_points, result.iterations) == (257, 2)
        assert result.energy_error <= 5e-13 * max(1.0, abs(result.energy))
        _, excess_coarse, _ = _solve(spec, Grid(grid.x_min, grid.x_max, 129))
        _, excess, _ = _solve(spec, result.grid)
        assert abs(excess - excess_coarse) <= 5e-13

    def test_a_long_tail_climbs_the_ladder(self):
        # MIO a = 30 has an inner scale 1/sqrt(a): 257 nodes leave E 2.5e-9 off.
        spec = ModifiedIsotonic(30.0)
        result = solved(spec)
        assert (result.grid.n_points, result.iterations) == (513, 3)
        assert result.energy == pytest.approx(spec.energy(), abs=1e-12)

    def test_still_moving_at_the_cap_is_a_named_error(self):
        spec = Morse(1.0, 2.6)
        grid = sized_ground_state(spec).grid
        with pytest.raises(ConvergenceError, match=(
            r"^the DVR oracle has not converged at 1025 nodes over \[-1\.63512, 171\.391\]: "
            r"its last moves are \|dE\| = \S+ and \|d eta_ng\| = \S+$"
        )):
            fd_ground_state(spec, grid)

    def test_ground_state_lost_to_rounding_is_a_named_error(self):
        # V = x^2/2 + ... - 4e169: the float range keeps no x dependence of V.
        spec = ModifiedIsotonic(1e-169)
        with pytest.raises(ConvergenceError, match="is lost to rounding"):
            solved(spec)


class TestEigenvalueAgainstLapack:
    # The pair numpy's eigh returns is checked against scipy's LAPACK driver
    # on the same DVR matrix, a test-only reference.
    @pytest.mark.parametrize(
        "spec,n_points", [(s, 4097) for s in STANDARD_SET] + [(FellowsSmith(-0.9), 16385)]
    )
    def test_energy_matches_lapack(self, spec, n_points):
        linalg = pytest.importorskip("scipy.linalg")
        result = fd_ground_state(spec, sized_ground_state(spec, n_points=n_points).grid)
        h, norm = dvr_matrix(spec, result.grid)
        reference = linalg.eigh(h, eigvals_only=True, subset_by_index=(0, 0), driver="evr")[0]
        assert abs(result.energy - reference) <= 4.0 * _EPS * norm

    @pytest.mark.parametrize("spec", [FellowsSmith(-0.5), FellowsSmith(-0.9)])
    def test_nothing_below_near_degenerate_ground_state(self, spec):
        # Double and triple wells: the energy returned is the lowest eigenvalue.
        linalg = pytest.importorskip("scipy.linalg")
        result = solved(spec)
        h, norm = dvr_matrix(spec, result.grid)
        below = linalg.eigh(h, eigvals_only=True, driver="evr",
                            subset_by_value=(-np.inf, result.energy - 4.0 * _EPS * norm))
        assert below.size == 0


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
        with pytest.raises(SpecError):
            count_negative_eigenvalues(Harmonic(1.0), Grid(-10.0, 10.0, 1025))
        with pytest.raises(SpecError):
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
        result = solved(Harmonic(1.0))
        assert isinstance(result, EigenResult)
        with pytest.raises(AttributeError):
            result.energy = 0.0
