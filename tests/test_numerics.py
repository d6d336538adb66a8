import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nonlinosc.errors import GridError, NormalizationError
from nonlinosc.measures import measure_report, sized_ground_state
from nonlinosc.numerics import (
    CovarianceMatrix,
    Grid,
    SampledWavefunction,
    covariance_of,
    sample_ground_state,
)
from nonlinosc.potentials import (
    P_PLUS,
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
)

from helpers import (
    GaussianCovariance,
    closed_excess,
    fs_log_derivative,
    mio_closed_moments,
    morse_closed_moments,
    mpt_closed_det,
    overlap,
    refined,
    report_extent,
    resampled_overlap,
    sech_state_moments,
)

EVEN_SPECS = [
    Harmonic(1.0),
    ModifiedPoschlTeller(1.0, 1.0),
    ModifiedIsotonic(2.0),
    FellowsSmith(-0.5),
]
SMALL_CATALOG = EVEN_SPECS + [Morse(1.0, 1.0), Morse(1.0, 2.0)]


def gaussian_wavefunction(grid: Grid, center: float = 0.0, width_sq: float = 1.0):
    x = grid.points()
    amp = np.exp(-((x - center) ** 2) / (4.0 * width_sq))
    return SampledWavefunction(grid, amp, -(x - center) / (2.0 * width_sq))


def odd_wavefunction(grid: Grid):
    """x e^{-x^2/2}, whose log-derivative 1/x - x is infinite at a node at 0."""
    x = grid.points()
    with np.errstate(divide="ignore"):
        return SampledWavefunction(grid, x * np.exp(-(x**2) / 2.0), 1.0 / x - x)


def both_ends(x_min: float, x_max: float, n: int) -> np.ndarray:
    """x_min + k h on the left half, the midpoint, and x_max - k h on the
    right half, in Python floats."""
    h, half = (x_max - x_min) / (n - 1), n // 2
    left = [x_min + k * h for k in range(half)]
    right = [x_max - k * h for k in reversed(range(half))]
    return np.array(left + [x_min + 0.5 * (x_max - x_min)] + right)


class TestGrid:
    def test_spacing(self):
        g = Grid(-1.0, 1.0, 201)
        assert g.spacing == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(GridError):
            Grid(1.0, -1.0, 201)
        with pytest.raises(GridError):
            Grid(-1.0, 1.0, 64)
        with pytest.raises(GridError, match="odd n_points"):
            Grid(-1.0, 1.0, 200)
        with pytest.raises(GridError, match="grid bounds must be finite"):
            Grid(-math.inf, 1.0, 129)

    def test_refined_halves_spacing(self):
        g = Grid(-1.0, 1.0, 201)
        assert refined(g).spacing == pytest.approx(g.spacing / 2.0)

    def test_points_step_in_from_both_ends(self):
        # The left half is np.linspace's, bit for bit; the right half steps
        # down from x_max, so it differs from np.linspace by an ulp at some nodes.
        g = Grid(-3.7, 11.3, 4097)
        nodes = g.points()
        assert nodes.tobytes() == both_ends(-3.7, 11.3, 4097).tobytes()
        assert nodes[:2048].tobytes() == np.linspace(-3.7, 11.3, 4097)[:2048].tobytes()
        assert (nodes[-1], nodes[2048]) == (11.3, 3.8)
        assert g.points() is nodes

    def test_points_are_read_only(self):
        nodes = Grid(-1.0, 1.0, 201).points()
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            nodes *= 2.0

    def test_derived_grids_get_their_own_nodes(self):
        g = Grid(-1.0, 1.0, 201)
        nodes = g.points()
        for other in (refined(g), dataclasses.replace(g, x_max=2.0)):
            assert other.points() is not nodes
            expected = both_ends(other.x_min, other.x_max, other.n_points)
            assert other.points().tobytes() == expected.tobytes()
        assert g.points() is nodes


class TestAutoGrid:
    """Grid sizing through ``sized_ground_state``."""

    def test_harmonic_span_covers_tail(self):
        g = sized_ground_state(Harmonic(1.0), 1e-8).grid
        assert g.x_min <= -6.07 and g.x_max >= 6.07

    def test_near_limit_morse_extends_far_right(self):
        g = sized_ground_state(Morse(1.0, 2.7)).grid
        assert g.x_max > 100.0
        assert g.x_min > -5.0

    def test_tail_target_validation(self):
        # The default tail is the loosest accepted.
        with pytest.raises(GridError):
            sized_ground_state(Harmonic(1.0), target_tail=math.nextafter(1e-8, 1.0))
        with pytest.raises(GridError):
            sized_ground_state(Harmonic(1.0), target_tail=1e-3)
        with pytest.raises(GridError):
            sized_ground_state(Harmonic(1.0), target_tail=0.0)

    def test_pathologically_wide_state_spans_its_seed(self):
        # So close to the bound-state limit that the state is 13,735 wide with
        # a peak about 1/alpha = 0.35 wide: 4,097 points do not resolve it,
        # and 262,145 give the closed-form det sigma.
        spec = Morse(1.0, 0.999 * 2.0 * math.sqrt(2.0))
        x_min, x_max = report_extent(spec)
        wf = sized_ground_state(spec)
        assert (wf.grid.x_min, wf.grid.x_max) == (x_min, x_max)
        # The right side is the state's seed; the left one widens toward the reference's.
        assert x_max == spec.seed_halfwidths(math.log(1e8))[1] > 13000.0
        assert x_min < -spec.seed_halfwidths(math.log(1e8))[0] and wf.tail_ratio <= 1e-8
        with pytest.raises(GridError, match="the grid does not resolve the state"):
            measure_report(spec)
        var_x, var_p = morse_closed_moments(spec.D, spec.alpha)
        report = measure_report(spec, n_points=262145)
        assert report.det_sigma == pytest.approx(var_x * var_p, rel=1e-12)

    def test_seed_that_misses_its_tail_is_a_grid_error(self, monkeypatch):
        monkeypatch.setattr(Harmonic, "seed_halfwidths", lambda self, depth: (8.0, 3.0))
        with pytest.raises(GridError, match=r"harmonic seed misses the right tail \(end/peak"):
            sized_ground_state(Harmonic(1.0))

    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_tail_condition_met_on_catalog(self, spec):
        wf = sized_ground_state(spec, 1e-8)
        assert wf.tail_ratio <= 1e-8


def count_amplitude_calls(monkeypatch, spec) -> list:
    """Grids on which the log amplitude of ``spec`` is evaluated."""
    grids = []
    original = type(spec).log_amplitude

    def counted(other, x):
        if other is spec:
            grids.append((float(x[0]), float(x[-1]), x.size))
        return original(other, x)

    monkeypatch.setattr(type(spec), "log_amplitude", counted)
    return grids


class TestSizedGroundState:
    """Reports size the grid on the sample they keep."""

    @pytest.mark.parametrize(
        "spec",
        [Harmonic(1.0), Morse(1.0, 1.0), ModifiedPoschlTeller(1.0, 0.5), ModifiedIsotonic(2.0),
         # Long tails: halfwidths 6.21 for MIO a = 100 and 12.39 for MPT s = 3.53.
         ModifiedIsotonic(100.0), ModifiedPoschlTeller(2.0, 0.5)],
        ids=["harmonic", "morse", "mpt", "mio", "mio-100", "mpt-s3.5"],
    )
    def test_report_without_growth_evaluates_its_amplitude_once(self, spec, monkeypatch):
        # An even state is evaluated once on the 2,049 nodes x >= 0 of its
        # symmetric grid, Morse once on all 4,097, of its left side widened
        # toward the reference's seed.
        grids = count_amplitude_calls(monkeypatch, spec)
        report = measure_report(spec)
        x_min, x_max = report_extent(spec)
        assert grids == [(0.0, x_max, 2049) if spec.even else (x_min, x_max, 4097)]
        assert (report.diagnostics.grid.x_min, report.diagnostics.grid.x_max) == (x_min, x_max)
        # Of these, only Morse's reference is wider than its state, on the left.
        left, right = spec.seed_halfwidths(math.log(1e8))
        assert (x_min < -left if spec.kind == "morse" else x_min == -left) and x_max == right
        assert report.diagnostics.tail_ratio <= 1e-8

    @pytest.mark.parametrize(
        "spec",
        [Harmonic(1.3), Morse(1.0, 2.7), ModifiedPoschlTeller(2.0, 1.0), ModifiedIsotonic(100.0),
         FellowsSmith(-0.6)],
        ids=lambda spec: spec.kind,
    )
    def test_report_sample_is_the_public_path_bit_for_bit(self, spec):
        # An even state's half-grid sample, mirrored, is a whole-grid pass's amplitude.
        kept = sized_ground_state(spec)
        log_amp, log_derivative = spec.log_amplitude(kept.grid.points())
        whole = SampledWavefunction(kept.grid, np.exp(log_amp), log_derivative)
        assert kept.amplitude.tobytes() == whole.amplitude.tobytes()
        report = measure_report(spec)
        assert report.diagnostics.grid == kept.grid
        assert report.det_sigma == 0.25 + covariance_of(kept).excess

    @pytest.mark.parametrize("n_points", [129, 513, 1025, 4097, 8193])
    def test_near_threshold_morse_spans_its_seed_at_every_point_count(self, n_points):
        # The state is 304 wide: below 4,097 points the half-grid check
        # fails; from there det sigma is the closed form's.
        spec = Morse(1.0, 2.7)
        wf = sized_ground_state(spec, n_points=n_points)
        assert wf.grid.x_max == spec.seed_halfwidths(math.log(1e8))[1]
        assert wf.tail_ratio <= 1e-8
        if n_points < 4097:
            with pytest.raises(GridError, match="the grid does not resolve the state"):
                measure_report(spec, n_points=n_points)
        else:
            var_x, var_p = morse_closed_moments(spec.D, spec.alpha)
            report = measure_report(spec, n_points=n_points)
            assert report.det_sigma == pytest.approx(var_x * var_p, rel=1e-12)


class TestNormalize:
    def test_idempotent(self):
        wf = gaussian_wavefunction(Grid(-10.0, 10.0, 2049))
        again = SampledWavefunction(wf.grid, wf.amplitude, wf.log_derivative)
        assert np.allclose(again.amplitude, wf.amplitude, rtol=1e-12, atol=0.0)

    def test_scaling_by_half(self):
        grid = Grid(-10.0, 10.0, 2049)
        wf = gaussian_wavefunction(grid)
        doubled = 2.0 * wf.amplitude
        renorm = SampledWavefunction(grid, doubled, wf.log_derivative)
        assert np.allclose(renorm.amplitude, doubled / 2.0, rtol=1e-13)

    def test_zero_norm_raises(self):
        with pytest.raises(NormalizationError):
            SampledWavefunction(Grid(-1.0, 1.0, 201), np.zeros(201), np.zeros(201))
        with pytest.raises(NormalizationError):
            SampledWavefunction(Grid(-1.0, 1.0, 201), np.full(201, np.inf), np.zeros(201))


class TestCovariance:
    def test_harmonic_omega_two(self):
        spec = Harmonic(2.0)
        cov = covariance_of(sized_ground_state(spec))
        assert cov.var_x == pytest.approx(0.25, rel=1e-9)
        assert cov.var_p == pytest.approx(1.0, rel=1e-9)
        assert 0.25 + cov.excess == pytest.approx(0.25, rel=1e-9)

    def test_sech_state_closed_moments(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        cov = covariance_of(sized_ground_state(spec))
        assert cov.var_x == pytest.approx(math.pi**2 / 12.0, rel=1e-8)
        assert cov.var_p == pytest.approx(1.0 / 3.0, rel=1e-8)
        var_x_mp, var_p_mp = sech_state_moments(1.0)
        assert cov.var_x == pytest.approx(var_x_mp, rel=1e-8)
        assert cov.var_p == pytest.approx(var_p_mp, rel=1e-8)

    def test_general_sech_power_against_quadrature(self):
        spec = ModifiedPoschlTeller(3.0, 1.0)  # s = 2
        cov = covariance_of(sized_ground_state(spec))
        var_x_mp, var_p_mp = sech_state_moments(spec.s)
        assert cov.var_x == pytest.approx(var_x_mp, rel=1e-8)
        assert cov.var_p == pytest.approx(var_p_mp, rel=1e-8)

    def test_morse_closed_moments(self):
        spec = Morse(1.0, 1.0)
        cov = covariance_of(sized_ground_state(spec))
        var_x, var_p = morse_closed_moments(1.0, 1.0)
        assert cov.var_x == pytest.approx(var_x, rel=1e-7)
        assert cov.var_p == pytest.approx(var_p, rel=1e-7)

    @pytest.mark.parametrize("s", [0.0205, 0.1, 0.5, 1.0, 3.7, 50.0, 1414.0])
    def test_mpt_closed_det_against_sech_quadrature(self, s):
        var_x, var_p = sech_state_moments(s)
        assert mpt_closed_det(s) == pytest.approx(var_x * var_p, rel=1e-14)

    # 0.019 is where mpmath's U at 40 digits is off by 1e-9.
    @pytest.mark.parametrize("a", [1e-3, 0.019, 0.1, 1.0, 6.58, 100.0, 1e4])
    def test_mio_closed_moments_against_quadrature(self, a):
        with mp.workdps(30):
            def density(u):
                return mp.exp(-(u**2)) * (1 + a * u**2) ** (-4 / mp.mpf(a))

            breaks = [0, 0.5, 1, 2, 4, 10, mp.inf]
            norm = mp.quad(density, breaks)
            var_x = mp.quad(lambda u: u**2 * density(u), breaks) / norm
            var_p = mp.quad(lambda u: (u * (1 + 4 / (1 + a * u**2))) ** 2 * density(u),
                            breaks) / norm
        closed = mio_closed_moments(a)
        assert closed[0] == pytest.approx(float(var_x), rel=1e-14)
        assert closed[1] == pytest.approx(float(var_p), rel=1e-14)

    def test_shifted_gaussian(self):
        wf = gaussian_wavefunction(Grid(-9.0, 15.0, 4097), center=3.0, width_sq=0.5)
        cov = covariance_of(wf)
        assert cov.mean_x == pytest.approx(3.0, abs=1e-10)
        assert cov.var_x == pytest.approx(0.5, rel=1e-9)

    def test_amplitude_is_read_only(self):
        wf = gaussian_wavefunction(Grid(-5.0, 5.0, 257))
        before = covariance_of(wf)
        with pytest.raises(ValueError):
            wf.amplitude[:] *= 2.0
        with pytest.raises(ValueError):
            wf.amplitude[0] = 1.0
        assert covariance_of(wf) == before

    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_heisenberg_bound(self, spec):
        cov = covariance_of(sized_ground_state(spec))
        assert cov.var_x * cov.var_p >= 0.25 - 1e-6

    @pytest.mark.parametrize("spec", EVEN_SPECS)
    def test_parity_zero_mean(self, spec):
        cov = covariance_of(sized_ground_state(spec))
        assert abs(cov.mean_x) <= 1e-8


class TestOverlap:
    def test_self_overlap_unity(self):
        spec = ModifiedPoschlTeller(1.0, 1.0)
        wf = sized_ground_state(spec)
        assert overlap(wf, wf) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_pair_closed_form(self):
        wf1 = sized_ground_state(Harmonic(1.0))
        wf4 = sized_ground_state(Harmonic(4.0))
        expected = math.sqrt(2.0 * math.sqrt(4.0) / 5.0)
        assert resampled_overlap(wf1, wf4) == pytest.approx(expected, abs=1e-5)

    def test_gaussian_pair_same_grid_tight(self):
        grid = sized_ground_state(Harmonic(1.0)).grid
        wf1 = sample_ground_state(Harmonic(1.0), grid)
        wf4 = sample_ground_state(Harmonic(4.0), grid)
        expected = math.sqrt(2.0 * math.sqrt(4.0) / 5.0)
        assert overlap(wf1, wf4) == pytest.approx(expected, abs=1e-9)

    def test_parity_orthogonality(self):
        grid = Grid(-12.0, 12.0, 4097)
        even = gaussian_wavefunction(grid, width_sq=0.5)
        assert overlap(even, odd_wavefunction(grid)) == pytest.approx(0.0, abs=1e-9)


# The states of the accuracy table behind the node-sum rule: MIO a = 0.01 and
# 1, Morse (1, 1) and (1e4, 0.05), MPT s = 10 and 0.5, FS p = -0.5 and -0.9.
EXCESS_TABLE = [
    ModifiedIsotonic(0.01),
    ModifiedIsotonic(1.0),
    Morse(1.0, 1.0),
    Morse(1e4, 0.05),
    ModifiedPoschlTeller(55.0, 1.0),
    ModifiedPoschlTeller(0.375, 1.0),
    FellowsSmith(-0.5),
    FellowsSmith(-0.9),
]


class TestExcess:
    """det sigma - 1/4 as a sum of squares of node sums with exact log-derivatives."""

    @pytest.mark.parametrize("spec", EXCESS_TABLE, ids=repr)
    def test_matches_the_closed_form(self, spec):
        excess = covariance_of(sized_ground_state(spec)).excess
        assert excess == pytest.approx(closed_excess(spec), rel=1e-11)

    @pytest.mark.parametrize("spec", EXCESS_TABLE, ids=repr)
    def test_det_is_a_quarter_plus_the_excess(self, spec):
        cov = covariance_of(sized_ground_state(spec))
        assert 0.25 + cov.excess == pytest.approx(cov.var_x * cov.var_p, rel=1e-13)

    @pytest.mark.parametrize("omega", [0.01, 1.0, 1e4])
    def test_a_gaussian_keeps_its_excess_at_rounding_squared(self, omega):
        assert covariance_of(sized_ground_state(Harmonic(omega))).excess <= 1e-28

    @pytest.mark.parametrize("p", [0.0, -0.1, P_PLUS, -0.5, -0.9, -0.999])
    def test_fellows_smith_log_derivative_from_one_kummer_pass(self, p):
        x = np.linspace(-9.0, 9.0, 37)
        _, slope = FellowsSmith(p).log_amplitude(x)
        for value, got in zip(x, slope):
            expected = fs_log_derivative(p, float(value))
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), (value, got)


class TestRichardsonSelfConsistency:
    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_halving_stability(self, spec):
        grid = sized_ground_state(spec).grid
        fine = refined(grid)
        cov_c = covariance_of(sample_ground_state(spec, grid))
        cov_f = covariance_of(sample_ground_state(spec, fine))
        assert abs(cov_c.var_x - cov_f.var_x) <= 1e-7
        assert abs(cov_c.var_p - cov_f.var_p) <= 1e-7
        # The report's overlap, with the reference Gaussian kept at its exact norm;
        # the seed's extent does not depend on the point count.
        fid_c, fid_f = (measure_report(spec, n_points=g.n_points).fidelity_to_reference
                        for g in (grid, fine))
        assert (fid_c is None and fid_f is None) or abs(fid_c - fid_f) <= 1e-7


class TestCovarianceMatrixType:
    def test_rejects_non_positive_variance(self):
        with pytest.raises(GridError):
            CovarianceMatrix(var_x=0.0, var_p=1.0, excess=0.25)

    def test_names_an_overflow_before_a_vanished_variance(self):
        with pytest.raises(GridError, match=r"^<x\^2> = inf overflowed the float range$"):
            CovarianceMatrix(var_x=math.inf, var_p=0.0, excess=0.25)

    def test_det_includes_cross_term(self):
        # The cross term lives in the tests' general Gaussian record; a real
        # state's CovarianceMatrix is diagonal.
        cov = GaussianCovariance(var_x=1.0, var_p=1.0, cov_xp=0.5)
        assert cov.det == pytest.approx(0.75)
