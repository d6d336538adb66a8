import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nonlinosc import numerics
from nonlinosc.errors import (
    GridError,
    GridGrowthExhaustedError,
    IncompatibleDomainError,
    NormalizationError,
    UnsupportedSpecError,
)
from nonlinosc.measures import measure_report
from nonlinosc.numerics import (
    CovarianceMatrix,
    Grid,
    SampledWavefunction,
    _simpson_weights,
    covariance_of,
    overlap,
    simpson_integral,
    sized_ground_state,
)
from nonlinosc.potentials import (
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    PerturbedHarmonic,
)

from helpers import (
    GaussianCovariance,
    mio_closed_moments,
    morse_closed_moments,
    mpt_closed_det,
    refined,
    resampled_overlap,
    sample_ground_state,
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
    return SampledWavefunction(grid, amp)


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

    def test_refined_halves_spacing(self):
        g = Grid(-1.0, 1.0, 201)
        assert refined(g).spacing == pytest.approx(g.spacing / 2.0)

    def test_points_are_linspace_bit_for_bit(self):
        g = Grid(-3.7, 11.3, 4097)
        nodes = g.points()
        assert nodes.tobytes() == np.linspace(-3.7, 11.3, 4097).tobytes()
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
            expected = np.linspace(other.x_min, other.x_max, other.n_points)
            assert other.points().tobytes() == expected.tobytes()
        assert g.points() is nodes


class TestSimpson:
    def test_polynomial_exact(self):
        # Simpson integrates cubics exactly.
        x = np.linspace(0.0, 2.0, 201)
        assert simpson_integral(x**3, x[1] - x[0]) == pytest.approx(4.0, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 200, 4096])
    def test_even_or_too_few_points_are_rejected(self, n):
        x = np.linspace(0.0, 1.0, n)
        with pytest.raises(GridError, match=f"odd number of points >= 3, got {n}"):
            simpson_integral(x**2, x[1] - x[0])

    @pytest.mark.parametrize("n", [201, 4097])
    def test_cached_weights_give_the_fresh_weight_result(self, n):
        values = np.exp(-np.linspace(-6.0, 6.0, n) ** 2)
        h = 12.0 / (n - 1)
        weights = np.ones(n)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        expected = float(np.dot(weights, values)) * h / 3.0
        for _ in range(2):
            assert simpson_integral(values, h) == expected

    def test_cached_weights_are_read_only(self):
        values = np.ones(201)
        before = simpson_integral(values, 0.01)
        weights = _simpson_weights(201)
        with pytest.raises(ValueError):
            weights[1] = 0.0
        assert _simpson_weights(201) is weights
        assert simpson_integral(values, 0.01) == before


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
        with pytest.raises(GridError):
            sized_ground_state(Harmonic(1.0), target_tail=1e-3)
        with pytest.raises(GridError):
            sized_ground_state(Harmonic(1.0), target_tail=0.0)

    def test_pathologically_wide_state_exhausts_growth(self):
        # So close to the bound-state limit that the amplitude is still at
        # ~75% of its peak at the |x| = 200 cap.
        with pytest.raises(GridGrowthExhaustedError):
            sized_ground_state(Morse(1.0, 0.999 * 2.0 * math.sqrt(2.0)))

    def test_seed_that_misses_its_tail_is_a_grid_error(self, monkeypatch):
        monkeypatch.setattr(Harmonic, "seed_halfwidths", lambda self, depth: (8.0, 3.0))
        with pytest.raises(GridError, match=r"harmonic seed misses the right tail \(end/peak"):
            sized_ground_state(Harmonic(1.0))

    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_tail_condition_met_on_catalog(self, spec):
        wf = sized_ground_state(spec, 1e-8)
        assert wf.tail_ratio <= 1e-8


def count_amplitude_calls(monkeypatch, spec) -> list:
    """Grids on which ``numerics`` evaluates the log amplitude of ``spec``."""
    grids = []
    original = numerics.ground_state_log_amplitude

    def counted(other, x):
        if other is spec:
            grids.append((float(x[0]), float(x[-1]), x.size))
        return original(other, x)

    monkeypatch.setattr(numerics, "ground_state_log_amplitude", counted)
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
        grids = count_amplitude_calls(monkeypatch, spec)
        report = measure_report(spec)
        left, right = spec.seed_halfwidths(math.log(1e8))
        assert grids == [(-left, right, 4097)]
        assert (report.diagnostics.grid.x_min, report.diagnostics.grid.x_max) == (-left, right)
        assert report.diagnostics.tail_ratio <= 1e-8

    @pytest.mark.parametrize(
        "spec",
        [Harmonic(1.3), Morse(1.0, 2.7), ModifiedPoschlTeller(2.0, 1.0), ModifiedIsotonic(100.0),
         FellowsSmith(-0.6)],
        ids=lambda spec: spec.kind,
    )
    def test_report_sample_is_the_public_path_bit_for_bit(self, spec):
        kept = sized_ground_state(spec)
        public = sample_ground_state(spec, kept.grid)
        assert kept.amplitude.tobytes() == public.amplitude.tobytes()
        assert kept.norm_defect == public.norm_defect
        report = measure_report(spec)
        assert report.diagnostics.grid == kept.grid
        assert report.det_sigma == covariance_of(public).det

    def test_perturbed_harmonic_is_unsupported(self):
        with pytest.raises(UnsupportedSpecError, match="number-basis expansion"):
            sized_ground_state(PerturbedHarmonic(1.0))

    @pytest.mark.parametrize("n_points", [129, 513, 1025, 4097, 8193])
    def test_cap_accepts_near_threshold_morse_at_every_point_count(self, n_points):
        wf = sized_ground_state(Morse(1.0, 2.7), n_points=n_points)
        assert wf.grid.x_max == 200.0
        assert 1e-8 < wf.tail_ratio < 0.1


class TestNormalize:
    def test_idempotent(self):
        wf = gaussian_wavefunction(Grid(-10.0, 10.0, 2049))
        again = SampledWavefunction(wf.grid, wf.amplitude)
        assert np.allclose(again.amplitude, wf.amplitude, rtol=1e-12, atol=0.0)
        assert again.norm_defect <= 1e-8

    def test_scaling_by_half(self):
        grid = Grid(-10.0, 10.0, 2049)
        wf = gaussian_wavefunction(grid)
        doubled = 2.0 * wf.amplitude
        renorm = SampledWavefunction(grid, doubled)
        assert np.allclose(renorm.amplitude, doubled / 2.0, rtol=1e-13)
        assert renorm.norm_defect == pytest.approx(1.0, rel=1e-9)

    def test_zero_norm_raises(self):
        with pytest.raises(NormalizationError):
            SampledWavefunction(Grid(-1.0, 1.0, 201), np.zeros(201))
        with pytest.raises(NormalizationError):
            SampledWavefunction(Grid(-1.0, 1.0, 201), np.full(201, np.inf))


class TestCovariance:
    def test_harmonic_omega_two(self):
        spec = Harmonic(2.0)
        cov = covariance_of(sized_ground_state(spec))
        assert cov.var_x == pytest.approx(0.25, rel=1e-9)
        assert cov.var_p == pytest.approx(1.0, rel=1e-9)
        assert cov.det == pytest.approx(0.25, rel=1e-9)

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
        assert cov.det >= 0.25 - 1e-6

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
        x = grid.points()
        even = SampledWavefunction(grid, np.exp(-(x**2) / 2.0))
        odd = SampledWavefunction(grid, x * np.exp(-(x**2) / 2.0))
        assert overlap(even, odd) == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_grids_raise(self):
        wf1 = gaussian_wavefunction(Grid(-10.0, 10.0, 2049))
        wf2 = gaussian_wavefunction(Grid(-10.0, 10.0, 4097))
        with pytest.raises(IncompatibleDomainError):
            overlap(wf1, wf2)

    def test_disjoint_domains_raise(self):
        left = gaussian_wavefunction(Grid(-30.0, -10.0, 513), center=-20.0)
        right = gaussian_wavefunction(Grid(10.0, 30.0, 513), center=20.0)
        with pytest.raises(IncompatibleDomainError):
            overlap(left, right)


class TestRichardsonSelfConsistency:
    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_halving_stability(self, spec):
        grid = sized_ground_state(spec).grid
        fine = refined(grid)
        cov_c = covariance_of(sample_ground_state(spec, grid))
        cov_f = covariance_of(sample_ground_state(spec, fine))
        assert abs(cov_c.var_x - cov_f.var_x) <= 1e-7
        assert abs(cov_c.var_p - cov_f.var_p) <= 1e-7
        ref_c = sample_ground_state(Harmonic(1.0), grid)
        ref_f = sample_ground_state(Harmonic(1.0), fine)
        ov_c = overlap(sample_ground_state(spec, grid), ref_c)
        ov_f = overlap(sample_ground_state(spec, fine), ref_f)
        assert abs(ov_c - ov_f) <= 1e-7


class TestCovarianceMatrixType:
    def test_rejects_non_positive_variance(self):
        with pytest.raises(GridError):
            CovarianceMatrix(var_x=0.0, var_p=1.0)

    def test_det_includes_cross_term(self):
        # The cross term lives in the tests' general Gaussian record; a real
        # state's CovarianceMatrix is diagonal.
        cov = GaussianCovariance(var_x=1.0, var_p=1.0, cov_xp=0.5)
        assert cov.det == pytest.approx(0.75)
