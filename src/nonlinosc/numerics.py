"""Grids, quadrature, normalization, and canonical moments of real
wavefunctions.

Uniform grids with composite Simpson quadrature: the catalog states are
smooth and tail-truncated, and uniform spacing keeps the derivative stencils
and the finite-difference oracle on shared footing. Kinetic moments use
<p^2> = integral of (phi')^2, which is positive by construction and one
stencil order more accurate than the second-derivative form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    GridError,
    GridGrowthExhaustedError,
    IncompatibleDomainError,
    NormalizationError,
)
from .potentials import PotentialSpec, ground_state_log_amplitude

DEFAULT_N_POINTS = 4097
DEFAULT_TARGET_TAIL = 1e-8
EXTENT_CAP = 200.0
# End-amplitude ratio beyond which a grid capped at |x| = EXTENT_CAP is
# rejected outright (the state has not meaningfully decayed by the cap).
_CAP_ACCEPT_RATIO = 0.1


def require_grid_settings(target_tail: float, n_points: int) -> None:
    """Raise GridError unless ``sized_ground_state`` accepts the tail target
    and ``Grid`` the point count."""
    if not (0.0 < target_tail <= 1e-4):
        raise GridError(f"target_tail must lie in (0, 1e-4], got {target_tail!r}")
    _require_n_points(n_points)


def _require_n_points(n_points: int) -> None:
    if n_points < 128:
        raise GridError(f"grid requires n_points >= 128, got {n_points}")


@dataclass(frozen=True)
class Grid:
    """Uniform position grid."""

    x_min: float
    x_max: float
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise GridError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise GridError(f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]")
        _require_n_points(self.n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The nodes: one read-only array, built on first use and shared."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        nodes = np.linspace(self.x_min, self.x_max, self.n_points)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True, eq=False)
class SampledWavefunction:
    """Real amplitude tabulated on a grid, normalized when it is built.

    The amplitude passed in is rescaled so its Simpson norm is exactly 1;
    norm_defect records |1 - norm| of the amplitude as given. A zero or
    non-finite norm raises NormalizationError.
    """

    grid: Grid
    amplitude: np.ndarray
    norm_defect: float = field(init=False)

    def __post_init__(self):
        norm_sq = simpson_integral(self.amplitude**2, self.grid.spacing)
        if not (math.isfinite(norm_sq) and norm_sq > 0.0):
            raise NormalizationError(f"cannot normalize wavefunction with norm^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitude", self.amplitude / math.sqrt(norm_sq))
        object.__setattr__(self, "norm_defect", abs(1.0 - math.sqrt(norm_sq)))

    @cached_property
    def tail_ratio(self) -> float:
        """Larger end amplitude relative to the peak amplitude."""
        peak = float(np.max(np.abs(self.amplitude)))
        if peak == 0.0:
            return 0.0
        return float(max(abs(self.amplitude[0]), abs(self.amplitude[-1]))) / peak


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments of (x, p) with the mean vector.

    cov_xp and mean_p vanish identically for real stationary states
    (integral of x phi phi' is exactly -1/2 after normalization), so they
    are asserted zero rather than computed.
    """

    var_x: float
    var_p: float
    cov_xp: float = 0.0
    mean_x: float = 0.0
    mean_p: float = 0.0

    def __post_init__(self):
        for name, value in (("<x^2>", self.var_x), ("<p^2>", self.var_p)):
            if not math.isfinite(value):
                raise GridError(f"{name} = {value} overflowed the float range")
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise GridError(
                f"covariance requires positive variances, got ({self.var_x}, {self.var_p})"
            )

    @property
    def det(self) -> float:
        return self.var_x * self.var_p - self.cov_xp**2


def simpson_integral(values: np.ndarray, spacing: float) -> float:
    """Composite Simpson rule on a uniform grid.

    Even point counts fall back to a trapezoid on the final interval, which
    only matters where the integrand has already decayed into the tail.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3:
        raise GridError("simpson_integral needs at least 3 points")
    odd_n = n if n % 2 == 1 else n - 1
    total = float(np.dot(_simpson_weights(odd_n), values[:odd_n])) * spacing / 3.0
    if odd_n != n:
        total += 0.5 * spacing * float(values[-2] + values[-1])
    return total


@lru_cache(maxsize=8)
def _simpson_weights(odd_n: int) -> np.ndarray:
    """Read-only 1, 4, 2, ..., 4, 1 weights for an odd point count."""
    weights = np.ones(odd_n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights.flags.writeable = False
    return weights


def first_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Centered 4th-order stencil in the interior, 2nd order at the edges."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (
        12.0 * spacing
    )
    out[1] = (values[2] - values[0]) / (2.0 * spacing)
    out[-2] = (values[-1] - values[-3]) / (2.0 * spacing)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * spacing)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * spacing)
    return out


def sized_ground_state(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> SampledWavefunction:
    """Grow a grid until the analytic amplitude meets the tail target, and
    return the normalized sample on which the accepted grid passed the test.

    Each side starts from the family's seed halfwidth and grows by 1.4 until
    the end amplitude drops below target_tail relative to the peak, capped
    at |x| = EXTENT_CAP. A capped side is accepted, with degraded quadrature,
    if the amplitude is below 10% of the peak and still decays over the 5
    outermost nodes spaced (n_points - 1) // 512 apart (near-threshold Morse
    wells legitimately spread past the cap); otherwise the growth fails.
    """
    require_grid_settings(target_tail, n_points)
    left, right = (min(w, EXTENT_CAP) for w in spec.seed_halfwidths(math.log(1.0 / target_tail)))
    for _ in range(64):
        grid = Grid(-left, right, n_points)
        log_amp = ground_state_log_amplitude(spec, grid.points())
        peak = float(np.max(log_amp))
        with np.errstate(over="ignore"):
            ratio_l = math.exp(min(float(log_amp[0]) - peak, 700.0))
            ratio_r = math.exp(min(float(log_amp[-1]) - peak, 700.0))
        need_l = ratio_l > target_tail and left < EXTENT_CAP
        need_r = ratio_r > target_tail and right < EXTENT_CAP
        if not (need_l or need_r):
            break
        if need_l:
            left = min(left * 1.4, EXTENT_CAP)
        if need_r:
            right = min(right * 1.4, EXTENT_CAP)
    inner = 4 * max(1, (n_points - 1) // 512)
    for side, ratio, end, before in (
        ("left", ratio_l, log_amp[0], log_amp[inner]),
        ("right", ratio_r, log_amp[-1], log_amp[-1 - inner]),
    ):
        if ratio > target_tail and (ratio > _CAP_ACCEPT_RATIO or not end < before):
            raise GridGrowthExhaustedError(
                f"amplitude has not decayed at the {side} cap |x|={EXTENT_CAP} "
                f"(end/peak ratio {ratio:.3g}); state looks non-normalizable or "
                "pathologically wide"
            )
    return _normalized_sample(grid, log_amp)


def sample_ground_state(spec: PotentialSpec, grid: Grid) -> SampledWavefunction:
    """Tabulate and normalize the analytic ground state on a grid."""
    return _normalized_sample(grid, ground_state_log_amplitude(spec, grid.points()))


def _normalized_sample(grid: Grid, log_amp: np.ndarray) -> SampledWavefunction:
    """Exponentiate and normalize a log amplitude sampled on ``grid``.

    A peak log amplitude beyond +-300 is subtracted before exponentiation,
    so the squared amplitude neither overflows nor underflows; norm_defect
    then reflects the rescaled amplitude.
    """
    peak = float(np.max(log_amp))
    amplitude = np.exp(log_amp - peak) if abs(peak) > 300.0 else np.exp(log_amp)
    return SampledWavefunction(grid, amplitude)


def covariance_of(wf: SampledWavefunction) -> CovarianceMatrix:
    """Canonical (x, p) covariance of a real normalized wavefunction."""
    x = wf.grid.points()
    h = wf.grid.spacing
    density = wf.amplitude**2
    norm_sq = simpson_integral(density, h)
    if abs(norm_sq - 1.0) > 1e-8:
        raise NormalizationError(f"wavefunction norm^2 = {norm_sq} deviates from 1")
    mean_x = simpson_integral(x * density, h)
    var_x = simpson_integral(x**2 * density, h) - mean_x**2
    derivative = first_derivative(wf.amplitude, h)
    with np.errstate(over="ignore"):  # CovarianceMatrix rejects an overflowed <p^2>
        var_p = simpson_integral(derivative**2, h)
    return CovarianceMatrix(var_x=var_x, var_p=var_p, mean_x=mean_x)


def overlap(wf1: SampledWavefunction, wf2: SampledWavefunction) -> float:
    """Position-space overlap integral of two normalized wavefunctions
    sampled on the same grid."""
    if wf1.grid != wf2.grid:
        raise IncompatibleDomainError(f"overlap needs one grid, got {wf1.grid} and {wf2.grid}")
    return simpson_integral(wf1.amplitude * wf2.amplitude, wf1.grid.spacing)
