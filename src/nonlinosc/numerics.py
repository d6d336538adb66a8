"""Grids, quadrature, normalization, and canonical moments of real
wavefunctions.

Uniform grids of an odd number of nodes with composite Simpson quadrature:
the catalog states are smooth and tail-truncated, and the sinc-DVR oracle
solves on the same extent. Kinetic moments use
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
    if n_points % 2 == 0:
        raise GridError(f"grid requires an odd n_points for Simpson's rule, got {n_points}")


@dataclass(frozen=True)
class Grid:
    """Uniform position grid with an odd number of nodes."""

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

    The amplitude passed in is rescaled so its Simpson norm is exactly 1 and
    kept read-only; norm_defect records |1 - norm| of the amplitude as
    given. A zero or non-finite norm raises NormalizationError.
    """

    grid: Grid
    amplitude: np.ndarray
    norm_defect: float = field(init=False)

    def __post_init__(self):
        norm_sq = simpson_integral(self.amplitude**2, self.grid.spacing)
        if not (math.isfinite(norm_sq) and norm_sq > 0.0):
            raise NormalizationError(f"cannot normalize wavefunction with norm^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitude", self.amplitude / math.sqrt(norm_sq))
        self.amplitude.flags.writeable = False
        object.__setattr__(self, "norm_defect", abs(1.0 - math.sqrt(norm_sq)))

    @cached_property
    def tail_ratio(self) -> float:
        """Larger end amplitude relative to the peak amplitude."""
        peak = float(np.max(np.abs(self.amplitude)))
        return float(max(abs(self.amplitude[0]), abs(self.amplitude[-1]))) / peak


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance matrix sigma of (x, p) for a real state, with <x>.

    For a real amplitude <p> = 0 and the symmetrized <xp> vanishes (the
    integral of x phi phi' is exactly -1/2 after normalization), so sigma is
    diagonal and det sigma = var_x var_p.
    """

    var_x: float
    var_p: float
    mean_x: float = 0.0

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
        return self.var_x * self.var_p


def simpson_integral(values: np.ndarray, spacing: float) -> float:
    """Composite Simpson rule on a uniform grid of an odd number of nodes."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3 or n % 2 == 0:
        raise GridError(f"simpson_integral needs an odd number of points >= 3, got {n}")
    return float(np.dot(_simpson_weights(n), values)) * spacing / 3.0


@lru_cache(maxsize=8)
def _simpson_weights(n: int) -> np.ndarray:
    """Read-only 1, 4, 2, ..., 4, 1 weights for an odd point count."""
    weights = np.ones(n)
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
    """Sample the analytic ground state once, on the grid of its family's
    exact seed halfwidths for the tail target, and normalize it.

    A side is capped at |x| = EXTENT_CAP. A capped side that misses the tail
    is accepted, with degraded quadrature, if its end amplitude is below 10%
    of the peak (near-threshold Morse wells spread past the cap); otherwise
    GridGrowthExhaustedError. A side below the cap that misses the tail is a
    fault of the seed: GridError. No family's log amplitude peaks beyond
    +-180 on a grid this accepts, so the squared amplitude stays in range.
    """
    require_grid_settings(target_tail, n_points)
    left, right = (min(w, EXTENT_CAP) for w in spec.seed_halfwidths(math.log(1.0 / target_tail)))
    grid = Grid(-left, right, n_points)
    log_amp = ground_state_log_amplitude(spec, grid.points())
    peak = float(np.max(log_amp))
    for side, width, end in (("left", left, log_amp[0]), ("right", right, log_amp[-1])):
        ratio = math.exp(float(end) - peak)
        if ratio > target_tail and width < EXTENT_CAP:
            raise GridError(f"{spec.kind} seed misses the {side} tail (end/peak ratio {ratio:.3g})")
        if ratio > _CAP_ACCEPT_RATIO:
            raise GridGrowthExhaustedError(
                f"amplitude has not decayed at the {side} cap |x|={EXTENT_CAP} "
                f"(end/peak ratio {ratio:.3g}); state looks non-normalizable or "
                "pathologically wide"
            )
    return SampledWavefunction(grid, np.exp(log_amp))


def covariance_of(wf: SampledWavefunction) -> CovarianceMatrix:
    """Canonical (x, p) covariance of a real wavefunction."""
    x = wf.grid.points()
    h = wf.grid.spacing
    density = wf.amplitude**2
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
