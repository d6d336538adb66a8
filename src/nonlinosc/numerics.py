"""Grids, quadrature, normalization, and canonical moments of real
wavefunctions.

Every moment is a plain node sum h sum(...) on a uniform grid, as in the
sinc-DVR oracle; for the smooth, tail-cut catalog states it converges
geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014). Each sample
carries its family's exact log-derivative psi'/psi, so no stencil is needed.
Grids have an odd number of nodes, so every other node spans the same extent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError, GridGrowthExhaustedError, NormalizationError
from .potentials import PotentialSpec, ground_state_log_amplitude

DEFAULT_N_POINTS = 4097
DEFAULT_TARGET_TAIL = 1e-8
EXTENT_CAP = 200.0
# End-amplitude ratio beyond which a side capped at |x| = EXTENT_CAP is rejected.
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
        raise GridError(f"grid requires an odd n_points for its half grid, got {n_points}")


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
    """Real amplitude tabulated on a grid, normalized when it is built, with
    its log-derivative psi'/psi on the same nodes.

    The amplitude passed in is rescaled so its node-sum norm is exactly 1
    and kept read-only; norm_defect records |1 - norm| of the amplitude as
    given. A zero or non-finite norm raises NormalizationError.
    """

    grid: Grid
    amplitude: np.ndarray
    log_derivative: np.ndarray
    norm_defect: float = field(init=False)

    def __post_init__(self):
        norm_sq = self.grid.spacing * float(np.dot(self.amplitude, self.amplitude))
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
    diagonal; ``det`` is var_x var_p, kept as 1/4 + ``excess``.
    """

    var_x: float
    var_p: float
    excess: float
    mean_x: float = 0.0

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise GridError(
                f"covariance requires positive variances, got ({self.var_x}, {self.var_p})"
            )
        for name, value in (("<x^2>", self.var_x), ("<p^2>", self.var_p),
                            ("det sigma - 1/4", self.excess)):
            if not math.isfinite(value):
                raise GridError(f"{name} = {value} overflowed the float range")

    @property
    def det(self) -> float:
        return 0.25 + self.excess


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
    log_amp, log_derivative = ground_state_log_amplitude(spec, grid.points())
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
    return SampledWavefunction(grid, np.exp(log_amp), log_derivative)


def covariance_of(wf: SampledWavefunction, stride: int = 1) -> CovarianceMatrix:
    """Canonical (x, p) covariance of a real wavefunction from the node sums
    over every ``stride``-th node, with psi' = psi L'."""
    amplitude = wf.amplitude[::stride]
    with np.errstate(over="ignore", invalid="ignore"):  # sampled_covariance rejects an overflow
        derivative = amplitude * wf.log_derivative[::stride]
    return sampled_covariance(wf.grid.points()[::stride], amplitude, derivative)


def sampled_covariance(x: np.ndarray, amplitude: np.ndarray, derivative: np.ndarray
                       ) -> CovarianceMatrix:
    """Covariance of a real amplitude of any norm and its derivative on the
    nodes x, from plain node sums.

    <p^2> = <psi'^2>, and det sigma - 1/4 = var_x |psi' + (x - mu) psi / (2 var_x)|^2
    (Lagrange's identity, as <psi' (x - mu) psi> = -1/2): a sum of squares,
    never negative and free of the cancellation in var_x var_p - 1/4.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # CovarianceMatrix checks
        norm = float(np.dot(amplitude, amplitude))
        spread = amplitude * x
        mean_x = float(np.dot(amplitude, spread)) / norm
        spread -= mean_x * amplitude  # psi (x - mu)
        var_x = float(np.dot(spread, spread)) / norm
        var_p = float(np.dot(derivative, derivative)) / norm
        residual = spread * (0.5 / var_x)
        residual += derivative
        excess = var_x * float(np.dot(residual, residual)) / norm
    return CovarianceMatrix(var_x=var_x, var_p=var_p, excess=excess, mean_x=mean_x)
