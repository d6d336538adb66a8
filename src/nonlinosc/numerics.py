"""Grids, quadrature, normalization, and canonical moments of real
wavefunctions.

Every moment is a plain node sum h sum(...) on a uniform grid, as in the
sinc-DVR oracle; for the smooth, tail-cut catalog states it converges
geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014). Each sample
carries its family's exact log-derivative psi'/psi, so no stencil is needed.
Grids have an odd number of nodes, so every other node spans the same extent.
Moments are taken in a grid's unit, a power of two near the spacing, so x
and psi' stay in the float range at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, NormalizationError
from .potentials import PotentialSpec, ground_state_log_amplitude


@dataclass(frozen=True)
class Grid:
    """Uniform position grid with an odd number of nodes, built from both ends."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise GridError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise GridError(f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 128:
            raise GridError(f"grid requires n_points >= 128, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise GridError(f"grid requires an odd n_points for its half grid, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def unit(self) -> float:
        """The power of two in (h, 2h] for the spacing h: moments scaled by it are exact."""
        return math.ldexp(1.0, math.frexp(self.spacing)[1])

    def points(self) -> np.ndarray:
        """The nodes: one read-only array, built on first use and shared."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        half = self.n_points // 2
        steps = np.arange(half) * self.spacing
        nodes = np.empty(self.n_points)
        np.add(steps, self.x_min, out=nodes[:half])  # np.linspace's nodes, bit for bit
        np.subtract(self.x_max, steps[::-1], out=nodes[half + 1 :])  # mirror-exact if symmetric
        nodes[half] = self.x_min + 0.5 * (self.x_max - self.x_min)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True, eq=False)
class SampledWavefunction:
    """Real amplitude tabulated on a grid, normalized when it is built, with
    its log-derivative psi'/psi on the same nodes.

    The amplitude passed in, of any norm, is rescaled so its node-sum norm
    is exactly 1 and kept read-only. A zero or non-finite norm raises
    NormalizationError.
    """

    grid: Grid
    amplitude: np.ndarray
    log_derivative: np.ndarray

    def __post_init__(self):
        norm_sq = self.grid.spacing * float(np.dot(self.amplitude, self.amplitude))
        if not (math.isfinite(norm_sq) and norm_sq > 0.0):
            raise NormalizationError(f"cannot normalize wavefunction with norm^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitude", self.amplitude / math.sqrt(norm_sq))
        self.amplitude.flags.writeable = False

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
    diagonal; det sigma = var_x var_p is kept as its ``excess`` over 1/4.
    """

    var_x: float
    var_p: float
    excess: float
    mean_x: float = 0.0

    def __post_init__(self):
        for name, value in (("<x^2>", self.var_x), ("<p^2>", self.var_p),
                            ("det sigma - 1/4", self.excess)):
            if not math.isfinite(value):
                raise GridError(f"{name} = {value} overflowed the float range")
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise GridError(
                f"covariance requires positive variances, got ({self.var_x}, {self.var_p})"
            )


def sample_ground_state(spec: PotentialSpec, grid: Grid) -> SampledWavefunction:
    """The analytic ground state on the nodes of ``grid``, normalized; an
    even state on a symmetric grid is evaluated on x >= 0 and mirrored."""
    x = grid.points()
    if spec.even and grid.x_min == -grid.x_max:  # L is even and L' odd
        log_amp, log_derivative = ground_state_log_amplitude(spec, x[grid.n_points // 2 :])
        log_amp = np.concatenate((log_amp[:0:-1], log_amp))
        log_derivative = np.concatenate((-log_derivative[:0:-1], log_derivative))
    else:
        log_amp, log_derivative = ground_state_log_amplitude(spec, x)
    return SampledWavefunction(grid, np.exp(log_amp), log_derivative)


def covariance_of(wf: SampledWavefunction, stride: int = 1) -> CovarianceMatrix:
    """Canonical (x, p) covariance of a real wavefunction from the node sums
    over every ``stride``-th node, with psi' = psi L'."""
    amplitude, unit = wf.amplitude[::stride], wf.grid.unit
    with np.errstate(over="ignore", invalid="ignore"):  # sampled_covariance rejects an overflow
        derivative = amplitude * wf.log_derivative[::stride]
        derivative *= unit
    return sampled_covariance(wf.grid.points()[::stride], amplitude, derivative, unit)


def sampled_covariance(x: np.ndarray, amplitude: np.ndarray, derivative: np.ndarray,
                       unit: float) -> CovarianceMatrix:
    """Covariance of a real amplitude of any norm and its derivative on the
    nodes x, from plain node sums in units of ``unit``, a power of two:
    ``derivative`` is psi' times the unit, and the moments are scaled back.

    <p^2> = <psi'^2>, and det sigma - 1/4 = var_x |psi' + (x - mu) psi / (2 var_x)|^2
    (Lagrange's identity, as <psi' (x - mu) psi> = -1/2): a sum of squares,
    never negative and free of the cancellation in var_x var_p - 1/4.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # CovarianceMatrix checks
        norm = float(np.dot(amplitude, amplitude))
        spread = amplitude * x
        spread *= 1.0 / unit  # exact, as the unit is a power of two
        mean_x = float(np.dot(amplitude, spread)) / norm
        spread -= mean_x * amplitude  # psi (x - mu)
        var_x = float(np.dot(spread, spread)) / norm
        var_p = float(np.dot(derivative, derivative)) / norm
        residual = spread * (0.5 / var_x)
        residual += derivative
        excess = var_x * float(np.dot(residual, residual)) / norm
    return CovarianceMatrix(var_x=var_x * unit * unit, var_p=var_p / unit / unit,
                            excess=excess, mean_x=mean_x * unit)
