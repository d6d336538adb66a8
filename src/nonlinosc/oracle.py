"""Independent verification engine: a finite-difference Schrodinger
ground-state solver.

It discretizes H = -d^2/dx^2 / 2 + V with the 3-point Laplacian and
Dirichlet ends: a symmetric tridiagonal matrix T. Sturm bisection finds its
lowest eigenvalue; inverse iteration on the L D L^T factor of T shifted just
below it, positive definite and so factored without pivoting, finds the
eigenvector. Plain 3-point differencing is preferred over higher-order
schemes because the tridiagonal structure admits exact Sturm bisection
and its second-order convergence is ample at the default grid sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError
from .numerics import Grid, SampledWavefunction
from .potentials import PotentialSpec, evaluate_potential

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigenResult:
    """Converged lowest eigenpair on a grid."""

    energy: float
    wavefunction: SampledWavefunction
    residual: float
    iterations: int


def _tridiagonal_hamiltonian(spec: PotentialSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Interior-point diagonal and off-diagonal of the discretized H.

    Raises GridError when V on the grid leaves the float range, whether in
    numpy or in a family's Python-float parameter power (omega**2).
    """
    x = grid.points()
    h = grid.spacing
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(evaluate_potential(spec, x[1:-1]), dtype=float)
            diag = 1.0 / h**2 + v
    except OverflowError:
        diag = None
    if diag is None or not np.all(np.isfinite(diag)):
        raise GridError(
            f"V(x) overflows the float range on the grid [{grid.x_min:.6g}, {grid.x_max:.6g}]"
        )
    off = np.full(v.size - 1, -0.5 / h**2)
    return diag, off


def _tridiagonal_apply(diag, off, vec):
    out = diag * vec
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def fd_ground_state(spec: PotentialSpec, grid: Grid) -> EigenResult:
    """Lowest eigenpair of the finite-difference Hamiltonian.

    The returned wavefunction is Simpson-normalized, sign-fixed positive at
    its peak, and carries zeros at the Dirichlet endpoints. A state whose
    amplitude near the box edges has not decayed is rejected: it means the
    grid is too small for the physical ground state.
    """
    diag, off = _tridiagonal_hamiltonian(spec, grid)
    energy = _lowest_eigenvalue(diag, off)

    h_scale = float(np.max(np.abs(diag))) + 2.0 * abs(off[0])
    shift = energy - 1e-9 * max(1.0, abs(energy))
    lower, pivots = _ldl_factor(diag, off, shift)
    vec = np.ones(diag.size) / math.sqrt(diag.size)
    target = max(1e-10 * abs(energy), 8.0 * _EPS * h_scale)
    best_res = math.inf
    best_vec = vec
    previous = math.inf
    iterations = 0
    for _ in range(30):
        vec = _ldl_solve(lower, pivots, vec)
        norm = float(np.linalg.norm(vec))
        if not (math.isfinite(norm) and norm > 0.0):  # each solve scales it by about 1e9/|E|
            raise ConvergenceError(f"inverse iteration lost its vector to the float range for {spec!r}")
        vec /= norm
        iterations += 1
        residual = float(np.linalg.norm(_tridiagonal_apply(diag, off, vec) - energy * vec))
        if residual < best_res:
            best_res, best_vec = residual, vec
        if residual <= target:
            break
        if iterations >= 2 and residual > 0.5 * previous:
            break  # at the precision floor for this spacing
        previous = residual
    if best_res > 1e-6 * h_scale:
        raise ConvergenceError(
            f"inverse iteration stalled with residual {best_res:.3g} for {spec!r}"
        )

    amplitude = np.zeros(grid.n_points)
    amplitude[1:-1] = best_vec
    if amplitude[np.argmax(np.abs(amplitude))] < 0.0:
        amplitude = -amplitude
    wavefunction = SampledWavefunction(grid, amplitude)
    magnitude = np.abs(wavefunction.amplitude)
    peak = float(magnitude.max())
    near_edge = float(max(magnitude[1:4].max(), magnitude[-4:-1].max()))
    if near_edge > 1e-5 * peak:
        raise GridError(
            f"computed ground state violates the tail condition "
            f"(near-edge/peak ratio {near_edge / peak:.3g}); grid too small"
        )
    return EigenResult(energy, wavefunction, best_res, iterations)


def _lowest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Sturm bisection of the Gershgorin interval until the midpoint stops moving.

    Each step asks only whether an eigenvalue lies at or below the midpoint:
    the L D L^T pivots of T - mid I, over Python floats, are all positive
    unless one does, so the step stops at the first pivot that is not.
    """
    radius = np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0))
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    with np.errstate(over="ignore"):
        off_sq = off * off
    if not np.all(np.isfinite(off_sq)):
        raise GridError("the squared off-diagonal of H overflows the float range; spacing too fine")
    pairs = list(zip(diag.tolist(), [0.0] + off_sq.tolist()))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        pivot = 1.0
        for d, b_sq in pairs:
            pivot = (d - mid) - b_sq / pivot
            if not pivot > 0.0:
                hi = mid
                break
        else:
            lo = mid
    return mid


def _ldl_factor(diag: np.ndarray, off: np.ndarray, shift: float):
    """Multipliers and pivots of T - shift I = L D L^T; positive for shifts below E0."""
    lower, pivots = [], [float(diag[0]) - shift]
    for d, b in zip(diag[1:].tolist(), off.tolist()):
        if not pivots[-1] > 0.0:
            break
        lower.append(b / pivots[-1])
        pivots.append((d - shift) - lower[-1] * b)
    if not pivots[-1] > 0.0:
        raise ConvergenceError(f"inverse iteration failed: pivot {pivots[-1]!r} is not positive")
    return lower, pivots


def _ldl_solve(lower: list[float], pivots: list[float], rhs: np.ndarray) -> np.ndarray:
    """Solve L D L^T x = rhs by forward and back substitution."""
    y = rhs.tolist()
    for i, m in enumerate(lower):
        y[i + 1] -= m * y[i]
    x = [v / p for v, p in zip(y, pivots)]
    for i in range(len(lower) - 1, -1, -1):
        x[i] -= lower[i] * x[i + 1]
    return np.array(x)
