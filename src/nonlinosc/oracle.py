"""Independent verification engines: a finite-difference Schrodinger
ground-state solver and a truncated number-basis moment calculator.

The solver discretizes H = -d^2/dx^2 / 2 + V with the 3-point Laplacian and
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

from .errors import ConvergenceError, GridError, SpecError, TruncationError
from .numerics import CovarianceMatrix, Grid, SampledWavefunction
from .potentials import PotentialSpec, evaluate_potential

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigenResult:
    """Converged lowest eigenpair on a grid."""

    energy: float
    wavefunction: SampledWavefunction
    residual: float
    iterations: int


@dataclass(frozen=True, eq=False)
class FockState:
    """Real amplitudes on number states |0> .. |dimension-1> at a frequency.

    Coefficients are normalized on construction and zero-padded up to
    ``dimension``.
    """

    coefficients: np.ndarray
    omega: float = 1.0
    dimension: int = 16

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).ravel()
        if self.dimension < 8:
            raise SpecError(f"Fock dimension must be >= 8, got {self.dimension}")
        if coeffs.size > self.dimension:
            raise SpecError(
                f"{coeffs.size} coefficients exceed dimension {self.dimension}"
            )
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise SpecError(f"Fock omega must be positive, got {self.omega!r}")
        norm = float(np.linalg.norm(coeffs))
        if norm == 0.0:
            raise SpecError("Fock coefficients must not all vanish")
        padded = np.zeros(self.dimension)
        padded[: coeffs.size] = coeffs / norm
        object.__setattr__(self, "coefficients", padded)


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
        vec /= float(np.linalg.norm(vec))
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
    peak = float(np.max(np.abs(wavefunction.amplitude)))
    near_edge = max(
        float(np.max(np.abs(wavefunction.amplitude[1:4]))),
        float(np.max(np.abs(wavefunction.amplitude[-4:-1]))),
    )
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


def _ladder_matrices(omega: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    lowering = np.zeros((dim, dim))
    idx = np.arange(1, dim)
    lowering[idx - 1, idx] = np.sqrt(idx)
    x_op = (lowering + lowering.T) / math.sqrt(2.0 * omega)
    p_op = 1j * (lowering.T - lowering) * math.sqrt(omega / 2.0)
    return x_op, p_op


def fock_covariance(state: FockState) -> CovarianceMatrix:
    """Exact canonical moments of a truncated number-basis state.

    Builds x and p as ladder-operator matrices at the state's frequency and
    contracts them against the coefficient vector. Raises if the state
    carries weight on the top two basis states, where x^2/p^2 matrix
    elements are truncated.
    """
    coeffs = state.coefficients
    if float(np.max(np.abs(coeffs[-2:]))) > 1e-10:
        raise TruncationError(
            "amplitude on the top two basis states exceeds 1e-10; enlarge dimension"
        )
    occupied = int(np.max(np.nonzero(np.abs(coeffs) > 0.0)[0]))
    if state.dimension < occupied + 4:
        raise SpecError(
            f"dimension {state.dimension} too small for occupation up to {occupied}; "
            "need at least occupied + 4"
        )
    x_op, p_op = _ladder_matrices(state.omega, state.dimension)
    c = coeffs.astype(complex)
    xc = x_op @ c
    pc = p_op @ c
    mean_x = float(np.real(np.vdot(c, xc)))
    mean_p = float(np.real(np.vdot(c, pc)))
    var_x = float(np.real(np.vdot(xc, xc))) - mean_x**2
    var_p = float(np.real(np.vdot(pc, pc))) - mean_p**2
    cov_xp = 0.5 * float(np.real(np.vdot(xc, pc) + np.vdot(pc, xc))) - mean_x * mean_p
    return CovarianceMatrix(
        var_x=var_x, var_p=var_p, cov_xp=cov_xp, mean_x=mean_x, mean_p=mean_p
    )
