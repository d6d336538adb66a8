"""Independent verification engine: a sinc-DVR Schrodinger ground-state solver.

The Colbert-Miller discrete variable representation (J. Chem. Phys. 96,
1982 (1992)) puts H = -d^2/dx^2 / 2 + V on uniform nodes x_j of spacing h:
the kinetic matrix has the closed form
T_ij = (-1)^(i-j) / (2 h^2) * {pi^2 / 3 if i = j, else 2 / (i - j)^2}
and V is diagonal, its values at the nodes. ``numpy.linalg.eigh`` gives the
lowest pair (E, c) with sum c^2 = 1. Its moments are the analytic side's
node sums, with psi' from the sinc first-derivative matrix
D_ij = (-1)^(i-j) / (h (i - j)), D_ii = 0. For the smooth, tail-cut catalog
states this converges geometrically in the node count, so a few hundred
nodes give E and det sigma to about 1e-13.

The oracle shares the analytic grid's extent and V with the analytic path
and never reads the analytic amplitude; ``fidelity`` compares the two states
after the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError
from .numerics import Grid, sample_ground_state, sampled_covariance
from .potentials import PotentialSpec, evaluate_potential
from .specfun import eta_ng_of_excess

# The ladder's node counts; each rung keeps the nodes of the one before. eigh
# takes about 0.3 s at 1,025 nodes and 1.8 s at 2,049.
RUNGS = (129, 257, 513, 1025)
# A rung ends the ladder once E (relative above |E| = 1) and eta_NG move by at most these.
ENERGY_CONVERGED = 1e-8
ETA_NG_CONVERGED = 1e-6
# Largest rounding of H, eps |H|, per unit of the gap above E at which the vector is trusted.
ROUNDING_PER_GAP = 1e-5
# Largest amplitude within three nodes of an end, per unit of the peak.
NEAR_EDGE = 1e-3


@dataclass(frozen=True, eq=False)
class EigenResult:
    """The lowest DVR eigenpair at the ladder's stop.

    ``coefficients`` holds c on the nodes of ``grid``: sum c^2 = 1, positive
    at its peak; the amplitude there is c / sqrt(h). ``energy_error`` and
    ``eta_ng_error`` are the moves from the previous rung, and
    ``iterations`` counts the solves.
    """

    energy: float
    eta_ng: float
    grid: Grid
    coefficients: np.ndarray
    energy_error: float
    eta_ng_error: float
    iterations: int


def fd_ground_state(spec: PotentialSpec, grid: Grid) -> EigenResult:
    """Lowest eigenpair of the DVR Hamiltonian on ``grid``'s extent, climbing
    the RUNGS until E and eta_NG stop moving.

    A last rung whose state has not decayed near the ends is a GridError: the
    extent is too small for the state. A ladder still moving at its top rung
    is a ConvergenceError that names the extent and the last moves.
    """
    previous, converged = None, False
    for solves, n in enumerate(RUNGS, 1):
        nodes = Grid(grid.x_min, grid.x_max, n)
        energy, excess, c = _solve(spec, nodes)
        eta_ng = eta_ng_of_excess(excess)
        if previous is not None:
            d_energy, d_eta_ng = abs(energy - previous[0]), abs(eta_ng - previous[1])
            converged = (d_energy <= ENERGY_CONVERGED * max(1.0, abs(energy))
                         and d_eta_ng <= ETA_NG_CONVERGED)
            if converged:
                break
        previous = (energy, eta_ng)
    magnitude = np.abs(c)
    near_edge = float(max(magnitude[:3].max(), magnitude[-3:].max())) / float(magnitude.max())
    if near_edge > NEAR_EDGE:
        raise GridError(
            f"computed ground state violates the tail condition "
            f"(near-edge/peak ratio {near_edge:.3g}); grid too small"
        )
    if not converged:
        raise ConvergenceError(
            f"the DVR oracle has not converged at {n} nodes over "
            f"[{grid.x_min:.6g}, {grid.x_max:.6g}]: its last moves are "
            f"|dE| = {d_energy:.3g} and |d eta_ng| = {d_eta_ng:.3g}"
        )
    return EigenResult(energy, eta_ng, nodes, c, d_energy, d_eta_ng, solves)


def _hamiltonian(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """The DVR Hamiltonian T + V on the nodes of ``grid``.

    Raises GridError when T's spectrum, up to pi^2/(2 h^2) = 3 T_ii, plus
    max |V| leaves the float range: then so would the eigenvalues of H.
    """
    n, h = grid.n_points, grid.spacing
    k = np.arange(1.0, n)
    row = np.concatenate(([math.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2))  # T_ij by |i - j|
    with np.errstate(over="ignore", invalid="ignore"):
        v = evaluate_potential(spec, grid.points())
        row /= 2.0 * h * h
        top = 3.0 * row[0] + np.max(np.abs(v))
    if not math.isfinite(top):
        raise GridError(
            f"V(x) or the kinetic matrix overflows the float range on the grid "
            f"[{grid.x_min:.6g}, {grid.x_max:.6g}]"
        )
    index = np.arange(n)
    hamiltonian = row[np.abs(index[:, None] - index)]
    hamiltonian.flat[:: n + 1] += v
    return hamiltonian


def _solve(spec: PotentialSpec, grid: Grid) -> tuple[float, float, np.ndarray]:
    """E, det sigma - 1/4 and c of the lowest DVR eigenpair on the nodes of ``grid``.

    Raises ConvergenceError when rounding in H swamps the gap above E.
    """
    energies, vectors = np.linalg.eigh(_hamiltonian(spec, grid))
    energy, c = float(energies[0]), vectors[:, 0].copy()
    if not (math.isfinite(energy) and np.all(np.isfinite(c))):
        raise ConvergenceError(f"the DVR eigenpair is not finite for {spec!r}")
    rounding = float(np.finfo(float).eps * np.max(np.abs(energies[[0, -1]])))
    gap = float(energies[1]) - energy
    if not rounding <= ROUNDING_PER_GAP * gap:
        raise ConvergenceError(
            f"the DVR ground state of {spec!r} is lost to rounding: eps |H| = {rounding:.3g} "
            f"against a gap of {gap:.3g} above E = {energy:.6g}"
        )
    if c[np.argmax(np.abs(c))] < 0.0:
        c = -c
    n, unit = grid.n_points, grid.unit
    offsets = np.arange(1.0 - n, n)  # i - j of D_ij, so D c is a convolution with this row
    row = np.divide((-1.0) ** offsets, (grid.spacing / unit) * offsets,
                    out=np.zeros_like(offsets), where=offsets != 0.0)
    derivative = np.convolve(c, row)[n - 1 : 2 * n - 1]  # per grid unit
    return energy, sampled_covariance(grid.points(), c, derivative, unit).excess, c


def fidelity(spec: PotentialSpec, result: EigenResult) -> float:
    """h (sum_j c_j psi_j)^2, with psi the analytic state sampled on the DVR
    nodes and normalized by the same plain sum h sum psi^2 = 1."""
    psi = sample_ground_state(spec, result.grid).amplitude
    return result.grid.spacing * float(np.dot(result.coefficients, psi)) ** 2
