"""The two ground-state nonlinearity measures.

eta_b is the renormalized Bures distance between a potential's ground state
and the ground state of its reference harmonic oscillator (the harmonic
potential matching V near its global minimum); for pure states it reduces
to sqrt(1 - |<0_ref|0_V>|). eta_ng is the relative-entropy non-Gaussianity
of the ground state, which for a pure state is h(sqrt(det sigma)) with
sigma its canonical covariance matrix. Both vanish exactly on harmonic
ground states; eta_ng needs no reference potential at all.

``measure_report`` is the one evaluator from a spec to its report, for
every command: a family with a sampled state gets it sampled once, on a
grid that spans its family's exact seed whatever its size, with its peak
PEAK_MARGIN nodes inside the ends and the half-grid difference d of the
excess det sigma - 1/4 (all nodes against every other node) as its checks;
``pert`` gets the closed forms of its first-order state and no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .numerics import Grid, SampledWavefunction, covariance_of, sample_ground_state
from .perturbation import eta_b_perturbative, perturbed_excess
from .potentials import Harmonic, PerturbedHarmonic, PotentialSpec
from .specfun import eta_ng_of_excess

DEFAULT_N_POINTS = 4097
DEFAULT_TARGET_TAIL = 1e-8
# d per unit of the excess above which a report warns and fails, and the floor for rounding.
WARN_SPREAD, FAIL_SPREAD, SPREAD_FLOOR = 1e-9, 1e-3, 1e-15
# Fewest nodes from a sampled state's peak to either end: d cannot see a rise between two nodes.
PEAK_MARGIN = 8


@dataclass(frozen=True)
class ReportDiagnostics:
    """Provenance of the quadrature behind a report; ``ref_norm_defect`` is
    h sum(phi^2) - 1 of the reference Gaussian phi, Harmonic(omega_R)'s own
    state, on the grid."""

    grid: Grid | None
    tail_ratio: float
    ref_norm_defect: float = 0.0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class MeasureReport:
    """Both measures plus the reference data for one potential instance.

    eta_b and fidelity_to_reference are None exactly when the potential has
    no reference frequency (Fellows-Smith below p+).
    """

    eta_b: float | None
    eta_ng: float
    omega_r: float | None
    ground_energy: float
    det_sigma: float
    fidelity_to_reference: float | None
    diagnostics: ReportDiagnostics


def require_grid_settings(target_tail: float, n_points: int) -> None:
    """Raise GridError unless ``sized_ground_state`` accepts the tail target
    and ``Grid`` the point count."""
    if not (0.0 < target_tail <= 1e-4):
        raise GridError(f"target_tail must lie in (0, 1e-4], got {target_tail!r}")
    Grid(-1.0, 1.0, n_points)


def sized_ground_state(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> SampledWavefunction:
    """Sample the analytic ground state once, on the grid of its family's
    exact seed halfwidths for the tail target, and normalize it.

    The grid spans the seed whatever its size; a seed that leaves the float
    range, or a side that misses the tail, is a GridError. With a reference,
    each side widens toward the seed of Harmonic(omega_R), but not past the
    state's own seed at twice the depth, where the state is below tail^2 of
    its peak. Whether the grid resolves the state is for the peak and
    half-grid checks of the report. No family's log amplitude peaks beyond
    +-180, so the squared amplitude stays in range.
    """
    require_grid_settings(target_tail, n_points)
    depth = math.log(1.0 / target_tail)
    left, right = spec.seed_halfwidths(depth)
    omega_r = spec.omega_r()
    reach = 0.0 if omega_r is None else Harmonic(omega_r).seed_halfwidths(depth)[0]
    if reach > min(left, right):
        left, right = (max(side, min(reach, bound))
                       for side, bound in zip((left, right), spec.seed_halfwidths(2.0 * depth)))
    if not (math.isfinite(left) and math.isfinite(right)):
        raise GridError(f"{spec.kind} seed for tail {target_tail:g} leaves the float range")
    wf = sample_ground_state(spec, Grid(-left, right, n_points))
    if wf.tail_ratio > target_tail:
        side = "left" if wf.amplitude[0] >= wf.amplitude[-1] else "right"
        raise GridError(f"{spec.kind} seed misses the {side} tail "
                        f"(end/peak ratio {wf.tail_ratio:.3g})")
    return wf


def measure_report(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> MeasureReport:
    """Evaluate everything for one potential instance in a single pass; the
    report's grid is the one its state was sampled on, None for ``pert``."""
    if isinstance(spec, PerturbedHarmonic):
        state = spec.first_order
        excess = perturbed_excess(state)
        omega_r, eta_b, fidelity = spec.omega, eta_b_perturbative(state), 1.0 / state.norm_n
        diagnostics = ReportDiagnostics(grid=None, tail_ratio=0.0)
    else:
        wf = sized_ground_state(spec, target_tail, n_points)
        grid, peak = wf.grid, int(np.argmax(wf.amplitude))
        span = f"[{grid.x_min:.6g}, {grid.x_max:.6g}]"
        if min(peak, grid.n_points - 1 - peak) < PEAK_MARGIN:
            raise GridError(f"{spec.kind} state peaks at node {peak} of {grid.n_points} over "
                            f"{span}: the grid does not resolve the state")
        excess = covariance_of(wf).excess
        spread = abs(excess - covariance_of(wf, stride=2).excess)
        moves = f"det sigma - 1/4 = {excess:.3g} moves by {spread:.2g} on every other node"
        if spread > FAIL_SPREAD * excess + SPREAD_FLOOR:
            raise GridError(f"{moves} of {grid.n_points} points over {span} at tail "
                            f"{target_tail:g}: the grid does not resolve the state")
        omega_r = spec.omega_r()
        eta_b = fidelity = None
        ref_norm_defect = 0.0
        if omega_r is not None:
            # The reference sits at x = 0: every catalog potential has its global
            # minimum at the printed origin (the Morse coordinate is the displacement).
            h = grid.spacing
            log_reference = Harmonic(omega_r).log_amplitude(grid.points())[0]
            reference = np.exp(log_reference)
            mass = h * float(np.dot(reference, reference))
            ref_norm_defect = mass * math.sqrt(omega_r) / math.sqrt(math.pi) - 1.0
            if ref_norm_defect > 1e-8:
                raise GridError(f"grid spacing {h:.3g} cannot resolve the reference Gaussian "
                                f"of omega_R = {omega_r:.6g}: its norm on the grid exceeds 1")
            # Where phi meets the tail at both ends, as psi does, its norm on the grid
            # is its norm; otherwise it keeps its exact norm 1, and delta books the cut.
            cut = max(log_reference[0], log_reference[-1]) - log_reference.max()
            delta = 0.0 if cut <= math.log(target_tail) else ref_norm_defect
            # 1 - <psi|phi> = c s - delta/(1 + s), s = sqrt(1 + delta), from the
            # c = |psi - phi_hat|^2 / 2 of the grid-normalized phi_hat: no 1 - (1 - x).
            reference /= math.sqrt(mass)
            reference -= wf.amplitude
            scale = math.sqrt(1.0 + delta)
            infidelity = (0.5 * h * float(np.dot(reference, reference)) * scale
                          - delta / (1.0 + scale))
            eta_b = math.sqrt(max(0.0, infidelity))
            fidelity = (1.0 - infidelity) ** 2
        warnings = ((f"{moves}; measures carry resolution error",)
                    if spread > WARN_SPREAD * excess + SPREAD_FLOOR else ())
        diagnostics = ReportDiagnostics(grid, wf.tail_ratio, ref_norm_defect, warnings)
    return MeasureReport(
        eta_b=eta_b,
        eta_ng=eta_ng_of_excess(excess),
        omega_r=omega_r,
        ground_energy=spec.energy(),
        det_sigma=0.25 + excess,
        fidelity_to_reference=fidelity,
        diagnostics=diagnostics,
    )
