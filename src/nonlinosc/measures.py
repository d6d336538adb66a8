"""The two ground-state nonlinearity measures.

eta_b is the renormalized Bures distance between a potential's ground state
and the ground state of its reference harmonic oscillator (the harmonic
potential matching V near its global minimum); for pure states it reduces
to sqrt(1 - |<0_ref|0_V>|). eta_ng is the relative-entropy non-Gaussianity
of the ground state, which for a pure state is h(sqrt(det sigma)) with
sigma its canonical covariance matrix. Both vanish exactly on harmonic
ground states; eta_ng needs no reference potential at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    DEFAULT_N_POINTS,
    DEFAULT_TARGET_TAIL,
    Grid,
    SampledWavefunction,
    auto_grid,
    covariance_of,
    overlap,
    sample_ground_state,
)
from .perturbation import (
    alpha_coefficients,
    eta_b_perturbative,
    eta_ng_perturbative,
    perturbed_variances,
)
from .potentials import (
    Harmonic,
    PerturbedHarmonic,
    PotentialSpec,
    ground_energy,
    reference_frequency,
)
from .specfun import entropy_h


@dataclass(frozen=True)
class ReportDiagnostics:
    """Provenance of the quadrature behind a report."""

    grid: Grid | None
    norm_defect: float
    tail_ratio: float
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


def fidelity_pure(wf1: SampledWavefunction, wf2: SampledWavefunction) -> float:
    """Fidelity of two pure states: the squared overlap."""
    return overlap(wf1, wf2) ** 2


def _reference_state(omega_r: float, grid: Grid) -> SampledWavefunction:
    """Reference harmonic ground state sampled on the same grid.

    Centered at x = 0: every catalog potential has its global minimum at the
    printed coordinate origin (the Morse coordinate already measures
    displacement from the minimum).
    """
    return sample_ground_state(Harmonic(omega_r), grid)


def _edge_warnings(spec: PotentialSpec, wf: SampledWavefunction, target_tail: float) -> tuple[str, ...]:
    warnings = list(spec.quadrature_warnings())
    if wf.tail_ratio > target_tail:
        warnings.append(
            f"tail target {target_tail:g} unmet at the grid cap "
            f"(end/peak ratio {wf.tail_ratio:.3g}); measures carry truncation error"
        )
    return tuple(warnings)


def eta_bures(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> float | None:
    """Renormalized Bures distance to the reference harmonic ground state.

    None when no reference frequency exists. The perturbed harmonic
    oscillator uses its closed form sqrt(1 - N^{-1/2}).
    """
    return measure_report(spec, target_tail, n_points).eta_b


def eta_ng(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> float:
    """Entropic non-Gaussianity of the ground state: h(sqrt(det sigma))."""
    return measure_report(spec, target_tail, n_points).eta_ng


def measure_report(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> MeasureReport:
    """Evaluate everything for one potential instance in a single pass."""
    if isinstance(spec, PerturbedHarmonic):
        return _perturbative_report(spec)
    grid = auto_grid(spec, target_tail, n_points)
    wf = sample_ground_state(spec, grid)
    cov = covariance_of(wf)
    det = cov.det
    omega_r = reference_frequency(spec)
    if omega_r is None:
        eta_b = None
        fidelity = None
    else:
        ov = overlap(wf, _reference_state(omega_r, grid))
        eta_b = math.sqrt(max(0.0, 1.0 - abs(ov)))
        fidelity = ov**2
    return MeasureReport(
        eta_b=eta_b,
        eta_ng=entropy_h(math.sqrt(det)),
        omega_r=omega_r,
        ground_energy=ground_energy(spec),
        det_sigma=det,
        fidelity_to_reference=fidelity,
        diagnostics=ReportDiagnostics(
            grid=grid,
            norm_defect=wf.norm_defect,
            tail_ratio=wf.tail_ratio,
            warnings=_edge_warnings(spec, wf, target_tail),
        ),
    )


def _perturbative_report(spec: PerturbedHarmonic) -> MeasureReport:
    state = alpha_coefficients(spec.eps3, spec.eps4, spec.omega, guard=spec.eps_guard)
    var_q, var_p = perturbed_variances(state)
    det = var_q * var_p
    # First-order ground energy: omega/2 + eps4 <0|x^4|0> (the cubic term
    # enters only at second order).
    energy = 0.5 * spec.omega + spec.eps4 * 0.75 / spec.omega**2
    return MeasureReport(
        eta_b=eta_b_perturbative(state),
        eta_ng=eta_ng_perturbative(state),
        omega_r=spec.omega,
        ground_energy=energy,
        det_sigma=det,
        fidelity_to_reference=1.0 / state.norm_n,
        diagnostics=ReportDiagnostics(grid=None, norm_defect=0.0, tail_ratio=0.0),
    )
