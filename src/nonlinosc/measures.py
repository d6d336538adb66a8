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

import numpy as np

from .errors import GridError
from .numerics import (
    DEFAULT_N_POINTS,
    DEFAULT_TARGET_TAIL,
    Grid,
    SampledWavefunction,
    covariance_of,
    simpson_integral,
    sized_ground_state,
)
from .perturbation import alpha_coefficients, eta_b_perturbative, perturbed_det
from .potentials import Harmonic, PerturbedHarmonic, PotentialSpec
from .specfun import eta_ng_of_det


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


def det_and_eta_ng(wf: SampledWavefunction) -> tuple[float, float]:
    """det sigma of a sampled real state and its eta_ng = h(sqrt(det sigma))."""
    det = covariance_of(wf).det
    return det, eta_ng_of_det(det)


def _edge_warnings(spec: PotentialSpec, wf: SampledWavefunction, target_tail: float) -> tuple[str, ...]:
    warnings = list(spec.quadrature_warnings())
    if wf.tail_ratio > target_tail:
        warnings.append(
            f"tail target {target_tail:g} unmet at the grid cap "
            f"(end/peak ratio {wf.tail_ratio:.3g}); measures carry truncation error"
        )
    return tuple(warnings)


def measure_report(
    spec: PotentialSpec,
    target_tail: float = DEFAULT_TARGET_TAIL,
    n_points: int = DEFAULT_N_POINTS,
) -> MeasureReport:
    """Evaluate everything for one potential instance in a single pass."""
    if isinstance(spec, PerturbedHarmonic):
        return _perturbative_report(spec)
    wf = sized_ground_state(spec, target_tail, n_points)
    det, eta_ng = det_and_eta_ng(wf)
    omega_r = spec.omega_r()
    if omega_r is None:
        eta_b = None
        fidelity = None
    else:
        # The reference sits at x = 0: every catalog potential has its global
        # minimum at the printed origin (the Morse coordinate is the displacement).
        # It keeps its exact norm: the grid only truncates it where the state met its tail.
        h = wf.grid.spacing
        reference = np.exp(Harmonic(omega_r).log_amplitude(wf.grid.points()))
        if simpson_integral(reference**2, h) > 1.0 + 1e-8:
            raise GridError(f"grid spacing {h:.3g} cannot resolve the reference Gaussian "
                            f"of omega_R = {omega_r:.6g}: its norm on the grid exceeds 1")
        ov = simpson_integral(wf.amplitude * reference, h)
        eta_b = math.sqrt(max(0.0, 1.0 - abs(ov)))
        fidelity = ov**2
    return MeasureReport(
        eta_b=eta_b,
        eta_ng=eta_ng,
        omega_r=omega_r,
        ground_energy=spec.energy(),
        det_sigma=det,
        fidelity_to_reference=fidelity,
        diagnostics=ReportDiagnostics(
            grid=wf.grid,
            norm_defect=wf.norm_defect,
            tail_ratio=wf.tail_ratio,
            warnings=_edge_warnings(spec, wf, target_tail),
        ),
    )


def _perturbative_report(spec: PerturbedHarmonic) -> MeasureReport:
    state = alpha_coefficients(spec.eps3, spec.eps4, spec.omega)
    det = perturbed_det(state)
    return MeasureReport(
        eta_b=eta_b_perturbative(state),
        eta_ng=eta_ng_of_det(det),
        omega_r=spec.omega,
        ground_energy=spec.energy(),
        det_sigma=det,
        fidelity_to_reference=1.0 / state.norm_n,
        diagnostics=ReportDiagnostics(grid=None, norm_defect=0.0, tail_ratio=0.0),
    )
