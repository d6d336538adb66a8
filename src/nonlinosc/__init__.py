"""Ground-state nonlinearity measures for one-dimensional quantum oscillators.

Two measures quantify how far an oscillator departs from harmonic behavior
using only its ground state: ``eta_b``, the renormalized Bures distance to
the ground state of the reference harmonic oscillator, and ``eta_ng``, the
relative-entropy non-Gaussianity of the ground state. The package ships a
catalog of exactly solvable anharmonic potentials, closed-form results for
weakly perturbed harmonic oscillators, and an independent finite-difference
Schrodinger solver used as a verification oracle.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    GridGrowthExhaustedError,
    IncompatibleDomainError,
    NormalizationError,
    SpecError,
    TruncationError,
    UnphysicalCovarianceError,
    UnsupportedSpecError,
)
from .measures import (
    MeasureReport,
    ReportDiagnostics,
    eta_bures,
    eta_ng,
    fidelity_pure,
    measure_report,
)
from .numerics import (
    CovarianceMatrix,
    Grid,
    SampledWavefunction,
    auto_grid,
    covariance_of,
    normalize,
    overlap,
    sample_ground_state,
    simpson_integral,
)
from .oracle import EigenResult, FockState, count_negative_eigenvalues, fd_ground_state, fock_covariance
from .perturbation import (
    CurvePoint,
    PerturbativeState,
    ScatterRecord,
    alpha_coefficients,
    eta_b_perturbative,
    eta_ng_perturbative,
    parametric_curve,
    perturbed_variances,
    scatter_sample,
)
from .potentials import (
    P_MINUS,
    P_PLUS,
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    PerturbedHarmonic,
    PotentialSpec,
    WellRegion,
    WellStructure,
    evaluate_potential,
    fellows_smith_well_structure,
    ground_energy,
    ground_state_amplitude,
    morse_bound_state_count,
    parse_potential_spec,
    reference_frequency,
)
from .specfun import EvaluationResult, entropy_h, kummer_phi

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CovarianceMatrix",
    "CurvePoint",
    "DomainError",
    "EigenResult",
    "EvaluationResult",
    "FellowsSmith",
    "FockState",
    "Grid",
    "GridError",
    "GridGrowthExhaustedError",
    "Harmonic",
    "IncompatibleDomainError",
    "MeasureReport",
    "ModifiedIsotonic",
    "ModifiedPoschlTeller",
    "Morse",
    "NormalizationError",
    "P_MINUS",
    "P_PLUS",
    "PerturbativeState",
    "PerturbedHarmonic",
    "PotentialSpec",
    "ReportDiagnostics",
    "SampledWavefunction",
    "ScatterRecord",
    "SpecError",
    "TruncationError",
    "UnphysicalCovarianceError",
    "UnsupportedSpecError",
    "WellRegion",
    "WellStructure",
    "alpha_coefficients",
    "auto_grid",
    "count_negative_eigenvalues",
    "covariance_of",
    "entropy_h",
    "eta_b_perturbative",
    "eta_bures",
    "eta_ng",
    "eta_ng_perturbative",
    "evaluate_potential",
    "fd_ground_state",
    "fellows_smith_well_structure",
    "fidelity_pure",
    "fock_covariance",
    "ground_energy",
    "ground_state_amplitude",
    "kummer_phi",
    "measure_report",
    "morse_bound_state_count",
    "normalize",
    "overlap",
    "parametric_curve",
    "parse_potential_spec",
    "perturbed_variances",
    "reference_frequency",
    "sample_ground_state",
    "scatter_sample",
    "simpson_integral",
]
