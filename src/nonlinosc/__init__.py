"""Ground-state nonlinearity measures for one-dimensional quantum oscillators.

Two measures quantify how far an oscillator departs from harmonic behavior
using only its ground state: ``eta_b``, the renormalized Bures distance to
the ground state of the reference harmonic oscillator, and ``eta_ng``, the
relative-entropy non-Gaussianity of the ground state. The package ships a
catalog of exactly solvable anharmonic potentials, closed-form results for
weakly perturbed harmonic oscillators, and an independent sinc-DVR
Schrodinger solver used as a verification oracle.

Importing the package loads none of its modules (and so no numpy): each
exported name imports its defining module on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError", "GridError", "NormalizationError", "SpecError"),
    "measures": ("MeasureReport", "ReportDiagnostics", "measure_report", "sized_ground_state"),
    "numerics": ("CovarianceMatrix", "Grid", "SampledWavefunction", "covariance_of"),
    "oracle": ("EigenResult", "fd_ground_state"),
    "perturbation": (
        "CurvePoint", "PerturbativeState", "alpha_coefficients", "eta_b_perturbative",
        "parametric_curve", "scatter_sample",
    ),
    "potentials": (
        "P_PLUS", "FellowsSmith", "Harmonic", "ModifiedIsotonic", "ModifiedPoschlTeller",
        "Morse", "PerturbedHarmonic", "PotentialSpec", "evaluate_potential",
        "parse_potential_spec",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
