"""Oscillator potential catalog: analytic ground states, ground energies,
reference harmonic frequencies, and parameter-validity rules.

Conventions: hbar = m = 1, Hamiltonian H = p^2/2 + V(x). Each potential is a
small frozen dataclass validated on construction; the union of them is the
``PotentialSpec`` type accepted by every operation in the package.

Printed normalization prefactors of the analytic ground states are carried
along but never trusted: downstream numerics renormalize every sampled
amplitude before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

from .errors import DomainError, SpecError, UnsupportedSpecError
from .specfun import kummer_phi, kummer_phi_log_grid, log_gamma

# Well-structure boundaries of the supersymmetric-partner family.
P_PLUS = -0.5 + math.sqrt(2.0) / 4.0
P_MINUS = -0.5 - math.sqrt(2.0) / 4.0


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise SpecError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Harmonic:
    """V(x) = omega^2 x^2 / 2."""

    omega: float

    def __post_init__(self):
        _require_finite_positive("harmonic omega", self.omega)


@dataclass(frozen=True)
class Morse:
    """V(x) = D (e^{-2 alpha x} - 2 e^{-alpha x}), minimum -D at x = 0.

    D is the dissociation energy, alpha the inverse width. A bound state
    exists only for alpha < 2 sqrt(2D) (equivalently N > 0, with
    N = sqrt(2D)/alpha - 1/2 the highest allowed level index).
    """

    D: float
    alpha: float

    def __post_init__(self):
        _require_finite_positive("Morse D", self.D)
        _require_finite_positive("Morse alpha", self.alpha)
        limit = 2.0 * math.sqrt(2.0 * self.D)
        if self.alpha >= limit:
            raise SpecError(
                f"Morse bound-state constraint violated: alpha={self.alpha} must be "
                f"< 2*sqrt(2D)={limit:.6g} for at least one bound state"
            )

    @property
    def n_index(self) -> float:
        """N = sqrt(2D)/alpha - 1/2; levels n = 0..floor(N) exist while n < N."""
        return math.sqrt(2.0 * self.D) / self.alpha - 0.5


@dataclass(frozen=True)
class ModifiedPoschlTeller:
    """V(x) = -D / cosh^2(alpha x), depth D > 0."""

    D: float
    alpha: float

    def __post_init__(self):
        _require_finite_positive("MPT D", self.D)
        _require_finite_positive("MPT alpha", self.alpha)

    @property
    def s(self) -> float:
        """Depth reparametrization D = alpha^2 s (1+s) / 2, s > 0."""
        return 0.5 * (-1.0 + math.sqrt(1.0 + 8.0 * self.D / self.alpha**2))


@dataclass(frozen=True)
class ModifiedIsotonic:
    """V(x) = [x^2 + 4 (a+2)(a x^2 - 1) / (a (a x^2 + 1)^2)] / 2, a > 0.

    Interpolates between the harmonic and the isotonic oscillator; the well
    depth at the origin is V(0) = -2(a+2)/a.
    """

    a: float

    def __post_init__(self):
        _require_finite_positive("MIO a", self.a)


@dataclass(frozen=True)
class FellowsSmith:
    """Supersymmetric-partner family of the harmonic oscillator, p in (-1, 0].

    Exhibits a single well for p in [p+, 0], a double well for p in
    [p-, p+], and a triple well for p in (-1, p-], with
    p+- = -1/2 +- sqrt(2)/4. At p = 0 it reduces to the harmonic oscillator.
    """

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and -1.0 < self.p <= 0.0):
            raise SpecError(f"Fellows-Smith p must lie in (-1, 0], got {self.p!r}")


@dataclass(frozen=True)
class PerturbedHarmonic:
    """V(x) = omega^2 x^2 / 2 + eps3 x^3 + eps4 x^4, treated perturbatively.

    The coefficient guard |eps| <= eps_guard keeps inputs inside the regime
    where the first-order three-term ground-state expansion is meaningful;
    the guard is configurable per instance.
    """

    omega: float
    eps3: float = 0.0
    eps4: float = 0.0
    eps_guard: float = 0.5

    def __post_init__(self):
        _require_finite_positive("perturbed-harmonic omega", self.omega)
        _require_finite_positive("perturbed-harmonic eps_guard", self.eps_guard)
        for name, value in (("eps3", self.eps3), ("eps4", self.eps4)):
            if not math.isfinite(value) or abs(value) > self.eps_guard:
                raise SpecError(
                    f"perturbative guard violated: |{name}|={abs(value)!r} exceeds "
                    f"{self.eps_guard}"
                )


PotentialSpec = Union[
    Harmonic, Morse, ModifiedPoschlTeller, ModifiedIsotonic, FellowsSmith, PerturbedHarmonic
]


class WellRegion(Enum):
    SINGLE_WELL = "single"
    DOUBLE_WELL = "double"
    TRIPLE_WELL = "triple"


@dataclass(frozen=True)
class WellStructure:
    region: WellRegion
    p_plus: float = P_PLUS
    p_minus: float = P_MINUS


def fellows_smith_well_structure(p: float) -> WellStructure:
    """Classify the well structure for p in (-1, 0].

    Boundary values belong to the closed interval of the shallower
    structure: p+ is single-well, p- is double-well.
    """
    if not (math.isfinite(p) and -1.0 < p <= 0.0):
        raise DomainError(f"well structure defined for p in (-1, 0], got {p!r}")
    if p >= P_PLUS:
        return WellStructure(WellRegion.SINGLE_WELL)
    if p >= P_MINUS:
        return WellStructure(WellRegion.DOUBLE_WELL)
    return WellStructure(WellRegion.TRIPLE_WELL)


def morse_bound_state_count(D: float, alpha: float) -> int:
    """Number of Morse bound states for raw parameters D, alpha > 0.

    Levels n = 0, 1, ... exist while n < N with N = sqrt(2D)/alpha - 1/2,
    so the count is ceil(N) for N > 0 (an integer N contributes no level at
    n = N) and 0 once alpha reaches 2 sqrt(2D).
    """
    _require_finite_positive("D", D)
    _require_finite_positive("alpha", alpha)
    n_index = math.sqrt(2.0 * D) / alpha - 0.5
    if n_index <= 0.0:
        return 0
    return int(math.ceil(n_index))


def evaluate_potential(spec: PotentialSpec, x):
    """V(x) for a catalog potential; accepts scalars or numpy arrays."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("evaluate_potential requires finite x")
    if isinstance(spec, Harmonic):
        v = 0.5 * spec.omega**2 * x_arr**2
    elif isinstance(spec, Morse):
        with np.errstate(over="ignore"):
            v = spec.D * (np.exp(-2.0 * spec.alpha * x_arr) - 2.0 * np.exp(-spec.alpha * x_arr))
    elif isinstance(spec, ModifiedPoschlTeller):
        v = -spec.D / np.cosh(spec.alpha * x_arr) ** 2
    elif isinstance(spec, ModifiedIsotonic):
        a = spec.a
        v = 0.5 * (x_arr**2 + 4.0 * (a + 2.0) * (a * x_arr**2 - 1.0) / (a * (a * x_arr**2 + 1.0) ** 2))
    elif isinstance(spec, FellowsSmith):
        v = _fellows_smith_potential(spec.p, x_arr)
    elif isinstance(spec, PerturbedHarmonic):
        v = 0.5 * spec.omega**2 * x_arr**2 + spec.eps3 * x_arr**3 + spec.eps4 * x_arr**4
    else:
        raise SpecError(f"unknown potential spec {spec!r}")
    return v if np.ndim(x) else float(v)


def _fellows_smith_potential(p: float, x: np.ndarray) -> np.ndarray:
    # V = -2p + x^2/2 + 4(1+p) x^2 r [(1+p) r - 1], r = Phi_3/Phi_1. Both
    # Phi factors grow like e^{x^2} but their ratio stays O(1), so only the
    # ratio ever leaves log space.
    z = x * x
    log_phi1 = kummer_phi_log_grid((1.0 + p) / 2.0, 0.5, z)
    log_phi3 = kummer_phi_log_grid((3.0 + p) / 2.0, 1.5, z)
    ratio = np.exp(log_phi3 - log_phi1)
    return -2.0 * p + 0.5 * z + 4.0 * (1.0 + p) * z * ratio * ((1.0 + p) * ratio - 1.0)


def ground_state_log_amplitude(spec: PotentialSpec, x) -> np.ndarray:
    """log of the analytic ground-state amplitude, printed prefactor included.

    Working in log space keeps the hypergeometric states (which divide
    e^{x^2/2} by Phi(., .; x^2)) and deep-Morse states representable on wide
    grids. The prefactor is carried for diagnostics only; sampling
    renormalizes numerically.
    """
    x_arr = np.asarray(x, dtype=float)
    if isinstance(spec, Harmonic):
        return 0.25 * math.log(spec.omega / math.pi) - 0.5 * spec.omega * x_arr**2
    if isinstance(spec, Morse):
        n = spec.n_index
        log_c = (
            0.5 * math.log(2.0)
            + n * math.log(2.0 * n + 1.0)
            + 0.5 * (math.log(n) + math.log(spec.alpha) - math.log(2.0) - log_gamma(n + 1.0))
        )
        with np.errstate(over="ignore"):
            decay = np.exp(-spec.alpha * x_arr)
        return log_c - spec.alpha * n * x_arr - (n + 0.5) * decay
    if isinstance(spec, ModifiedPoschlTeller):
        s = spec.s
        log_c = -0.25 * math.log(math.pi) + 0.5 * (
            math.log(spec.alpha) + log_gamma(0.5 + s) - log_gamma(s)
        )
        u = np.abs(spec.alpha * x_arr)
        log_cosh = u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)
        return log_c - s * log_cosh
    if isinstance(spec, ModifiedIsotonic):
        a = spec.a
        norm = kummer_phi(4.0 / a, 0.5 + 4.0 / a, 1.0 / a)
        log_c = -0.25 * math.log(math.pi) - 0.5 * norm.log_scaled
        return log_c - 0.5 * x_arr**2 - (2.0 / a) * np.log(1.0 / a + x_arr**2)
    if isinstance(spec, FellowsSmith):
        p = spec.p
        log_c = (
            -0.25 * math.log(math.pi)
            + 0.5 * (p * math.log(2.0) - log_gamma(1.0 + p))
            + log_gamma(1.0 + p / 2.0)
        )
        z = x_arr * x_arr
        return log_c + 0.5 * z - kummer_phi_log_grid((1.0 + p) / 2.0, 0.5, z)
    if isinstance(spec, PerturbedHarmonic):
        raise UnsupportedSpecError(
            "perturbed-harmonic ground state is a number-basis expansion; "
            "use the perturbation module"
        )
    raise SpecError(f"unknown potential spec {spec!r}")


def ground_state_amplitude(spec: PotentialSpec, x):
    """Analytic ground-state amplitude as printed, prefactor and all.

    Raises OverflowError when the printed prefactor leaves the float range
    (deep Morse wells, N >~ 120); the grid-sampling path is unaffected since
    it renormalizes in log space.
    """
    log_amp = ground_state_log_amplitude(spec, x)
    if np.any(log_amp > 709.0):
        raise OverflowError(
            "printed ground-state amplitude exceeds the float range; sample on a "
            "grid and renormalize instead"
        )
    amp = np.exp(log_amp)
    return amp if np.ndim(x) else float(amp)


def reference_frequency(spec: PotentialSpec) -> float | None:
    """Frequency of the harmonic potential matching V near its global minimum.

    Returns None for the Fellows-Smith family below p+: the curvature at
    x = 0 vanishes at p+ and turns negative in the double-well region, and
    the x = 0 minimum that reappears in the triple-well region ignores the
    dominant side wells, so no proper reference exists there.
    """
    if isinstance(spec, Harmonic):
        return spec.omega
    if isinstance(spec, (Morse, ModifiedPoschlTeller)):
        return math.sqrt(2.0 * spec.D) * spec.alpha
    if isinstance(spec, ModifiedIsotonic):
        return math.sqrt(25.0 + 12.0 * spec.a)
    if isinstance(spec, FellowsSmith):
        # Below p+ the x = 0 curvature first turns negative (double well) and
        # then positive again (triple well), where it ignores the dominant
        # side wells; neither regime admits a faithful reference.
        if spec.p < P_PLUS:
            return None
        curvature = 1.0 + 8.0 * spec.p * (1.0 + spec.p)
        if curvature <= 0.0:
            return None
        return math.sqrt(curvature)
    if isinstance(spec, PerturbedHarmonic):
        return spec.omega
    raise SpecError(f"unknown potential spec {spec!r}")


def ground_energy(spec: PotentialSpec) -> float:
    """Analytic ground-state energy.

    The Morse energy is E = -alpha^2 N^2 / 2; a variant linear in alpha is
    sometimes quoted but disagrees with the finite-difference solver for
    every alpha != 1 (see the oracle cross-checks).
    """
    if isinstance(spec, Harmonic):
        return 0.5 * spec.omega
    if isinstance(spec, Morse):
        return -0.5 * spec.alpha**2 * spec.n_index**2
    if isinstance(spec, ModifiedPoschlTeller):
        return -0.5 * spec.alpha**2 * spec.s**2
    if isinstance(spec, ModifiedIsotonic):
        return 0.5 - 4.0 / spec.a
    if isinstance(spec, FellowsSmith):
        return 0.5 - spec.p
    if isinstance(spec, PerturbedHarmonic):
        raise UnsupportedSpecError(
            "perturbed-harmonic energy is perturbative; use the perturbation module"
        )
    raise SpecError(f"unknown potential spec {spec!r}")


_PARSE_TABLE = {
    "harmonic": (Harmonic, {"omega"}, set()),
    "morse": (Morse, {"D", "alpha"}, set()),
    "mpt": (ModifiedPoschlTeller, {"D", "alpha"}, set()),
    "mio": (ModifiedIsotonic, {"a"}, set()),
    "fs": (FellowsSmith, {"p"}, set()),
    "pert": (PerturbedHarmonic, {"omega"}, {"eps3", "eps4"}),
}

_AXIS_TABLE = {
    Harmonic: ("omega",),
    Morse: ("D", "alpha"),
    ModifiedPoschlTeller: ("D", "alpha"),
    ModifiedIsotonic: ("a",),
    FellowsSmith: ("p",),
    PerturbedHarmonic: ("omega", "eps3", "eps4"),
}


def parse_potential_spec(text: str) -> PotentialSpec:
    """Parse the CLI text form of a potential.

    Examples: ``morse:D=1,alpha=1``  ``mpt:D=1,alpha=0.5``  ``mio:a=2``
    ``fs:p=-0.4``  ``harmonic:omega=1``  ``pert:omega=1,eps3=0.1,eps4=0.2``.
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in _PARSE_TABLE:
        known = ", ".join(sorted(_PARSE_TABLE))
        raise SpecError(f"unknown potential {text!r}; expected one of: {known}")
    cls, required, optional = _PARSE_TABLE[kind]
    params: dict[str, float] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in required | optional:
            raise SpecError(f"unknown parameter {item!r} for potential {kind!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SpecError(f"cannot parse numeric value in {item!r}") from None
    missing = required - params.keys()
    if missing:
        raise SpecError(f"potential {kind!r} missing parameters: {sorted(missing)}")
    return cls(**params)


def with_parameter(spec: PotentialSpec, name: str, value: float) -> PotentialSpec:
    """Rebuild a spec with one named parameter replaced (sweep support).

    Fields that are not sweep axes, such as ``eps_guard``, carry over.
    """
    axes = _AXIS_TABLE[type(spec)]
    if name not in axes:
        raise SpecError(
            f"{type(spec).__name__} has no sweep axis {name!r}; choose from {list(axes)}"
        )
    return replace(spec, **{name: value})


def sweep_axes(spec: PotentialSpec) -> tuple[str, ...]:
    """Names of the sweepable parameters for the given spec."""
    return _AXIS_TABLE[type(spec)]
