"""Oscillator potential catalog: analytic ground states, ground energies,
reference harmonic frequencies, and parameter-validity rules.

Conventions: hbar = m = 1, Hamiltonian H = p^2/2 + V(x). Each potential is a
small frozen dataclass validated on construction; the union of them is the
``PotentialSpec`` type accepted by every operation in the package.

Printed normalization prefactors of the analytic ground states are carried
along but never trusted: downstream numerics renormalize every sampled
amplitude before use. Morse and MIO carry none; their log amplitudes are
measured from their peak, where they are 0.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import DomainError, SpecError, UnsupportedSpecError
from .perturbation import alpha_coefficients
from .specfun import kummer_phi_log_grid, log_gamma

# Lower edge of the supersymmetric-partner family's single-well region.
P_PLUS = -0.5 + math.sqrt(2.0) / 4.0


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise SpecError(f"{name} must be finite and positive, got {value!r}")


def _phi(d, series: bool = True):
    """e^{-d} - 1 + d of a float or an array, the Morse log-amplitude drop per unit N;
    ``series`` takes its Taylor series to d^5 where |d| < 1e-3 cancels the difference."""
    scalar = isinstance(d, float)
    direct = (math.expm1 if scalar else np.expm1)(-d) + d
    if not series:
        return direct
    taylor = d * d * (0.5 - d * (1 / 6 - d * (1 / 24 - d / 120)))
    small = abs(d) < 1e-3
    return (taylor if small else direct) if scalar else np.where(small, taylor, direct)


class _Family:
    """Physics shared by every catalog dataclass.

    Each family sets ``kind``, its name in the text form, and defines
    ``potential(x)`` (V on an array), ``log_amplitude(x)`` (log of the
    analytic ground state), ``omega_r()`` (reference frequency or None),
    ``energy()`` (ground energy) and ``seed_halfwidths(depth)``: exact
    halfwidths left and right of the origin, with a small margin, beyond
    which the amplitude stays ``depth`` e-foldings below its peak.
    ``sized_ground_state`` samples that grid once; a seed that misses its
    tail is a fault, not a reason to grow. Its dataclass fields are its
    parse keys and sweep axes. A family with a printed normalization adds
    its constant log prefactor in ``log_amplitude``; Morse and MIO have none.
    """

    kind: ClassVar[str]

    def quadrature_warnings(self) -> tuple[str, ...]:
        """Parameter regimes known to degrade the grid quadrature."""
        return ()


@dataclass(frozen=True)
class Harmonic(_Family):
    """V(x) = omega^2 x^2 / 2."""

    omega: float

    kind: ClassVar[str] = "harmonic"

    def __post_init__(self):
        _require_finite_positive("harmonic omega", self.omega)
        _require_finite_positive("harmonic omega/pi", self.omega / math.pi)

    def potential(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.omega**2 * x**2

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        log_prefactor = 0.25 * math.log(self.omega / math.pi)
        return log_prefactor - 0.5 * self.omega * x**2

    def omega_r(self) -> float:
        return self.omega

    def energy(self) -> float:
        return 0.5 * self.omega

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        w = 1.1 * math.sqrt(2.0 * depth / self.omega)
        return w, w


@dataclass(frozen=True)
class Morse(_Family):
    """V(x) = D (e^{-2 alpha x} - 2 e^{-alpha x}), minimum -D at x = 0.

    D is the dissociation energy, alpha the inverse width. A bound state
    exists only for alpha < 2 sqrt(2D) (equivalently N > 0, with
    N = sqrt(2D)/alpha - 1/2 the highest allowed level index).
    """

    D: float
    alpha: float

    kind: ClassVar[str] = "morse"

    def __post_init__(self):
        _require_finite_positive("Morse D", self.D)
        _require_finite_positive("Morse alpha", self.alpha)
        limit = 2.0 * math.sqrt(2.0 * self.D)
        if self.alpha >= limit:
            raise SpecError(
                f"Morse bound-state constraint violated: alpha={self.alpha} must be "
                f"< 2*sqrt(2D)={limit:.6g} for at least one bound state"
            )
        # D and alpha far apart in scale push N or omega_R out of the float range.
        _require_finite_positive("Morse N = sqrt(2D)/alpha - 1/2", self.n_index)
        _require_finite_positive("Morse omega_R = sqrt(2D)*alpha", self.omega_r())

    @property
    def n_index(self) -> float:
        """N = sqrt(2D)/alpha - 1/2; levels n = 0..floor(N) exist while n < N."""
        return math.sqrt(2.0 * self.D) / self.alpha - 0.5

    def potential(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.D * (np.exp(-2.0 * self.alpha * x) - 2.0 * np.exp(-self.alpha * x))

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        n = self.n_index
        d = self.alpha * x - math.log1p(0.5 / n)
        with np.errstate(over="ignore"):
            return -n * _phi(d, series=n > 1e6)

    def omega_r(self) -> float:
        return math.sqrt(2.0 * self.D) * self.alpha

    def energy(self) -> float:
        """E = -alpha^2 N^2 / 2; a variant linear in alpha is sometimes quoted
        but disagrees with the finite-difference solver for every alpha != 1
        (see the oracle cross-checks)."""
        return -0.5 * self.alpha**2 * self.n_index**2

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        """Both roots of phi(d) = tau = (depth + 1)/N by Newton from outside, as
        phi is convex: from tau + sqrt(2 tau) on the right, and on the left from
        -sqrt(2 tau), or from -log1p(2 tau) once tau >= 2."""
        n = self.n_index
        tau = (depth + 1.0) / n
        left = -math.sqrt(2.0 * tau) if tau < 2.0 else -math.log1p(2.0 * tau)
        right = tau + math.sqrt(2.0 * tau)
        for _ in range(6):  # the residual is below 3e-13 of tau after 5
            left, right = (d + (_phi(d) - tau) / math.expm1(-d) for d in (left, right))
        shift = math.log1p(0.5 / n)
        return -(left + shift) / self.alpha, (right + shift) / self.alpha

    def quadrature_warnings(self) -> tuple[str, ...]:
        if self.alpha > 0.98 * 2.0 * math.sqrt(2.0 * self.D):
            return (
                "alpha is within 2% of the bound-state limit 2*sqrt(2D); quadrature degrades",
            )
        return ()


@dataclass(frozen=True)
class ModifiedPoschlTeller(_Family):
    """V(x) = -D / cosh^2(alpha x), depth D > 0."""

    D: float
    alpha: float

    kind: ClassVar[str] = "mpt"

    def __post_init__(self):
        _require_finite_positive("MPT D", self.D)
        _require_finite_positive("MPT alpha", self.alpha)
        _require_finite_positive("MPT alpha^2", self.alpha * self.alpha)
        _require_finite_positive("MPT s = (sqrt(1 + 8D/alpha^2) - 1)/2", self.s)
        _require_finite_positive("MPT omega_R = sqrt(2D)*alpha", self.omega_r())

    @property
    def s(self) -> float:
        """Depth reparametrization D = alpha^2 s (1+s) / 2, s > 0."""
        return 0.5 * (-1.0 + math.sqrt(1.0 + 8.0 * self.D / self.alpha**2))

    def potential(self, x: np.ndarray) -> np.ndarray:
        return -self.D / np.cosh(self.alpha * x) ** 2

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        s = self.s
        log_prefactor = -0.25 * math.log(math.pi) + 0.5 * (
            math.log(self.alpha) + log_gamma(0.5 + s) - log_gamma(s)
        )
        u = np.abs(self.alpha * x)
        if s > 1e6:  # the seed keeps u below about 0.04, where sinh is safe
            log_cosh = np.log1p(2.0 * np.sinh(0.5 * u) ** 2)
        else:
            log_cosh = u + np.log1p(0.5 * np.expm1(-2.0 * u))
        return log_prefactor - s * log_cosh

    def omega_r(self) -> float:
        return math.sqrt(2.0 * self.D) * self.alpha

    def energy(self) -> float:
        return -0.5 * self.alpha**2 * self.s**2

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        """arccosh(e^t)/alpha, t = (depth + 1)/s: s log cosh(alpha w) = depth + 1."""
        t = (depth + 1.0) / self.s
        w = (t + math.log1p(math.sqrt(-math.expm1(-2.0 * t)))) / self.alpha
        return w, w


@dataclass(frozen=True)
class ModifiedIsotonic(_Family):
    """V(x) = [x^2 + 4 (a+2)(a x^2 - 1) / (a (a x^2 + 1)^2)] / 2, a > 0.

    Interpolates between the harmonic and the isotonic oscillator; the well
    depth at the origin is V(0) = -2(a+2)/a. The ground state
    e^{-x^2/2} (1 + a x^2)^{-2/a} is carried unnormalized, with peak 1 at
    x = 0: its printed normalization Phi(4/a, 1/2 + 4/a; 1/a) is a constant
    that sampling renormalizes away, and for small a it would swamp the
    x-dependence of the log amplitude in rounding. As a -> 0 the state
    tends to the omega = 5 Gaussian.
    """

    a: float

    kind: ClassVar[str] = "mio"

    def __post_init__(self):
        _require_finite_positive("MIO a", self.a)
        _require_finite_positive("MIO 4/a", 4.0 / self.a)
        # a x^2 must stay finite out to x^2 = 1e4, past any tail's seed (at most 1,500)
        _require_finite_positive("MIO 1e4*a", 1e4 * self.a)
        _require_finite_positive("MIO omega_R = sqrt(25 + 12a)", self.omega_r())

    def potential(self, x: np.ndarray) -> np.ndarray:
        a = self.a
        return 0.5 * (x**2 + 4.0 * (a + 2.0) * (a * x**2 - 1.0) / (a * (a * x**2 + 1.0) ** 2))

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        a = self.a
        return -0.5 * x**2 - (2.0 / a) * np.log1p(a * x**2)

    def omega_r(self) -> float:
        return math.sqrt(25.0 + 12.0 * self.a)

    def energy(self) -> float:
        return 0.5 - 4.0 / self.a

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        """sqrt(u), u/2 + (2/a) log1p(a u) = depth + 1: Newton from u = 0 rises
        to the root, as the left side is concave."""
        a, u = self.a, 0.0
        for _ in range(8):
            excess = depth + 1.0 - 0.5 * u - (2.0 / a) * math.log1p(a * u)
            u += excess / (0.5 + 2.0 / (1.0 + a * u))
        return math.sqrt(u), math.sqrt(u)


@dataclass(frozen=True)
class FellowsSmith(_Family):
    """Supersymmetric-partner family of the harmonic oscillator, p in (-1, 0].

    Exhibits a single well for p in [p+, 0], a double well for p in
    [p-, p+], and a triple well for p in (-1, p-], with
    p+- = -1/2 +- sqrt(2)/4. At p = 0 it reduces to the harmonic oscillator.
    """

    p: float

    kind: ClassVar[str] = "fs"

    def __post_init__(self):
        if not (math.isfinite(self.p) and -1.0 < self.p <= 0.0):
            raise SpecError(f"Fellows-Smith p must lie in (-1, 0], got {self.p!r}")

    def potential(self, x: np.ndarray) -> np.ndarray:
        # V = -2p + x^2/2 + 4(1+p) x^2 r [(1+p) r - 1], r = Phi_3/Phi_1. Both
        # Phi factors grow like e^{x^2} but their ratio stays O(1), so only the
        # ratio ever leaves log space.
        p = self.p
        z = x * x
        log_phi1 = kummer_phi_log_grid((1.0 + p) / 2.0, 0.5, z)
        log_phi3 = kummer_phi_log_grid((3.0 + p) / 2.0, 1.5, z)
        ratio = np.exp(log_phi3 - log_phi1)
        return -2.0 * p + 0.5 * z + 4.0 * (1.0 + p) * z * ratio * ((1.0 + p) * ratio - 1.0)

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        p = self.p
        log_prefactor = (
            -0.25 * math.log(math.pi)
            + 0.5 * (p * math.log(2.0) - log_gamma(1.0 + p))
            + log_gamma(1.0 + p / 2.0)
        )
        z = x * x
        return log_prefactor + 0.5 * z - kummer_phi_log_grid((1.0 + p) / 2.0, 0.5, z)

    def omega_r(self) -> float | None:
        """None below p+: the curvature at x = 0 vanishes at p+ and turns
        negative in the double-well region, and the x = 0 minimum that
        reappears in the triple-well region ignores the dominant side
        wells, so no proper reference exists there."""
        if self.p < P_PLUS:
            return None
        curvature = 1.0 + 8.0 * self.p * (1.0 + self.p)
        if curvature <= 0.0:
            return None
        return math.sqrt(curvature)

    def energy(self) -> float:
        return 0.5 - self.p

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        """1.1 w, with w^2/2 + p ln w = t = depth + ln(Gamma(a)/Gamma(1/2))/2.

        The tail is Gamma(a)/Gamma(1/2) e^{-x^2/2} |x|^{-p} times the x = 0
        value (DLMF 13.7.2, a = (1+p)/2), and the peak sits about half that
        log constant above it. Four fixed-point steps from sqrt(2t) settle
        w, so the seed needs no growth; at p = 0 it is Harmonic(1)'s.
        """
        t = depth + 0.5 * (log_gamma(0.5 * (1.0 + self.p)) - log_gamma(0.5))
        w = math.sqrt(2.0 * t)
        for _ in range(4):
            w = math.sqrt(2.0 * (t - self.p * math.log(w)))
        return 1.1 * w, 1.1 * w


_PERTURBED_UNSUPPORTED = (
    "perturbed-harmonic ground state is a number-basis expansion; use the perturbation module"
)


@dataclass(frozen=True)
class PerturbedHarmonic(_Family):
    """V(x) = omega^2 x^2 / 2 + eps3 x^3 + eps4 x^4, treated perturbatively.

    The perturbative guard of ``alpha_coefficients`` (|alpha1|, |alpha2|
    bounded; |eps| <= 1/2 at omega = 1) keeps inputs inside the regime
    where the first-order three-term ground-state expansion is meaningful.
    The state has no position-space amplitude: ``log_amplitude`` and
    ``seed_halfwidths`` raise UnsupportedSpecError, and ``measure_report``
    takes the perturbative route.
    """

    omega: float
    eps3: float = 0.0
    eps4: float = 0.0

    kind: ClassVar[str] = "pert"

    def __post_init__(self):
        _require_finite_positive("perturbed-harmonic omega", self.omega)
        # Called for its guard, the one place it is written; the result is dropped.
        alpha_coefficients(self.eps3, self.eps4, self.omega)

    def potential(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.omega**2 * x**2 + self.eps3 * x**3 + self.eps4 * x**4

    def log_amplitude(self, x: np.ndarray) -> np.ndarray:
        raise UnsupportedSpecError(_PERTURBED_UNSUPPORTED)

    def omega_r(self) -> float:
        return self.omega

    def energy(self) -> float:
        # First-order ground energy: omega/2 + eps4 <0|x^4|0> (the cubic term
        # enters only at second order).
        return 0.5 * self.omega + self.eps4 * 0.75 / self.omega**2

    def seed_halfwidths(self, depth: float) -> tuple[float, float]:
        raise UnsupportedSpecError(_PERTURBED_UNSUPPORTED)


PotentialSpec = Union[
    Harmonic, Morse, ModifiedPoschlTeller, ModifiedIsotonic, FellowsSmith, PerturbedHarmonic
]

_FAMILIES = {cls.kind: cls for cls in get_args(PotentialSpec)}


def evaluate_potential(spec: PotentialSpec, x):
    """V(x) for a catalog potential; accepts scalars or numpy arrays."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("evaluate_potential requires finite x")
    v = spec.potential(x_arr)
    return v if np.ndim(x) else float(v)


def ground_state_log_amplitude(spec: PotentialSpec, x) -> np.ndarray:
    """log of the analytic ground-state amplitude, with the family's printed
    prefactor if it carries one. Log space keeps the hypergeometric and the
    deep-well states representable on wide grids."""
    return spec.log_amplitude(np.asarray(x, dtype=float))


def parse_potential_spec(text: str) -> PotentialSpec:
    """Parse the CLI text form of a potential.

    Examples: ``morse:D=1,alpha=1``  ``mpt:D=1,alpha=0.5``  ``mio:a=2``
    ``fs:p=-0.4``  ``harmonic:omega=1``  ``pert:omega=1,eps3=0.1,eps4=0.2``.
    """
    family, params = parse_potential_params(text)
    return family(**params)


def parse_potential_params(
    text: str, sweep_axis: str | None = None
) -> tuple[type[PotentialSpec], dict[str, float]]:
    """Family class and unchecked parameter values of the text form; a
    ``sweep_axis`` must be a key of the family, and the text may omit it."""
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise SpecError(f"unknown potential {text!r}; expected one of: {known}")
    cls = _FAMILIES[kind]
    keys = sweep_axes(cls)
    params: dict[str, float] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise SpecError(f"unknown parameter {item!r} for potential {kind!r}")
        if key in params:
            raise SpecError(f"repeated parameter {key!r} in potential {text!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SpecError(f"cannot parse numeric value in {item!r}") from None
    missing = {f.name for f in fields(cls) if f.default is MISSING} - params.keys() - {sweep_axis}
    if missing:
        raise SpecError(f"potential {kind!r} missing parameters: {sorted(missing)}")
    if sweep_axis is not None:
        require_sweep_axis(cls, sweep_axis)
    return cls, params


def with_parameter(spec: PotentialSpec, name: str, value: float) -> PotentialSpec:
    """Rebuild a spec with one named parameter replaced (sweep support)."""
    require_sweep_axis(type(spec), name)
    return replace(spec, **{name: value})


def require_sweep_axis(family: type[PotentialSpec], name: str) -> None:
    """Raise SpecError unless ``name`` is a sweep axis of the family class."""
    axes = sweep_axes(family)
    if name not in axes:
        raise SpecError(f"{family.__name__} has no sweep axis {name!r}; choose from {list(axes)}")


def sweep_axes(spec: PotentialSpec) -> tuple[str, ...]:
    """Names of the sweepable parameters for the given spec (or family
    class), in declaration order; these are also its parse keys."""
    return tuple(f.name for f in fields(spec))
