"""Closed-form measures for the weakly perturbed harmonic oscillator and the
randomized ensemble relating them.

The ground state of V = omega^2 x^2 / 2 + eps3 x^3 + eps4 x^4 is truncated
to its three-term first-order expansion N^{-1/2} (|0> + alpha1 |1> +
alpha2 |2>) with N = 1 + alpha1^2 + alpha2^2. Everything downstream
(det sigma - 1/4, both nonlinearity measures, the parametric curve) follows in
closed form; the tests check every formula against exact Gaussian moments
of the three-term state in position space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SpecError
from .specfun import eta_ng_of_excess

_SQRT2 = math.sqrt(2.0)
EPS_GUARD = 0.5
# Bound on |alpha1| and |alpha2|: 3 EPS_GUARD / 2^{3/2}, which at omega = 1
# is exactly |eps3| <= EPS_GUARD for alpha1 and |eps4| <= EPS_GUARD for alpha2.
ALPHA_GUARD = 3.0 * EPS_GUARD / 2.0**1.5


@dataclass(frozen=True)
class PerturbativeState:
    """Three-term perturbative ground state."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name, value in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value!r}")

    @property
    def norm_n(self) -> float:
        """N = 1 + alpha1^2 + alpha2^2 (>= 1, equality iff unperturbed)."""
        return 1.0 + self.alpha1**2 + self.alpha2**2


class CurvePoint(NamedTuple):
    """Both variants of the even-perturbation curve eta_ng(eta_b).

    ``printed`` is the commonly quoted closed form
    h(sqrt(1 + 24 t) / 2) with t = eta_b^2 (eta_b^2 - 2); since t < 0 for
    every eta_b in (0, sqrt(2)), its argument falls below the h domain and
    the value is None there. ``corrected`` is h(sqrt(1 + 24 t^2) / 2), the
    form that follows from the variance formulas via
    det sigma = (1 + 24 (alpha2^2/N)^2) / 4 and alpha2^2/N = -t, and is the
    one the exact moments of the three-term state confirm.
    """

    printed: float | None
    corrected: float


def alpha_coefficients(eps3: float, eps4: float, omega: float = 1.0) -> PerturbativeState:
    """First-order expansion coefficients of the cubic/quartic perturbation.

    alpha1 = -3 eps3 / (2 omega)^{3/2} and
    alpha2 = -(eps4 / 2) (3 / sqrt(2)) / omega^2. The matrix elements behind
    them assume unit level spacing, so omega != 1 evaluates the same
    formulas verbatim. The perturbative guard |alpha1|, |alpha2| <=
    ALPHA_GUARD keeps the three-term expansion meaningful at every omega;
    at omega = 1 it is exactly |eps3|, |eps4| <= EPS_GUARD.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise SpecError(f"omega must be positive, got {omega!r}")
    # omega * omega leaves the float range exactly where omega**2 would, and before (2 omega)^1.5.
    if not 0.0 < omega * omega < math.inf:
        raise SpecError(f"omega={omega!r}: (2 omega)^1.5 or omega^2 under- or overflows")
    alpha1 = -3.0 * eps3 / (2.0 * omega) ** 1.5
    alpha2 = -0.5 * eps4 * (3.0 / _SQRT2) / omega**2
    for name, value in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not abs(value) <= ALPHA_GUARD:
            raise SpecError(
                f"perturbative guard violated: |{name}|={abs(value)!r} exceeds "
                f"{ALPHA_GUARD!r} (eps3={eps3!r}, eps4={eps4!r}, omega={omega!r})"
            )
    return PerturbativeState(alpha1=alpha1, alpha2=alpha2)


def eta_b_perturbative(state: PerturbativeState) -> float:
    """sqrt(1 - N^{-1/2}): the vacuum overlap of the three-term state is
    exactly N^{-1/2}. 1 - N^{-1/2} is -expm1(-log1p(alpha1^2 + alpha2^2) / 2),
    which does not cancel for small alphas."""
    return math.sqrt(-math.expm1(-0.5 * math.log1p(state.alpha1**2 + state.alpha2**2)))


def perturbed_excess(state: PerturbativeState) -> float:
    """var_q var_p - 1/4 of the three-term state with the 1/4 cancelled: [a1^2 (sqrt2 (a1^2 +
    a2^2) - 3 a2)^2 + a2^2 (6 a2^2 (1 + a2^2) + a1^2 (a2^2 - a1^2))] / N^3, whose square
    holds the terms that cancel each other near a2 = sqrt2 a1^2 / 3."""
    a1, a2 = state.alpha1, state.alpha2
    s1, s2 = a1 * a1, a2 * a2
    numerator = (s1 * (_SQRT2 * (s1 + s2) - 3.0 * a2) ** 2
                 + s2 * (6.0 * s2 * (1.0 + s2) + s1 * (s2 - s1)))
    return numerator / state.norm_n**3


def parametric_curve(eta_b: float) -> CurvePoint:
    """Evaluate both variants of the even-perturbation curve at eta_b."""
    if not (0.0 <= eta_b < 1.0):
        raise DomainError(f"parametric curve defined for eta_b in [0, 1), got {eta_b!r}")
    t = eta_b**2 * (eta_b**2 - 2.0)
    # det sigma - 1/4 = 6 t for the printed form and 6 t^2 for the corrected one.
    printed = eta_ng_of_excess(6.0 * t) if t >= 0.0 else None
    return CurvePoint(printed=printed, corrected=eta_ng_of_excess(6.0 * t * t))


def scatter_sample(
    n: int,
    eps3_range: tuple[float, float],
    eps4_range: tuple[float, float],
    omega: float = 1.0,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Draw n independent uniform (eps3, eps4) samples of the perturbative
    ensemble; ``measure_report`` of each ``pert`` spec evaluates both measures.

    Deterministic for a fixed seed; both range endpoints must respect the
    perturbative guard at ``omega``.
    """
    if n < 0:
        raise SpecError(f"sample count must be >= 0, got {n}")
    for name, (lo, hi) in (("eps3", eps3_range), ("eps4", eps4_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise SpecError(f"{name} range must be ordered and finite, got ({lo}, {hi})")
    # |alpha| grows with |eps|, so the two range ends bound every draw.
    for e3, e4 in zip(eps3_range, eps4_range):
        alpha_coefficients(e3, e4, omega)
    rng = np.random.default_rng(seed)
    eps3_draw = rng.uniform(eps3_range[0], eps3_range[1], n)
    eps4_draw = rng.uniform(eps4_range[0], eps4_range[1], n)
    return list(zip(eps3_draw.tolist(), eps4_draw.tolist()))
