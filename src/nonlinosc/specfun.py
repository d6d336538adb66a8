"""Special functions: log Gamma, Kummer's confluent hypergeometric, and the
Gaussian-state entropy function.

All functions are pure and stateless. The oscillator catalog needs Kummer
Phi for parameters a, b in (0, 20] and arguments z in [0, 1200], where the
series value can exceed the float range. ``kummer_phi_log_grid`` is the one
log-space evaluator: it sums the positive series terms in linear space and
rescales each element into a log scale before the sum can overflow.
``kummer_phi`` evaluates a scalar: a compensated series for small |z|, the
grid kernel on a one-element array for z > 40, so its results carry an
optional log-scaled companion value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_LOG_MAX = 709.0  # just under log(float max)
_SERIES_CAP = 100_000
_TAIL_RATIO = math.exp(-40.0)  # series stop: last term below e^-40 of the sum
_RESCALE_AT = 1e150  # growth bound that triggers a rescale in the grid kernel


@dataclass(frozen=True)
class EvaluationResult:
    """Value of a special function, with its natural log when positive.

    ``log_scaled`` is populated for every strictly positive result so
    overflow-prone callers (growing like exp(x^2)) can stay in log space;
    ``value`` is ``inf`` when the true value exceeds the float range.
    """

    value: float
    log_scaled: float | None = None


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _kummer_series(a: float, b: float, z: float) -> tuple[float, float]:
    """Direct power series with compensated summation.

    Returns (sum, max |term|). For z >= 0 all terms are positive; for
    z < 0 the series alternates and the caller is responsible for keeping
    |z| small enough that cancellation stays harmless.
    """
    term = 1.0
    total = 1.0
    comp = 0.0
    max_term = 1.0
    for n in range(_SERIES_CAP):
        term *= (a + n) * z / ((b + n) * (n + 1))
        if term == 0.0:
            return total, max_term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_term = max(max_term, abs(term))
        if abs(term) < 1e-17 * abs(total) and (a + n + 1) * abs(z) < (b + n + 1) * (n + 2):
            return total, max_term
    raise ConvergenceError(f"kummer series did not converge for a={a}, b={b}, z={z}")


def kummer_phi(a: float, b: float, z: float) -> EvaluationResult:
    """Kummer's confluent hypergeometric function Phi(a, b; z).

    Phi(a,b;z) = sum_n (a)_n z^n / ((b)_n n!). Strategy: direct compensated
    series for z in [-8, 40]; ``kummer_phi_log_grid`` on a one-element array
    for z > 40, where every term is positive; the transformation
    Phi(a,b;z) = e^z Phi(b-a, b; -z) for z < -8, where the direct
    alternating series would lose more than ~8 significant digits.

    Relative error is ~1e-12 for a, b > 0 and z >= 0 (the catalog regime);
    for negative z the alternating-series cancellation bounds accuracy to
    roughly 1e-9 near z = -8.
    """
    for name, v in (("a", a), ("b", b), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"kummer_phi requires finite {name}, got {v!r}")
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"kummer_phi parameter pole at b={b!r}")

    if z < -8.0:
        inner = kummer_phi(b - a, b, -z)
        if inner.log_scaled is not None:
            log_val = inner.log_scaled + z
            value = math.exp(log_val) if log_val < _LOG_MAX else math.inf
            return EvaluationResult(value, log_val)
        value = math.exp(z) * inner.value
        return EvaluationResult(value, None)

    if z <= 40.0:
        value, max_term = _kummer_series(a, b, z)
        if value != 0.0 and 2.3e-16 * max_term > 1e-8 * abs(value):
            raise ConvergenceError(
                f"kummer series cancellation too severe for a={a}, b={b}, z={z}"
            )
        log_val = math.log(value) if value > 0.0 else None
        return EvaluationResult(value, log_val)

    if a <= 0.0:
        # Only reachable via the z < -8 transformation with b <= a; the
        # positive-term grid kernel does not apply.
        raise ConvergenceError(
            f"kummer_phi unsupported regime: a={a} <= 0 with large z={z}"
        )
    log_val = float(kummer_phi_log_grid(a, b, np.array([z]))[0])
    value = math.exp(log_val) if log_val < _LOG_MAX else math.inf
    return EvaluationResult(value, log_val)


def kummer_phi_log_grid(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log Phi(a, b; z) for an array of arguments z >= 0 (a, b > 0).

    Sums the positive series terms in linear space, one array update per
    term: term <- term * (a+n) z / ((b+n)(n+1)), total += term. A scalar
    bound on the growth since the last rescale, the product of
    max(1, c_n z_max), keeps the arrays inside the float range: once it
    passes 1e150 every element divides its term and total by its total and
    adds log(total) to its own log scale. The sum stops when the last term
    is past the ratio peak and below e^-40 of the sum everywhere. Used to
    sample hypergeometric ground states on grids without overflow.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"kummer_phi_log_grid requires a, b > 0, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return np.zeros_like(z)
    if np.any(z < 0.0) or not np.all(np.isfinite(z)):
        raise DomainError("kummer_phi_log_grid requires finite z >= 0")
    i_max = int(np.argmax(z))
    z_max = float(z.flat[i_max])
    term = np.ones_like(z)
    total = np.ones_like(z)
    log_scale = np.zeros_like(z)
    growth = 1.0
    for n in range(_SERIES_CAP):
        c = (a + n) / ((b + n) * (n + 1))
        term *= z
        term *= c
        total += term
        growth *= max(1.0, c * z_max)
        if growth > _RESCALE_AT:
            term /= total
            log_scale += np.log(total)
            total.fill(1.0)
            growth = 1.0
        # term/total grows with z at every n, so the largest z settles last;
        # testing it first skips the full-array test on most terms.
        if (
            (a + n + 1) * z_max < (b + n + 1) * (n + 2)
            and term.flat[i_max] < _TAIL_RATIO * total.flat[i_max]
            and np.all(term < _TAIL_RATIO * total)
        ):
            return np.log(total) + log_scale
    raise ConvergenceError(f"kummer_phi_log_grid did not converge for a={a}, b={b}")


def entropy_h(x: float) -> float:
    """Entropy of a Gaussian state with symplectic eigenvalue x:
    h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2).

    Inputs within 1e-9 below 1/2 are clamped to exactly 1/2 (quadrature
    noise on a pure Gaussian can push sqrt(det sigma) marginally under the
    Heisenberg minimum); anything lower is a genuine domain violation.
    h(1/2) = 0 by the x -> 1/2 limit, and h is strictly increasing.
    """
    if not math.isfinite(x):
        raise DomainError(f"entropy_h requires finite x, got {x!r}")
    if x < 0.5 - 1e-9:
        raise DomainError(
            f"entropy_h argument {x!r} is below 1/2: unphysical covariance determinant"
        )
    x = max(x, 0.5)
    minus = x - 0.5
    tail = 0.0 if minus == 0.0 else minus * math.log(minus)
    return (x + 0.5) * math.log(x + 0.5) - tail
