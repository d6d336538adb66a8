"""Special functions: log Gamma, Kummer's confluent hypergeometric on a
grid, and the Gaussian-state entropy function.

All functions are pure and stateless. Kummer Phi enters the catalog only
through the Fellows-Smith ground state and potential, as Phi(a, b; x^2)
sampled on a whole grid, where the series value can exceed the float
range. ``kummer_phi_log_grid`` is that one log-space evaluator: it sums the
positive series terms in linear space and rescales each element into a log
scale before the sum can overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

_SERIES_CAP = 100_000
_TAIL_RATIO = math.exp(-40.0)  # series stop: last term below e^-40 of the sum
_RESCALE_AT = 1e150  # growth bound that triggers a rescale in the grid kernel


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


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
