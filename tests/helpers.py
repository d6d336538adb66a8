"""Independent oracles used to freeze expected values.

Everything here is deliberately decoupled from the package's own evaluation
paths: Stirling series for Gamma, exact-rational series for the confluent
hypergeometric function, mpmath quadrature for moments, and plain
finite differences for local energies.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 40

# Bernoulli numbers B_2..B_16 for the Stirling series.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]


def stirling_log_gamma(x: float) -> float:
    """log Gamma via the Stirling asymptotic series after an 8-step shift.

    The shift keeps the argument >= 8 where the truncated series error is
    far below 1e-15 relative; the recurrence divides the shift terms back
    out. Independent of the C library Gamma.
    """
    import math

    shift = 0
    while x < 8.0:
        shift += 1
        x += 1.0
    # log Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2 + sum B_2k / (2k(2k-1) x^{2k-1})
    series = 0.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        series += float(b2k) / (2 * k * (2 * k - 1) * x ** (2 * k - 1))
    value = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series
    for j in range(1, shift + 1):
        value -= math.log(x - j)
    return value


def gamma_oracle(x: float) -> float:
    import math

    return math.exp(stirling_log_gamma(x))


def kummer_rational_series(a: int, b: int, z: int, terms: int = 200) -> float:
    """Exact-rational truncated series for integer parameters."""
    total = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        total += term
        term = term * (a + n) * z / ((b + n) * (n + 1))
    return float(total)


def kummer_mp(a: float, b: float, z: float) -> mp.mpf:
    return mp.hyp1f1(a, b, z)


def sech_state_moments(s: float) -> tuple[float, float]:
    """(var_x, var_p) of the normalized amplitude sech^s(x) via mpmath.

    var_p integrates (d/dx sech^s)^2 = s^2 sech^{2s} tanh^2 analytically
    under mpmath quadrature.
    """
    norm = mp.quad(lambda u: mp.sech(u) ** (2 * s), [-mp.inf, 0, mp.inf])
    var_x = mp.quad(lambda u: u**2 * mp.sech(u) ** (2 * s), [-mp.inf, 0, mp.inf]) / norm
    var_p = (
        mp.quad(
            lambda u: s**2 * mp.sech(u) ** (2 * s) * mp.tanh(u) ** 2,
            [-mp.inf, 0, mp.inf],
        )
        / norm
    )
    return float(var_x), float(var_p)


def mio_reference_fidelity(a: float) -> float:
    """Fidelity of the MIO ground state to its omega_R = sqrt(25 + 12a)
    reference Gaussian, by mpmath quadrature.

    The amplitude exp(-x^2/2) (1 + a x^2)^(-2/a) drops the constant
    prefactor, so no factor leaves the float range even where the printed
    amplitude does (a -> 0).
    """
    a = mp.mpf(a)
    omega = mp.sqrt(25 + 12 * a)
    breaks = [-10, -4, -2, -1, 0, 1, 2, 4, 10]

    def state(u):
        return mp.exp(-(u**2) / 2 - (2 / a) * mp.log(1 + a * u**2))

    def reference(u):
        return mp.exp(-omega * u**2 / 2)

    overlap = mp.quad(lambda u: state(u) * reference(u), breaks)
    norms = mp.quad(lambda u: state(u) ** 2, breaks) * mp.quad(lambda u: reference(u) ** 2, breaks)
    return float(overlap**2 / norms)


def morse_closed_moments(D: float, alpha: float) -> tuple[float, float]:
    """(var_x, var_p) of the Morse ground state.

    Substituting z = (2N+1) e^{-alpha x} turns the density into the Gamma(2N)
    distribution in z, giving var_x = psi'(2N) / alpha^2; the virial route
    gives var_p = alpha^2 N / 2.
    """
    n = float(mp.sqrt(2 * D)) / alpha - 0.5
    var_x = float(mp.polygamma(1, 2 * n)) / alpha**2
    var_p = alpha**2 * n / 2.0
    return var_x, var_p


def entropy_oracle(x: float) -> float:
    xm = mp.mpf(x)
    if xm == mp.mpf("0.5"):
        return 0.0
    return float((xm + 0.5) * mp.log(xm + 0.5) - (xm - 0.5) * mp.log(xm - 0.5))


def second_difference(fn, x: float, h: float = 1e-3) -> float:
    return (fn(x - h) - 2.0 * fn(x) + fn(x + h)) / h**2


def fourth_order_second_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """5-point 4th-order second derivative on the interior (edges zeroed)."""
    out = np.zeros_like(values)
    out[2:-2] = (
        -values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2] + 16.0 * values[3:-1] - values[4:]
    ) / (12.0 * spacing**2)
    return out


def wigner_normalization_check(state, half_extent_sigmas: float = 8.0, n: int = 201) -> float:
    """Trapezoid integral of the Wigner density over a covering box."""
    import math

    from nonlinosc.measures import wigner_gaussian

    cov = state.covariance
    sx = half_extent_sigmas * math.sqrt(cov.var_x)
    sp = half_extent_sigmas * math.sqrt(cov.var_p)
    xs = np.linspace(state.mean[0] - sx, state.mean[0] + sx, n)
    ps = np.linspace(state.mean[1] - sp, state.mean[1] + sp, n)
    values = np.empty((n, n))
    for i, xv in enumerate(xs):
        for j, pv in enumerate(ps):
            values[i, j] = wigner_gaussian(state, (xv, pv))
    inner = np.trapezoid(values, ps, axis=1)
    return float(np.trapezoid(inner, xs))
