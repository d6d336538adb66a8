"""Independent oracles used to freeze expected values, and test aids.

The oracles are deliberately decoupled from the package's own evaluation
paths: Stirling series for Gamma, exact-rational series for the confluent
hypergeometric function, mpmath quadrature for moments, exact Gaussian
moments for the three-term perturbative state, and plain finite
differences for local energies. The Gaussian-state, Bures-distance,
Gamma, resampled-overlap, fixed-grid sampling, grid-refinement and
bound-state-count aids at the end serve tests only; no package path needs
them.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from nonlinosc.errors import ConvergenceError, DomainError, UnsupportedSpecError
from nonlinosc.numerics import Grid, SampledWavefunction, simpson_integral
from nonlinosc.oracle import _tridiagonal_hamiltonian
from nonlinosc.potentials import ModifiedPoschlTeller, Morse, ground_state_log_amplitude

mp.mp.dps = 40

# Upper edge of the Fellows-Smith triple-well region (p+ is in the package).
P_MINUS = -0.5 - math.sqrt(2.0) / 4.0

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
    return math.exp(stirling_log_gamma(x))


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


def morse_reference_fidelity(D: float, alpha: float) -> float:
    """Fidelity of the Morse ground state to its omega_R = sqrt(2D) alpha
    reference Gaussian: an mpmath overlap on a finite interval over the
    closed norm^2 (2N+1)^(-2N) Gamma(2N) / alpha of the printed amplitude
    exp(-alpha N x - (N + 1/2) e^{-alpha x})."""
    D, alpha = mp.mpf(D), mp.mpf(alpha)
    n = mp.sqrt(2 * D) / alpha - mp.mpf(1) / 2
    omega = mp.sqrt(2 * D) * alpha
    norm_sq = (2 * n + 1) ** (-2 * n) * mp.gamma(2 * n) / alpha

    def product(u):
        state = mp.exp(-alpha * n * u - (n + mp.mpf(1) / 2) * mp.exp(-alpha * u))
        return state * (omega / mp.pi) ** mp.mpf(0.25) * mp.exp(-omega * u**2 / 2)

    width = 1 / mp.sqrt(omega)  # the reference is below e^{-72} past 12 widths
    overlap = mp.quad(product, [k * width for k in (-12, -4, -1, 0, 1, 4, 12)])
    return float(overlap**2 / norm_sq)


def mpt_closed_det(s: float) -> float:
    """det sigma of the MPT ground state sech^s(alpha x), which is free of
    alpha: with u = alpha x, (1 + tanh u)/2 is Beta(s, s) distributed, so
    var u = psi'(s)/2, and <tanh^2 u> = 1/(2s + 1)."""
    s = mp.mpf(s)
    return float(s**2 * mp.polygamma(1, s) / (2 * (2 * s + 1)))


def mio_closed_moments(a: float) -> tuple[float, float]:
    """(var_x, var_p) of the MIO ground state e^{-x^2/2} (1 + a x^2)^{-2/a}.

    With c = 4/a the moments I_k(c) of x^{2k} e^{-x^2} (1 + a x^2)^{-c} are
    a^{-(k+1/2)} Gamma(k + 1/2) U(k + 1/2, k + 3/2 - c, 1/a) (DLMF 13.4.4,
    t = a x^2), and psi'/psi = -x (1 + 4/(1 + a x^2)) gives var_p. mpmath's
    U can be wrong here at a fixed precision (by 1e-9 at a = 0.019 and 40
    digits), so the precision doubles until two evaluations agree.
    """

    def moments():
        x = mp.mpf(a)

        def moment(k, c):
            order = k + mp.mpf(1) / 2
            return x**-order * mp.gamma(order) * mp.hyperu(order, order + 1 - c, 1 / x)

        c = 4 / x
        i0, i1 = moment(0, c), moment(1, c)
        return i1 / i0, (i1 + 8 * moment(1, c + 1) + 16 * moment(1, c + 2)) / i0

    previous = None
    for dps in (40, 80, 160, 320):
        with mp.workdps(dps):
            current = moments()
            if previous and all(abs(v - w) <= 1e-25 * v for v, w in zip(current, previous)):
                return float(current[0]), float(current[1])
        previous = current
    raise ConvergenceError(f"MIO moments at a={a!r} did not settle up to 320 digits")


def _gaussian_mean(poly: Polynomial) -> float:
    """Integral of poly(x) e^{-x^2} dx / sqrt(pi), from the exact moments
    (k-1)!! / 2^{k/2} of even x^k (odd moments vanish)."""
    return sum(
        c * math.prod(range(k - 1, 0, -2)) / 2.0 ** (k // 2)
        for k, c in enumerate(poly.coef) if k % 2 == 0
    )


def three_term_state(a1: float, a2: float) -> tuple[float, float, float]:
    """(vacuum overlap, var_x, var_p) of (|0> + a1 |1> + a2 |2>) / sqrt(N) at omega = 1.

    Integrates the position-space state psi ~ e^{-x^2/2} P(x) with
    P = 1 - a2/sqrt(2) + sqrt(2) a1 x + sqrt(2) a2 x^2 against exact Gaussian
    moments, independent of the closed-form alpha algebra. psi is real, so
    <p> = 0 and <p^2> is the mean of psi'^2 = e^{-x^2} (P' - x P)^2.
    """
    root2 = math.sqrt(2.0)
    p = Polynomial([1.0 - a2 / root2, root2 * a1, root2 * a2])
    x = Polynomial([0.0, 1.0])
    norm = _gaussian_mean(p**2)
    mean_x = _gaussian_mean(x * p**2) / norm
    var_x = _gaussian_mean(x**2 * p**2) / norm - mean_x**2
    var_p = _gaussian_mean((p.deriv() - x * p) ** 2) / norm
    return _gaussian_mean(p) / math.sqrt(norm), var_x, var_p


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


class UnphysicalCovarianceError(ValueError):
    """Covariance matrix violates the pure-state Heisenberg bound."""


@dataclass(frozen=True)
class GaussianCovariance:
    """General covariance matrix of (x, p) with the mean vector; the
    package's CovarianceMatrix holds only what a real state needs."""

    var_x: float
    var_p: float
    cov_xp: float = 0.0
    mean_x: float = 0.0
    mean_p: float = 0.0

    @property
    def det(self) -> float:
        return self.var_x * self.var_p - self.cov_xp**2


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state given by its mean vector and covariance matrix."""

    mean: tuple[float, float]
    covariance: GaussianCovariance


def reference_gaussian(cov: GaussianCovariance) -> GaussianState:
    """Gaussian state with the same mean vector and covariance matrix."""
    if cov.det < 0.25 - 1e-6:
        raise UnphysicalCovarianceError(
            f"det sigma = {cov.det} violates the pure-state Heisenberg bound 1/4"
        )
    return GaussianState(mean=(cov.mean_x, cov.mean_p), covariance=cov)


def wigner_gaussian(state: GaussianState, point: tuple[float, float]) -> float:
    """Wigner density of a Gaussian state at a phase-space point:
    exp(-(X - mean)^T sigma^{-1} (X - mean) / 2) / (2 pi sqrt(det sigma))."""
    cov = state.covariance
    det = cov.det
    if det <= 0.0:
        raise UnphysicalCovarianceError(f"singular covariance, det = {det}")
    dx = point[0] - state.mean[0]
    dp = point[1] - state.mean[1]
    quad = (cov.var_p * dx**2 - 2.0 * cov.cov_xp * dx * dp + cov.var_x * dp**2) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def bures_distance(fidelity: float) -> float:
    """D_B = sqrt(2 (1 - sqrt(F))), with F clamped to [0, 1]."""
    f = min(max(fidelity, 0.0), 1.0)
    return math.sqrt(2.0 * (1.0 - math.sqrt(f)))


def gamma_fn(x: float) -> float:
    """Platform Gamma for real non-pole arguments, with DomainError at the
    poles and for non-finite input."""
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at non-positive integer x={x!r}")
    return math.gamma(x)


def resampled_overlap(wf1: SampledWavefunction, wf2: SampledWavefunction) -> float:
    """Overlap of two normalized states on different grids: both are
    linearly resampled onto one uniform grid covering both domains at half
    the finer spacing."""
    g1, g2 = wf1.grid, wf2.grid
    lo = min(g1.x_min, g2.x_min)
    hi = max(g1.x_max, g2.x_max)
    n = int(math.ceil((hi - lo) / (0.5 * min(g1.spacing, g2.spacing)))) + 1
    if n % 2 == 0:
        n += 1
    common = np.linspace(lo, hi, n)
    a1 = np.interp(common, g1.points(), wf1.amplitude, left=0.0, right=0.0)
    a2 = np.interp(common, g2.points(), wf2.amplitude, left=0.0, right=0.0)
    return simpson_integral(a1 * a2, common[1] - common[0])


def sample_ground_state(spec, grid: Grid) -> SampledWavefunction:
    """Tabulate and normalize the analytic ground state on a given grid, the
    way ``sized_ground_state`` treats the sample it keeps."""
    return SampledWavefunction(grid, np.exp(ground_state_log_amplitude(spec, grid.points())))


def refined(grid: Grid) -> Grid:
    """Same extent with halved spacing."""
    return replace(grid, n_points=2 * grid.n_points - 1)


def morse_bound_state_count(D: float, alpha: float) -> int:
    """Number of Morse bound states for D, alpha > 0.

    Levels n = 0, 1, ... exist while n < N with N = sqrt(2D)/alpha - 1/2,
    so the count is ceil(N) for N > 0 (an integer N contributes no level at
    n = N) and 0 once alpha reaches 2 sqrt(2D).
    """
    n_index = math.sqrt(2.0 * D) / alpha - 0.5
    return max(0, math.ceil(n_index))


def eigenvalues_at_or_below(diag: np.ndarray, off: np.ndarray, value: float) -> int:
    """LAPACK's count of a symmetric tridiagonal matrix's eigenvalues <= value;
    skips the calling test without SciPy."""
    linalg = pytest.importorskip("scipy.linalg")
    return linalg.eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, value)).size


def count_negative_eigenvalues(spec, grid: Grid) -> int:
    """Bound states of a potential vanishing at +infinity (Morse, MPT).

    LAPACK's count of the finite-difference Hamiltonian's eigenvalues at or
    below zero, re-checked on a spacing-halved grid; a mismatch means the
    discretization has not converged.
    """
    if not isinstance(spec, (Morse, ModifiedPoschlTeller)):
        raise UnsupportedSpecError(
            "negative-eigenvalue counting needs V -> 0 at +infinity; confining "
            "potentials have no natural zero threshold"
        )
    counts = [eigenvalues_at_or_below(*_tridiagonal_hamiltonian(spec, g), 0.0)
              for g in (grid, refined(grid))]
    if counts[0] != counts[1]:
        raise ConvergenceError(
            f"bound-state count not converged: {counts[0]} vs {counts[1]} under "
            "grid refinement"
        )
    return counts[0]
