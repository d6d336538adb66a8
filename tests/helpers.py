"""Independent oracles used to freeze expected values, and test aids.

The oracles are deliberately decoupled from the package's own evaluation
paths: Stirling series for Gamma, exact-rational series for the confluent
hypergeometric function, mpmath quadrature for moments, exact Gaussian
moments for the three-term perturbative state, and plain finite
differences for local energies. The printed perturbative variances, the
Gaussian-state entropy h, and the Gaussian-state, Bures-distance, Gamma,
overlap, grid-refinement and bound-state-count aids
serve tests only; no package path needs them.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from nonlinosc.errors import ConvergenceError, DomainError, SpecError
from nonlinosc.numerics import Grid, SampledWavefunction
from nonlinosc.perturbation import PerturbativeState
from nonlinosc.potentials import (
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    evaluate_potential,
)

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
    reference Gaussian, by mpmath quadrature (``mio_reference_overlap``)."""
    return float(mio_reference_overlap(a) ** 2)


def mio_reference_overlap(a: float):
    """<0_ref|0_V> of the MIO ground state and its reference Gaussian as an
    mpmath number, by quadrature at the working precision.

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
    return overlap / mp.sqrt(norms)


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

    # The reference is below e^{-72} past 12 widths; a deep well is narrow on
    # the same scale, so the quadrature breaks at every half width (whole
    # widths are 2e-10 off at D = 2e4).
    width = 1 / mp.sqrt(omega)
    overlap = mp.quad(product, [k * width / 2 for k in range(-24, 25)])
    return float(overlap**2 / norm_sq)


def mpt_closed_det(s: float) -> float:
    """det sigma of the MPT ground state sech^s(alpha x), which is free of
    alpha: with u = alpha x, (1 + tanh u)/2 is Beta(s, s) distributed, so
    var u = psi'(s)/2, and <tanh^2 u> = 1/(2s + 1)."""
    s = mp.mpf(s)
    return float(s**2 * mp.polygamma(1, s) / (2 * (2 * s + 1)))


def mio_closed_moments(a: float) -> tuple[float, float]:
    """(var_x, var_p) of the MIO ground state e^{-x^2/2} (1 + a x^2)^{-2/a};
    see ``_mio_moments_mp``."""
    return tuple(float(v) for v in _mio_moments_mp(a))


def _mio_moments_mp(a: float):
    """(var_x, var_p) of the MIO ground state as mpmath numbers good to 25 digits.

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
                return current
        previous = current
    raise ConvergenceError(f"MIO moments at a={a!r} did not settle up to 320 digits")


def fs_log_derivative(p: float, x: float) -> float:
    """psi'/psi = x - 2 (1+p) x Phi(a+1, 3/2; x^2) / Phi(a, 1/2; x^2), a = (1+p)/2,
    of the Fellows-Smith ground state e^{x^2/2} / Phi(a, 1/2; x^2), via mpmath."""
    a, z = (1 + mp.mpf(p)) / 2, mp.mpf(x) ** 2
    return float(x - 2 * (1 + mp.mpf(p)) * x * kummer_mp(a + 1, 1.5, z) / kummer_mp(a, 0.5, z))


def closed_excess(spec) -> float:
    """det sigma - 1/4 of a Morse, MPT, MIO or Fellows-Smith ground state,
    formed in mpmath so that the subtraction keeps its digits.

    Morse: det = N psi'(2N)/2 (``morse_closed_moments``); MPT: ``mpt_closed_det``;
    MIO: ``_mio_moments_mp``; Fellows-Smith: mpmath quadrature of
    e^{x^2} / Phi^2 with ``kummer_mp`` and ``fs_log_derivative``'s slope.
    """
    with mp.workdps(40):
        if isinstance(spec, Morse):
            n = mp.sqrt(2 * mp.mpf(spec.D)) / mp.mpf(spec.alpha) - mp.mpf(1) / 2
            det = n * mp.polygamma(1, 2 * n) / 2
        elif isinstance(spec, ModifiedPoschlTeller):
            s = mp.mpf(spec.s)
            det = s**2 * mp.polygamma(1, s) / (2 * (2 * s + 1))
        elif isinstance(spec, ModifiedIsotonic):
            var_x, var_p = _mio_moments_mp(spec.a)
            det = var_x * var_p
        else:
            a = (1 + mp.mpf(spec.p)) / 2

            def density(u):
                return mp.exp(u * u) / kummer_mp(a, 0.5, u * u) ** 2

            def slope(u):
                return u - 4 * a * u * kummer_mp(a + 1, 1.5, u * u) / kummer_mp(a, 0.5, u * u)

            breaks = [0, 1, 2, 4, 8, 16]
            norm = mp.quad(density, breaks)
            var_x = mp.quad(lambda u: u * u * density(u), breaks) / norm
            var_p = mp.quad(lambda u: slope(u) ** 2 * density(u), breaks) / norm
            det = var_x * var_p
        return float(det - mp.mpf(1) / 4)


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


def perturbed_variances(state: PerturbativeState) -> tuple[float, float]:
    """Position and momentum variances of the three-term state (omega = 1
    ladder units), as printed."""
    a1, a2 = state.alpha1, state.alpha2
    n = state.norm_n
    root2 = math.sqrt(2.0)
    var_q = (
        3.0 * a1**4
        - 6.0 * root2 * a1**2 * a2
        + (1.0 + a2**2) * (1.0 + 2.0 * root2 * a2 + 5.0 * a2**2)
    ) / (2.0 * n**2)
    var_p = 1.5 - (1.0 + root2 * a2 - a2**2) / n
    return var_q, var_p


def entropy_oracle(x: float) -> float:
    xm = mp.mpf(x)
    if xm == mp.mpf("0.5"):
        return 0.0
    return float((xm + 0.5) * mp.log(xm + 0.5) - (xm - 0.5) * mp.log(xm - 0.5))


HEISENBERG_SLACK = 1e-9  # noise allowed below the Heisenberg minimum 1/2 of entropy_h


def entropy_h(x: float) -> float:
    """Entropy of a Gaussian state with symplectic eigenvalue x:
    h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2).

    Inputs within HEISENBERG_SLACK below 1/2 are clamped to exactly 1/2
    (quadrature noise on a pure Gaussian can push sqrt(det sigma) marginally
    under the Heisenberg minimum); anything lower is a genuine domain violation.
    h(1/2) = 0 by the x -> 1/2 limit, and h is strictly increasing.
    """
    if not math.isfinite(x):
        raise DomainError(f"entropy_h requires finite x, got {x!r}")
    if x < 0.5 - HEISENBERG_SLACK:
        raise DomainError(
            f"entropy_h argument {x!r} is below 1/2: unphysical covariance determinant"
        )
    x = max(x, 0.5)
    minus = x - 0.5
    tail = 0.0 if minus == 0.0 else minus * math.log(minus)
    return (x + 0.5) * math.log(x + 0.5) - tail


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


def overlap(wf1: SampledWavefunction, wf2: SampledWavefunction) -> float:
    """<wf1|wf2> of two states sampled on one grid, by the plain node sum
    that normalizes them."""
    assert wf1.grid == wf2.grid, (wf1.grid, wf2.grid)
    return wf1.grid.spacing * float(np.dot(wf1.amplitude, wf2.amplitude))


def resampled_overlap(wf1: SampledWavefunction, wf2: SampledWavefunction) -> float:
    """Overlap of two normalized states on different grids: both are
    linearly resampled onto one uniform grid covering both domains at half
    the finer spacing."""
    g1, g2 = wf1.grid, wf2.grid
    lo = min(g1.x_min, g2.x_min)
    hi = max(g1.x_max, g2.x_max)
    n = int(math.ceil((hi - lo) / (0.5 * min(g1.spacing, g2.spacing)))) + 1
    common = np.linspace(lo, hi, n)
    a1 = np.interp(common, g1.points(), wf1.amplitude, left=0.0, right=0.0)
    a2 = np.interp(common, g2.points(), wf2.amplitude, left=0.0, right=0.0)
    return float(np.dot(a1, a2)) * (common[1] - common[0])


def report_extent(spec, tail: float = 1e-8) -> tuple[float, float]:
    """(x_min, x_max) of a report's grid: the state's seed for the tail and,
    with a reference of frequency w, each side moved toward the reference
    Gaussian's seed 1.1 sqrt(2 depth / w), clipped to the state's seed at
    twice the depth."""
    depth = math.log(1.0 / tail)
    sides = spec.seed_halfwidths(depth)
    omega = spec.omega_r()
    if omega is not None:
        reach = 1.1 * math.sqrt(2.0 * depth / omega)
        sides = [min(max(reach, near), far)
                 for near, far in zip(sides, spec.seed_halfwidths(2.0 * depth))]
    return -sides[0], sides[1]


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


def _three_point_hamiltonian(spec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of H = -d^2/dx^2 / 2 + V by 3-point
    differences on the interior nodes, with Dirichlet ends."""
    h = grid.spacing
    diag = 1.0 / h**2 + evaluate_potential(spec, grid.points()[1:-1])
    return diag, np.full(diag.size - 1, -0.5 / h**2)


def count_negative_eigenvalues(spec, grid: Grid) -> int:
    """Bound states of a potential vanishing at +infinity (Morse, MPT).

    LAPACK's count of the finite-difference Hamiltonian's eigenvalues at or
    below zero, re-checked on a spacing-halved grid; a mismatch means the
    discretization has not converged.
    """
    if not isinstance(spec, (Morse, ModifiedPoschlTeller)):
        raise SpecError(
            "negative-eigenvalue counting needs V -> 0 at +infinity; confining "
            "potentials have no natural zero threshold"
        )
    counts = [eigenvalues_at_or_below(*_three_point_hamiltonian(spec, g), 0.0)
              for g in (grid, refined(grid))]
    if counts[0] != counts[1]:
        raise ConvergenceError(
            f"bound-state count not converged: {counts[0]} vs {counts[1]} under "
            "grid refinement"
        )
    return counts[0]
