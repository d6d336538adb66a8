"""Special functions: Kummer's confluent hypergeometric on a grid and the
non-Gaussianity of a pure state from its covariance determinant's excess
over 1/4. log Gamma is ``math.lgamma``.

All functions are pure and stateless. Kummer Phi enters the catalog only
through the Fellows-Smith family, as Phi((1+p)/2, 1/2; x^2) sampled on a
whole grid, where the series value can exceed the float range.
``kummer_phi_log_grid`` is that one log-space evaluator: it sums the
positive series terms in linear space, 16 terms per BLAS matrix product
against a table of powers of z, and rescales each element into a
log scale before the sum can overflow. The same pass sums the terms
weighted by their index, which gives rho = z d(log Phi)/dz: the state's
log-derivative and, through the contiguous relation of DLMF 13.3(ii), its
potential come from that one pass.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

_SERIES_CAP = 100_000
_TAIL_RATIO = math.exp(-40.0)  # series stop: last term below e^-40 of the sum
_LOG_RESCALE_AT = math.log(1e150)  # growth bound that triggers a rescale in the grid kernel
_BLOCK = 16  # series terms summed by one matrix product
_CHUNK = 8 * _BLOCK  # series coefficients computed at once


def kummer_phi_log_grid(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(a, b; z) and rho = z d(log Phi)/dz = sum m t_m / sum t_m,
    with t_m the series terms, for an array of arguments z >= 0 (a, b > 0),
    each in the shape of z.

    Sums the positive series terms in linear space, _BLOCK terms per matrix
    product. With s the power of two above max z, so that z/s is exact, the
    table of powers (z/s)^1 ... (z/s)^_BLOCK is built once. The term ratios
    c_n = (a+n)/((b+n)(n+1)) are computed as arrays, _CHUNK at a time. A
    block's coefficients c_n s, c_n c_{n+1} s^2, ... are scalars relative to
    its first term: each chunk forms them for all its blocks, over a row of
    them times their term indices, so one (2 x k) product with the table gives
    a block's sum and index-weighted sum for every element; the table's last
    row times the last coefficient gives the next term. A scalar bound on the
    growth since the last rescale, the product of max(1, c_n z_max), keeps the
    arrays inside the float range: a block ends at the term where it passes
    1e150, and every element then divides its term and total by its total and
    adds log(total) to its own log scale. The sum stops when a block's last
    term is past the ratio peak and below e^-40 of the sum everywhere. An input
    whose largest z cannot pass the ratio peak within _SERIES_CAP terms raises
    ConvergenceError before any array work.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"kummer_phi_log_grid requires a, b > 0, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return np.zeros_like(z), np.zeros_like(z)
    if np.any(z < 0.0) or not np.all(np.isfinite(z)):
        raise DomainError("kummer_phi_log_grid requires finite z >= 0")
    flat = z.ravel()
    i_max = int(np.argmax(flat))
    z_max = float(flat[i_max])
    cap = _SERIES_CAP
    if (a + cap) * z_max >= (b + cap) * (cap + 1):
        raise ConvergenceError(
            f"kummer_phi_log_grid cannot pass the ratio peak within {cap} terms "
            f"for a={a}, b={b}, z={z_max}"
        )
    exponent = math.frexp(z_max)[1]
    s = math.ldexp(1.0, exponent)
    powers = np.empty((_BLOCK, flat.size))
    powers[0] = np.ldexp(flat, -exponent)  # z / s, exact
    m = 1
    while m < _BLOCK:  # rows m.. are rows 0.. times (z/s)^m
        w = min(m, _BLOCK - m)
        np.multiply(powers[:w], powers[m - 1], out=powers[m : m + w])
        m += w
    term = np.ones_like(flat)
    total = np.ones_like(flat)
    weighted = np.zeros_like(flat)  # sum of m t_m
    log_scale = np.zeros_like(flat)
    log_growth = 0.0
    n = 0
    while n < cap:
        # Coefficients of up to _CHUNK terms at once; the chunk ends at the
        # term where the growth since the last rescale passes the bound.
        ns = np.arange(n, min(n + _CHUNK, cap), dtype=float)
        c = (a + ns) / ((b + ns) * (ns + 1.0))
        log_growths = log_growth + np.cumsum(np.log(np.maximum(c * z_max, 1.0)))
        length = min(int(np.searchsorted(log_growths, _LOG_RESCALE_AT, side="right")) + 1, c.size)
        log_growth = float(log_growths[length - 1])
        end = n + length
        steps = np.ones(-(-length // _BLOCK) * _BLOCK)
        steps[:length] = c[:length] * s
        coef = np.cumprod(steps.reshape(-1, 1, _BLOCK), axis=2)  # restarts at every block
        weights = np.arange(n + 1.0, n + 1.0 + steps.size).reshape(coef.shape)
        for rows in np.concatenate((coef, coef * weights), axis=1):
            k = min(_BLOCK, end - n)  # the block's terms are t_{n+1} ... t_{n+k}
            sums = rows[:, :k] @ powers[:k]
            sums *= term
            total += sums[0]
            weighted += sums[1]
            term *= powers[k - 1]
            term *= rows[0, k - 1]
            n += k
            # term/total grows with z at every n, so the largest z settles
            # last; testing it first skips the full-array test on most blocks.
            if (
                (a + n) * z_max < (b + n) * (n + 1)
                and term[i_max] < _TAIL_RATIO * total[i_max]
                and np.all(term < _TAIL_RATIO * total)
            ):
                log_phi = np.log(total) + log_scale
                return log_phi.reshape(z.shape), (weighted / total).reshape(z.shape)
        if log_growth > _LOG_RESCALE_AT:
            term /= total
            weighted /= total
            log_scale += np.log(total)
            total.fill(1.0)
            log_growth = 0.0
    raise ConvergenceError(f"kummer_phi_log_grid did not converge for a={a}, b={b}")


def eta_ng_of_excess(excess: float) -> float:
    """h(sqrt(det sigma)) of a pure state from its excess m = det sigma - 1/4,
    where h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2) is the entropy
    of a Gaussian state with symplectic eigenvalue x.

    With u = sqrt(det sigma) - 1/2 = m / (1/2 + sqrt(1/4 + m)), h(1/2 + u) =
    log1p(u) + u log((1 + u)/u): two positive terms, with no cancellation
    as m -> 0. A negative or non-finite excess is a DomainError.
    """
    if not (math.isfinite(excess) and excess >= 0.0):
        raise DomainError(f"det sigma - 1/4 = {excess!r}: a determinant below 1/4 is unphysical")
    u = excess / (0.5 + math.sqrt(0.25 + excess))
    if u == 0.0:
        return 0.0
    return math.log1p(u) + u * (math.log1p(1.0 / u) if u >= 1.0 else math.log1p(u) - math.log(u))
