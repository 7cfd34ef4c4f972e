"""Hermite chaos expansions of functions of a standard Gaussian.

Coefficients are taken against the orthonormal-in-N(0,1) Hermite basis
``H_k = He_k / sqrt(k!)``.  Besides numerical projection, analytic
constructors are provided for step functions and exp-call functions.
These also carry a closed-form Mehler kernel: with X_t = t X +
sqrt(1-t^2) Y, the Mehler formula sum_k t^k alpha_k^2 = E[g(X) g(X_t)]
turns the decay series D(t) = sum alpha_k^2 (1 - t^k) = E[g^2] -
E[g(X) g(X_t)] and the Besov series B(t) = sum k t^(k-1) alpha_k^2 =
E[g'(X) g'(X_t)] into bivariate normal CDFs and densities (Nualart, The
Malliavin Calculus and Related Topics, section 1.4), so neither
criterion depends on the truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import ConfigError, QuadratureError
from .quadrature import gauss_normal_nodes

__all__ = [
    "ChaosExpansion",
    "hermite",
    "hermite_series",
    "project",
    "indicator_expansion",
    "exp_call_expansion",
    "d12_norm",
    "besov_criterion",
    "decay_from_chaos",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: coefficients per block of the indicator's scaling pass (512 kB)
_SCALE_BLOCK = 1 << 16


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def hermite(n: int, x):
    """Orthonormal Hermite polynomial H_n(x) by three-term recurrence."""
    if n < 0:
        raise ConfigError("Hermite order must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for k in range(1, n):
        h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
    return h if h.ndim else float(h)


def hermite_series(alpha: np.ndarray, x):
    """Evaluate sum_k alpha_k H_k(x) with a running recurrence."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    h_prev = np.ones_like(x)
    acc = alpha[0] * h_prev
    if alpha.size == 1:
        return acc
    h = x.copy()
    acc = acc + alpha[1] * h
    for k in range(1, alpha.size - 1):
        h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
        acc = acc + alpha[k + 1] * h
    return acc


@dataclass(frozen=True)
class ChaosExpansion:
    """Truncated coefficient vector (alpha_0..alpha_K) plus tail L2 mass.

    ``kernel(t)`` returns the Mehler pair (B(t), D(t)) of the whole
    series; analytic constructors set it, numerical projection does not.
    """

    alpha: np.ndarray
    tail_l2: float = 0.0
    kernel: object = field(default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return self.alpha.size - 1

    def l2_norm_sq(self) -> float:
        return float(np.dot(self.alpha, self.alpha)) + self.tail_l2 ** 2

    def variance(self) -> float:
        return float(np.dot(self.alpha[1:], self.alpha[1:])) + self.tail_l2 ** 2


def project(g, K: int, quad_order: int | None = None) -> ChaosExpansion:
    """Gauss-Hermite projection of ``g`` onto chaos orders 0..K."""
    if K < 0:
        raise ConfigError("truncation order K must be >= 0")
    if quad_order is None:
        quad_order = max(1024, 2 * K + 64)
    if quad_order <= 2 * K:
        raise ConfigError("quad_order must exceed 2K")
    x, w = gauss_normal_nodes(quad_order)
    gx = np.asarray(g(x), dtype=float)
    wg = w * gx
    alpha = np.empty(K + 1)
    h_prev = np.ones_like(x)
    alpha[0] = wg @ h_prev
    if K >= 1:
        h = x.copy()
        alpha[1] = wg @ h
        for k in range(1, K):
            h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
            alpha[k + 1] = wg @ h
    norm_sq = float(w @ (gx * gx))
    resid = norm_sq - float(alpha @ alpha)
    if resid < -1e-8 * max(norm_sq, 1.0):
        raise QuadratureError("Parseval residual is negative: quadrature underflow")
    return ChaosExpansion(alpha=alpha, tail_l2=math.sqrt(max(resid, 0.0)))


def indicator_expansion(c: float, K: int) -> ChaosExpansion:
    """Exact chaos coefficients of the step function 1_{[c, oo)}.

    alpha_0 = P(X >= c) and alpha_k = phi(c) H_{k-1}(c) / sqrt(k); the
    squared coefficients decay on average like k^{-3/2}.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    alpha = np.empty(K + 1)
    alpha[0] = ndtr(-c)
    if c == 0.0:
        # closed form: H_{2j}(0)^2 = (2j-1)!!/(2j)!!, odd orders vanish
        j = np.arange(0, (K - 1) // 2 + 1)
        p = np.cumprod(np.concatenate([[1.0], (2 * j[1:] - 1) / (2 * j[1:])]))
        alpha[1:] = 0.0
        k_odd = 2 * j + 1
        alpha[k_odd] = _phi(0.0) * np.where(j % 2 == 0, 1.0, -1.0) * np.sqrt(p / k_odd)
    else:
        # H_0..H_{K-1} at c by the recurrence into alpha[1:], then one
        # scaling pass by phi(c) / sqrt(k), in blocks so that no
        # temporary grows with K (K reaches 2^21)
        hs = alpha[1:]
        hs[0] = 1.0
        h_prev, h_k, r_k = 0.0, 1.0, 0.0
        for k in range(K - 1):
            r_next = math.sqrt(k + 1)
            h_prev, h_k, r_k = h_k, (c * h_k - r_k * h_prev) / r_next, r_next
            hs[k + 1] = h_k
        phi_c = _phi(c)
        for i in range(0, K, _SCALE_BLOCK):
            blk = hs[i:i + _SCALE_BLOCK]
            blk *= phi_c
            blk /= np.sqrt(np.arange(i + 1.0, i + 1.0 + blk.size))
    m2 = float(ndtr(-c))

    def kernel(t):
        # B is the bivariate normal density at (c, c) with correlation t
        b = math.exp(-c * c / (1.0 + t)) / (2.0 * math.pi * math.sqrt(1.0 - t * t))
        return b, m2 - _bvn_cdf(-c, -c, t)

    return _analytic(alpha, m2, kernel)


def exp_call_expansion(a: float, b: float, strike: float, K: int) -> ChaosExpansion:
    """Exact chaos coefficients of g(x) = (a exp(b x) - strike)_+ .

    Uses the closed forms for half-line Gaussian moments of shifted
    Hermite polynomials; coefficients decay on average like k^{-5/2}.
    """
    if a <= 0 or b <= 0 or strike <= 0:
        raise ConfigError("need a > 0, b > 0, strike > 0")
    if K < 1:
        raise ConfigError("K must be >= 1")
    x0 = math.log(strike / a) / b
    d = x0 - b
    # I_k = int_{x0}^oo H_k phi ; E_k = int_{x0}^oo e^{bx} H_k phi
    ind = indicator_expansion(x0, K)
    i_k = ind.alpha
    e_k = np.empty(K + 1)
    g_val = float(ndtr(-d))
    phi_d = _phi(d)
    h_prev, h = 1.0, d + b
    e_k[0] = g_val
    for k in range(1, K + 1):
        # G_{k} = (b G_{k-1} + H_{k-1}(d+b) phi(d)) / sqrt(k)
        hk1 = h_prev if k == 1 else h
        g_val = (b * g_val + hk1 * phi_d) / math.sqrt(k)
        e_k[k] = g_val
        if k >= 2:
            h, h_prev = ((d + b) * h - math.sqrt(k - 1) * h_prev) / math.sqrt(k), h
    e_k *= math.exp(0.5 * b * b)
    alpha = a * e_k - strike * i_k
    # E[g^2] and E[g(X) g(X_t)]: each term of (a e^{bx} - strike)^2 on
    # {x >= x0} is a Gaussian tilt of the indicator, whose shifted
    # thresholds go into the bivariate normal CDF
    ea = a * strike * math.exp(0.5 * b * b)
    m2 = (a * a * math.exp(2.0 * b * b) * float(ndtr(2.0 * b - x0))
          - 2.0 * ea * float(ndtr(b - x0)) + strike * strike * float(ndtr(-x0)))

    def kernel(t):
        h = b * (1.0 + t) - x0
        tilt = a * a * math.exp(b * b * (1.0 + t)) * _bvn_cdf(h, h, t)
        ggt = (tilt - 2.0 * ea * _bvn_cdf(b - x0, b * t - x0, t)
               + strike * strike * _bvn_cdf(-x0, -x0, t))
        return b * b * tilt, m2 - ggt

    return _analytic(alpha, m2, kernel)


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    """Phi_2(h, k; rho) = P(X <= h, Y <= k), standard normals, corr rho.

    Owen's T form for |rho| < 1.  Equal thresholds use
    Phi(h) - 2 T(h, sqrt((1-rho)/(1+rho))), the only form that stays
    exact at h = k = 0, where the general one is 0/0.
    """
    if h == k:
        return float(ndtr(h)) - 2.0 * float(
            owens_t(h, math.sqrt((1.0 - rho) / (1.0 + rho))))
    s = math.sqrt(1.0 - rho * rho)

    def owen(x, y):
        # T(x, (y - rho x) / (x s)); at x = 0 the slope is +-inf
        if x == 0.0:
            return math.copysign(0.25, y)
        return float(owens_t(x, (y - rho * x) / (x * s)))

    beta = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    return 0.5 * float(ndtr(h) + ndtr(k)) - owen(h, k) - owen(k, h) - beta


def _analytic(alpha: np.ndarray, m2: float, kernel) -> ChaosExpansion:
    """Expansion with its Mehler kernel and the exact tail mass E[g^2] - |alpha|^2."""
    resid = m2 - float(alpha @ alpha)
    return ChaosExpansion(alpha=alpha, tail_l2=math.sqrt(max(resid, 0.0)),
                          kernel=kernel)


def d12_norm(e: ChaosExpansion, tail_warn: float = 1e-6) -> tuple[float, bool]:
    """Malliavin-Sobolev norm sqrt(sum (n+1) alpha_n^2); flags a fat tail."""
    n = np.arange(e.alpha.size)
    val = math.sqrt(float(((n + 1) * e.alpha ** 2).sum()))
    return val, e.tail_l2 > tail_warn


def _tail_besov(e: ChaosExpansion, t: float) -> float:
    """Bound on sum_{k>K} k t^(k-1) alpha_k^2: each alpha_k^2 <= tail mass."""
    K = e.order
    # sum_{k>K} k t^(k-1) = t^K ((K+1) - K t) / (1-t)^2
    return e.tail_l2 ** 2 * t ** K * ((K + 1) - K * t) / (1.0 - t) ** 2


def besov_criterion(e: ChaosExpansion, theta: float, t_grid=None,
                    depth: int = 20, tail_tol: float = 1e-3):
    """Curve Phi(t) = (1-t)^(1-theta) sum k t^(k-1) alpha_k^2 and verdict.

    Returns ``(t_grid, phi, verdict)`` with verdict "bounded" when the
    running maximum stabilizes over the last decade of 1-t.  The series
    is the Mehler kernel's B(t) when the expansion has one; otherwise it
    is summed from the coefficients, and ``QuadratureError`` is raised
    when the tail bound exceeds ``tail_tol`` of the sum at the last t.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigError("theta must lie in (0, 1)")
    if t_grid is None:
        t_grid = 1.0 - 2.0 ** -np.arange(0, depth + 1, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= 1.0):
        raise ConfigError("t_grid must lie in [0, 1)")

    if e.kernel is not None:
        series = np.array([e.kernel(float(t))[0] for t in t_grid])
    else:
        k = np.arange(1, e.alpha.size, dtype=float)
        a2 = e.alpha[1:] ** 2
        lead = np.empty_like(t_grid)
        tails = np.empty_like(t_grid)
        for i, t in enumerate(t_grid):
            if t == 0.0:
                lead[i] = a2[0] if a2.size else 0.0
                tails[i] = 0.0
                continue
            terms = k * np.exp((k - 1) * math.log(t)) * a2
            lead[i] = float(terms[::-1].sum())   # ascending magnitude
            tails[i] = _tail_besov(e, float(t))
        if tails[-1] > tail_tol * max(lead[-1], 1e-300):
            raise QuadratureError(
                "chaos tail dominates the Besov series; supply an analytic "
                "expansion or a higher order")
        series = lead + tails

    phi = (1.0 - t_grid) ** (1.0 - theta) * series
    running = np.maximum.accumulate(phi)
    # compare the running max over the last decade of 1-t with before
    n_last = max(len(phi) // 5, 2)
    grew = running[-1] > running[-n_last - 1] * 1.05
    verdict = "unbounded" if grew else "bounded"
    return t_grid, phi, verdict


def decay_from_chaos(e: ChaosExpansion, t: float) -> float:
    """Surrogate || M_1 - M_t ||_{L2} = sqrt(sum alpha_k^2 (1 - t^k)).

    The Mehler kernel's D(t) when the expansion has one; otherwise the
    truncated sum plus the whole tail mass.
    """
    if not (0.0 <= t <= 1.0):
        raise ConfigError("t must lie in [0, 1]")
    if t == 1.0:
        return 0.0
    if e.kernel is not None:
        return math.sqrt(max(e.kernel(t)[1], 0.0))
    k = np.arange(1, e.alpha.size, dtype=float)
    a2 = e.alpha[1:] ** 2
    if t == 0.0:
        lead = float(a2.sum())
    else:
        lead = float((a2 * (-np.expm1(k * math.log(t))))[::-1].sum())
    return math.sqrt(lead + e.tail_l2 ** 2)
