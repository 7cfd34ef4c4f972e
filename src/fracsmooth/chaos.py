"""Hermite chaos expansions of functions of a standard Gaussian.

Coefficients are taken against the orthonormal-in-N(0,1) Hermite basis
``H_k = He_k / sqrt(k!)``, evaluated by ``quadrature.hermite_recurrence``
wherever they are needed.  Besides numerical projection, analytic
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

import functools
import math
from itertools import chain

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import ConfigError, QuadratureError
from .quadrature import _SQRT_2PI, gauss_normal_nodes, hermite_recurrence

__all__ = [
    "ChaosExpansion",
    "hermite_series",
    "project",
    "indicator_expansion",
    "exp_call_expansion",
    "d12_norm",
    "besov_criterion",
    "decay_from_chaos",
]

_D12_TAIL_WARN = 1e-6
_BESOV_DEPTH = 20
_BESOV_TAIL_TOL = 1e-3


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def hermite_series(alpha: np.ndarray, x, c: float = -1.0):
    """Evaluate sum_k alpha_k h_k(x) over the h_k of
    ``hermite_recurrence(x, K + 1, c)``, by default H_k(x).

    A 2-D ``alpha`` is a stack of coefficient rows: the result holds one
    sum per row along a leading axis, all from one recurrence pass.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim == 2:
        # one column per order, shaped to broadcast against x
        alpha = alpha.T.reshape(alpha.shape[::-1] + (1,) * x.ndim)
    return sum(a * h for a, h in zip(alpha, hermite_recurrence(x, len(alpha), c)))


class ChaosExpansion:
    """Truncated coefficient vector (alpha_0..alpha_K) plus tail L2 mass.

    ``kernel(t)`` returns the Mehler pair (B(t), D(t)) of the whole
    series.  Analytic constructors pass their closed form and, in place
    of ``alpha`` and ``tail_l2``, ``build``: a function of no arguments
    that returns the pair, called on the first read of either, so the
    kernel's readers never build coefficients.  Any other expansion gets
    ``_series_kernel``, which sums the coefficients.
    """

    def __init__(self, alpha: np.ndarray | None = None, tail_l2: float = 0.0,
                 kernel=None, *, build=None):
        self._build = build or (lambda: (alpha, tail_l2))
        self.kernel = kernel or _series_kernel(self.alpha, self.tail_l2)

    @functools.cached_property
    def _coeffs(self) -> tuple[np.ndarray, float]:
        return self._build()

    @property
    def alpha(self) -> np.ndarray:
        return self._coeffs[0]

    @property
    def tail_l2(self) -> float:
        return self._coeffs[1]


def _series_kernel(alpha: np.ndarray, tail_l2: float):
    """(B(t), D(t)) summed from the coefficients, in ascending magnitude.

    B adds a bound on its tail beyond K (each alpha_k^2 <= tail mass) and
    is NaN where that bound exceeds 1e-3 of the sum; D adds the whole
    tail mass.
    """
    K = alpha.size - 1
    k = np.arange(1, alpha.size, dtype=float)
    a2 = alpha[1:] ** 2
    tail = tail_l2 ** 2

    def kernel(t):
        if t == 0.0:
            return (a2[0] if a2.size else 0.0), float(a2.sum()) + tail
        lt = math.log(t)
        b = float((k * np.exp((k - 1) * lt) * a2)[::-1].sum())
        # sum_{k>K} k t^(k-1) = t^K ((K+1) - K t) / (1-t)^2
        b_tail = tail * t ** K * ((K + 1) - K * t) / (1.0 - t) ** 2
        if b_tail > _BESOV_TAIL_TOL * max(b, 1e-300):
            b = math.nan
        d = float((a2 * (-np.expm1(k * lt)))[::-1].sum())
        return b + b_tail, d + tail

    return kernel


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
    # the recurrence overflows at outer nodes whose weights underflow to 0
    keep = w > 0.0
    x, w, gx = x[keep], w[keep], gx[keep]
    wg = w * gx
    alpha = np.fromiter((wg @ h for h in hermite_recurrence(x, K + 1)), float, K + 1)
    norm_sq = float(w @ (gx * gx))
    resid = norm_sq - float(alpha @ alpha)
    if not math.isfinite(resid):
        raise QuadratureError("Parseval residual is not finite")
    if resid < -1e-8 * max(norm_sq, 1.0):
        raise QuadratureError("Parseval residual is negative: quadrature underflow")
    return ChaosExpansion(alpha=alpha, tail_l2=math.sqrt(max(resid, 0.0)))


def indicator_expansion(c: float, K: int) -> ChaosExpansion:
    """Exact chaos coefficients of the step function 1_{[c, oo)}.

    alpha_0 = P(X >= c) and alpha_k = phi(c) H_{k-1}(c) / sqrt(k); the
    squared coefficients decay on average like k^{-3/2}.
    """
    if not math.isfinite(c):
        raise ConfigError("indicator center c must be finite")
    if K < 1:
        raise ConfigError("K must be >= 1")
    m2 = float(ndtr(-c))

    def coefficients():
        # H_0..H_{K-1} at c behind a slot for alpha_0, scaled by phi(c) / sqrt(k)
        alpha = np.fromiter(chain((0.0,), hermite_recurrence(c, K)), float, K + 1)
        alpha[1:] *= _phi(c)
        alpha[1:] /= np.sqrt(np.arange(1.0, K + 1.0))
        alpha[0] = ndtr(-c)
        return alpha

    def kernel(t):
        # B is the bivariate normal density at (c, c) with correlation t
        b = math.exp(-c * c / (1.0 + t)) / (2.0 * math.pi * math.sqrt(1.0 - t * t))
        return b, m2 - _bvn_cdf(-c, -c, t)

    return _analytic(coefficients, m2, kernel)


def exp_call_expansion(a: float, b: float, strike: float, K: int) -> ChaosExpansion:
    """Exact chaos coefficients of g(x) = (a exp(b x) - strike)_+ .

    Uses the closed forms for half-line Gaussian moments of shifted
    Hermite polynomials; coefficients decay on average like k^{-5/2}.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 < strike < math.inf):
        raise ConfigError("need finite a > 0, b > 0, strike > 0")
    if K < 1:
        raise ConfigError("K must be >= 1")
    x0 = math.log(strike / a) / b
    d = x0 - b
    ind = indicator_expansion(x0, K)

    def coefficients():
        # I_k = int_{x0}^oo H_k phi ; E_k = int_{x0}^oo e^{bx} H_k phi
        i_k = ind.alpha
        e_k = np.empty(K + 1)
        g_val = float(ndtr(-d))
        phi_d = _phi(d)
        e_k[0] = g_val
        for k, hk1 in enumerate(hermite_recurrence(d + b, K), 1):
            # G_{k} = (b G_{k-1} + H_{k-1}(d+b) phi(d)) / sqrt(k)
            g_val = (b * g_val + hk1 * phi_d) / math.sqrt(k)
            e_k[k] = g_val
        e_k *= math.exp(0.5 * b * b)
        return a * e_k - strike * i_k

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

    return _analytic(coefficients, m2, kernel)


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


def _analytic(coefficients, m2: float, kernel) -> ChaosExpansion:
    """Expansion with its Mehler kernel whose ``coefficients()`` are built on
    first read, with the exact tail mass E[g^2] - |alpha|^2; coefficients
    that are not all finite raise ``QuadratureError``, with no warning of
    the overflow that made them."""
    def build():
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = coefficients()
        if not np.isfinite(alpha).all():
            raise QuadratureError("chaos coefficients are not finite")
        return alpha, math.sqrt(max(m2 - float(alpha @ alpha), 0.0))

    return ChaosExpansion(kernel=kernel, build=build)


def d12_norm(e: ChaosExpansion) -> tuple[float, bool]:
    """Malliavin-Sobolev norm sqrt(sum (n+1) alpha_n^2); flags a fat tail."""
    n = np.arange(e.alpha.size)
    val = math.sqrt(float(((n + 1) * e.alpha ** 2).sum()))
    return val, e.tail_l2 > _D12_TAIL_WARN


def besov_criterion(e: ChaosExpansion, theta: float, t_grid=None):
    """Curve Phi(t) = (1-t)^(1-theta) sum k t^(k-1) alpha_k^2 and verdict.

    Returns ``(t_grid, phi, verdict)`` with verdict "bounded" when the
    running maximum stabilizes over the last decade of 1-t; the default
    grid is 1 - 2^-j, j = 0..20.  The series is the Mehler kernel's B(t);
    ``QuadratureError`` is raised when it is not finite at some t, which
    for a coefficient-series kernel means its tail bound exceeds 1e-3 of
    the sum there.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigError("theta must lie in (0, 1)")
    if t_grid is None:
        t_grid = 1.0 - 2.0 ** -np.arange(0, _BESOV_DEPTH + 1, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= 1.0):
        raise ConfigError("t_grid must lie in [0, 1)")

    series = np.array([e.kernel(float(t))[0] for t in t_grid])
    if not np.all(np.isfinite(series)):
        raise QuadratureError(
            "chaos tail dominates the Besov series; supply an analytic "
            "expansion or a higher order")
    phi = (1.0 - t_grid) ** (1.0 - theta) * series
    running = np.maximum.accumulate(phi)
    # compare the running max over the last decade of 1-t with before
    n_last = max(len(phi) // 5, 2)
    grew = running[-1] > running[-n_last - 1] * 1.05
    verdict = "unbounded" if grew else "bounded"
    return t_grid, phi, verdict


def decay_from_chaos(e: ChaosExpansion, t: float) -> float:
    """Surrogate || M_1 - M_t ||_{L2} = sqrt(sum alpha_k^2 (1 - t^k)),
    the Mehler kernel's D(t)."""
    if not (0.0 <= t <= 1.0):
        raise ConfigError("t must lie in [0, 1]")
    if t == 1.0:
        return 0.0
    return math.sqrt(max(e.kernel(t)[1], 0.0))
