"""Quadrature helpers for expectations against Gaussian / lognormal laws.

* ``hermite_recurrence`` -- the one three-term recurrence of the package:
  orthonormal Hermite polynomials, and the Gaussian moments of them that
  the chaos payoff's closed form needs.
* ``gauss_normal_nodes`` -- Gauss-Hermite nodes and weights for
  ``E f(X)`` with ``X ~ N(0, 1)``, cached per order as read-only arrays.
* ``legendre_panels`` -- Gauss-Legendre nodes and weights mapped onto the
  panels between consecutive edges, the rule cached per order.
* ``lognormal_grid`` -- a graded Gauss-Legendre rule in the probability
  variable ``u = Phi((x - mean)/std)``, refined geometrically around an
  optional kink and toward both tails.  Slower but robust for integrands
  that mix smooth and sharply localized parts.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import ndtr, ndtri

from .errors import QuadratureError

__all__ = [
    "hermite_recurrence",
    "gauss_normal_nodes",
    "legendre_panels",
    "lognormal_grid",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: lognormal_grid's Gauss-Legendre order per panel, the ratio by which
#: its panels widen away from the kink, and its depth 2^-40 into each tail
_GRID_ORDER = 8
_KINK_RATIO = 2.0
_TAIL_DEPTH = 40


def hermite_recurrence(x, n: int, c: float = -1.0):
    """Yield h_0..h_{n-1} of h_{k+1} = (x h_k + c sqrt(k) h_{k-1}) / sqrt(k+1).

    h_0 = 1, and ``x`` is a float or an array.  c = -1 gives the
    orthonormal Hermite polynomials H_k(x) = He_k(x) / sqrt(k!); c =
    v^2 - 1 gives E[H_k(Y)] for Y ~ N(x, v^2).
    """
    h_prev, h, r = 0.0, np.ones_like(x) if np.ndim(x) else 1.0, 0.0
    for k in range(n):
        yield h
        r_next = math.sqrt(k + 1)
        h_prev, h, r = h, (x * h + c * r * h_prev) / r_next, r_next


@functools.lru_cache(maxsize=None)
def gauss_normal_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating exactly against the N(0,1) density.

    Nodes are eigenvalues of the Jacobi matrix of the probabilists'
    Hermite polynomials; weights come from the Christoffel function of
    the orthonormal family, which stays bounded at any order (the
    classical derivative formula overflows past a few hundred nodes).
    The arrays are shared by every caller, so they are read-only.
    """
    if order < 1:
        raise QuadratureError("quadrature order must be >= 1")
    x = eigvalsh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1.0, order)))
    # w_i = 1 / sum_k h_k(x_i)^2 over orthonormal h_0..h_{order-1};
    # nodes whose sum overflows have weights below double underflow
    with np.errstate(over="ignore", invalid="ignore"):
        ssq = sum(h * h for h in hermite_recurrence(x, order))
        w = np.where(np.isfinite(ssq), 1.0 / ssq, 0.0)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of ``order`` on [-1, 1], read-only."""
    gx, gw = leggauss(order)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def legendre_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel between consecutive
    ``edges``, one row per panel: ``(x, w)`` of shape (panels, order).

    Panel [a, b] gets nodes (a + b)/2 + (b - a)/2 gx and weights
    (b - a)/2 gw, so ``(w * f(x)).sum()`` integrates f over the edges'
    span, exactly for polynomials of degree up to 2 order - 1.
    """
    gx, gw = _legendre(order)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * gx, 0.5 * (b - a) * gw


def lognormal_grid(mean: float, std: float,
                   kink=None) -> tuple[np.ndarray, np.ndarray]:
    """Graded nodes/weights for ``E f(X)``, ``X ~ N(mean, std^2)``.

    Returns ``(x, w)`` with ``sum(w) ~= 1``; evaluate ``w @ f(x)``.
    Panels in u-space shrink geometrically toward u in {0, 1} and, when
    ``kink = (center, width)`` is given on the axis of X, toward the
    image of the center, down to the width.
    """
    if std <= 0.0:
        raise QuadratureError("lognormal_grid needs std > 0")
    lo, hi = 2.0 ** -53, 1.0 - 2.0 ** -53
    edges = {lo, hi}
    for j in range(1, _TAIL_DEPTH):
        edges.add(2.0 ** -j)
        edges.add(1.0 - 2.0 ** -j)
    if kink is not None:
        center, width = kink
        z = (center - mean) / std
        uc = float(ndtr(z))
        with np.errstate(over="ignore"):  # z * z may overflow: h is 0
            h = max(float(np.exp(-0.5 * z * z) / _SQRT_2PI * width / std), 2.0 ** -52)
        if lo < uc < hi:
            edges.add(uc)
            while uc - h > lo or uc + h < hi:
                edges.update(e for e in (uc - h, uc + h) if lo < e < hi)
                h *= _KINK_RATIO
    eg = np.array(sorted(edges))
    keep = np.concatenate([[True], np.diff(eg) > 1e-17])
    u, w = legendre_panels(eg[keep], _GRID_ORDER)
    return mean + std * ndtri(u.ravel()), w.ravel()
