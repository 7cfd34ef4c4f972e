"""Quadrature helpers for expectations against Gaussian / lognormal laws.

Two schemes are provided:

* ``gauss_normal_nodes`` -- Gauss-Hermite nodes and weights for
  ``E f(X)`` with ``X ~ N(0, 1)``.
* ``lognormal_grid`` -- a graded Gauss-Legendre rule in the probability
  variable ``u = Phi((x - mean)/std)``, refined geometrically around kink
  locations and toward both tails.  Slower but robust for integrands that
  mix smooth and sharply localized parts.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import ndtr, ndtri

from .errors import QuadratureError

__all__ = [
    "gauss_normal_nodes",
    "lognormal_grid",
    "Feature",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: lognormal_grid's Gauss-Legendre rule per panel, and the ratio by which
#: its panels widen away from a feature
_GRID_GX, _GRID_GW = leggauss(8)
_FEATURE_RATIO = 2.0

_herme_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_normal_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating exactly against the N(0,1) density.

    Nodes are eigenvalues of the Jacobi matrix of the probabilists'
    Hermite polynomials; weights come from the Christoffel function of
    the orthonormal family, which stays bounded at any order (the
    classical derivative formula overflows past a few hundred nodes).
    """
    if order not in _herme_cache:
        if order < 1:
            raise QuadratureError("quadrature order must be >= 1")
        if order == 1:
            _herme_cache[order] = (np.zeros(1), np.ones(1))
            return _herme_cache[order]
        x = eigvalsh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1.0, order)))
        # w_i = 1 / sum_k h_k(x_i)^2 over orthonormal h_0..h_{order-1};
        # nodes whose sum overflows have weights below double underflow
        with np.errstate(over="ignore", invalid="ignore"):
            h_prev = np.ones_like(x)
            h = x.copy()
            ssq = h_prev * h_prev + h * h
            for k in range(1, order - 1):
                h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
                ssq += h * h
            w = np.where(np.isfinite(ssq), 1.0 / ssq, 0.0)
        _herme_cache[order] = (x, w / w.sum())
    return _herme_cache[order]


class Feature:
    """A localized structure of an integrand: Gaussian-ish peak or kink.

    ``center`` and ``width`` live on the axis of the integration variable.
    """

    __slots__ = ("center", "width")

    def __init__(self, center: float, width: float):
        self.center = float(center)
        self.width = float(width)


def lognormal_grid(mean: float, std: float,
                   features: tuple[Feature, ...] = (),
                   tail_depth: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """Graded nodes/weights for ``E f(X)``, ``X ~ N(mean, std^2)``.

    Returns ``(x, w)`` with ``sum(w) ~= 1``; evaluate ``w @ f(x)``.
    Panels in u-space shrink geometrically toward u in {0, 1} and toward
    the image of every feature center, down to the feature width.
    """
    if std <= 0.0:
        raise QuadratureError("lognormal_grid needs std > 0")
    lo, hi = 2.0 ** -53, 1.0 - 2.0 ** -53
    edges = {lo, hi}
    for j in range(1, tail_depth):
        edges.add(2.0 ** -j)
        edges.add(1.0 - 2.0 ** -j)
    for ft in features:
        z = (ft.center - mean) / std
        uc = float(ndtr(z))
        if uc <= lo or uc >= hi:
            continue
        uw = max(float(np.exp(-0.5 * z * z) / _SQRT_2PI * ft.width / std), 2.0 ** -52)
        edges.add(uc)
        h = uw
        while True:
            if uc - h > lo:
                edges.add(uc - h)
            if uc + h < hi:
                edges.add(uc + h)
            if uc - h <= lo and uc + h >= hi:
                break
            h *= _FEATURE_RATIO
            if h > 2.0:
                break
    eg = np.array(sorted(edges))
    keep = np.concatenate([[True], np.diff(eg) > 1e-17])
    eg = eg[keep]
    a, b = eg[:-1], eg[1:]
    um = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GRID_GX[None, :]
    wm = 0.5 * (b - a)[:, None] * _GRID_GW[None, :]
    u = um.ravel()
    w = wm.ravel()
    x = mean + std * ndtri(u)
    return x, w
