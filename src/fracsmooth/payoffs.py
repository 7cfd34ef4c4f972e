"""European payoffs and their prices/Greeks under zero-rate GBM.

Call, put, binary and affine payoffs have Black-Scholes closed forms.
Power-Holder payoffs ``(s - K)_+**theta`` and chaos payoffs (a Hermite
series in the normalized terminal log-price of the unit GBM) are priced
by quadrature against the lognormal transition kernel.

One valuation engine, ``_valuate``, returns any of price, E[h^2 | S_t],
delta, gamma and the conditional variance at one time for an array of
spots; ``price``, ``delta``, ``gamma``, ``second_moment`` and
``conditional_variance`` are thin callers.  The power-Holder payoff
vanishes below its kink, so near the kink it is integrated above it
only: a Gauss-Jacobi rule with the payoff's root y^theta as its weight
on the first kernel sd, then unit Gauss-Legendre panels, one kernel
matrix per rule and weight for every quantity.  Far above the kink the
Greeks differentiate the payoff under a Gauss-Hermite rule instead of
the kernel.  Every quantity is checked against its own tolerance by
comparing two orders of its rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, roots_jacobi

from .chaos import ChaosExpansion, hermite_series
from .errors import ConfigError, QuadratureError
from .model import MarketModel
from .quadrature import gauss_normal_nodes, hermite_recurrence, lognormal_grid

__all__ = [
    "Payoff",
    "payoff_eval",
    "price",
    "delta",
    "gamma",
    "second_moment",
    "conditional_variance",
]

_TAU_FLOOR = 1e-12
#: smallest volatility pricing accepts: far below it sigma^2 tau
#: underflows and the closed-form Greeks overflow or turn NaN
_SIGMA_DEGENERATE = 1e-100
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_CLOSED_FORM = frozenset({"call", "put", "binary", "affine"})
_KINDS = frozenset({"call", "put", "binary", "power_holder", "affine", "chaos"})
#: default (rtol, atol) of each quadrature-computed quantity
_TOLS = {"price": (1e-6, 1e-10), "m2": (1e-6, 1e-10),
         "delta": (1e-5, 1e-9), "gamma": (1e-4, 1e-8)}


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff h(s); build instances through the classmethods."""

    kind: str
    strike: float | None = None
    holder_theta: float | None = None
    c0: float | None = None
    c1: float | None = None
    expansion: ChaosExpansion | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("call", "put", "binary", "power_holder"):
            if self.strike is None or not (self.strike > 0.0):
                raise ConfigError("strike must be > 0")
        if self.kind == "power_holder":
            if self.holder_theta is None or not (0.0 < self.holder_theta < 1.0):
                raise ConfigError("holder exponent must lie in (0, 1)")
        if self.kind == "affine" and (self.c0 is None or self.c1 is None):
            raise ConfigError("affine payoff needs c0 and c1")
        if self.kind == "chaos" and self.expansion is None:
            raise ConfigError("chaos payoff needs an expansion")

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind="call", strike=strike)

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(kind="put", strike=strike)

    @classmethod
    def binary(cls, strike: float) -> "Payoff":
        return cls(kind="binary", strike=strike)

    @classmethod
    def power_holder(cls, strike: float, holder_theta: float) -> "Payoff":
        return cls(kind="power_holder", strike=strike, holder_theta=holder_theta)

    @classmethod
    def affine(cls, c0: float, c1: float) -> "Payoff":
        return cls(kind="affine", c0=c0, c1=c1)

    @classmethod
    def chaos(cls, expansion: ChaosExpansion) -> "Payoff":
        return cls(kind="chaos", expansion=expansion)

    @property
    def closed_form(self) -> bool:
        return self.kind in _CLOSED_FORM


def payoff_eval(p: Payoff, s):
    """h(s) per kind; the binary uses the closed-right convention h(K)=1."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ConfigError("payoff argument s must be > 0")
    if p.kind == "call":
        out = np.maximum(s_arr - p.strike, 0.0)
    elif p.kind == "put":
        out = np.maximum(p.strike - s_arr, 0.0)
    elif p.kind == "binary":
        out = np.where(s_arr >= p.strike, 1.0, 0.0)
    elif p.kind == "power_holder":
        out = np.maximum(s_arr - p.strike, 0.0) ** p.holder_theta
    elif p.kind == "affine":
        out = p.c0 + p.c1 * s_arr
    else:
        # chaos: series in the normalized terminal log-price of the unit
        # GBM (s0 = sigma = T = 1, zero drift), x = ln s + 1/2
        out = hermite_series(p.expansion.alpha, np.log(s_arr) + 0.5)
    return out if np.ndim(s) else float(out)


def _tau(model: MarketModel, t: float, greek: bool) -> float:
    if not 0.0 <= t <= model.T:
        raise ConfigError("valuation time t must be finite and lie in [0, T]")
    if greek and t >= model.T:
        raise ConfigError("Greeks are not defined at t = T")
    return max(model.T - t, _TAU_FLOOR)


def _d12(model: MarketModel, tau: float, s, strike: float):
    v = model.sigma * math.sqrt(tau)
    d1 = (np.log(s / strike) + 0.5 * v * v) / v
    return v, d1, d1 - v


def _phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / _SQRT_2PI


def _valuate(p: Payoff, model: MarketModel, t: float, s,
             want) -> dict[str, np.ndarray]:
    """The valuation engine: the quantities named in ``want`` at (t, s).

    Quantities are ``price``, ``m2`` (E[h(S_T)^2 | S_t = s]), ``delta``,
    ``gamma`` and ``var`` (the conditional variance); each comes back as
    an array shaped like ``np.atleast_1d(s)``.  Every quadrature result is
    checked against its own ``(rtol, atol)`` from ``_TOLS``.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s <= 0.0):
        raise ConfigError("price argument s must be > 0")
    if model.sigma < _SIGMA_DEGENERATE:
        raise ConfigError(f"pricing needs sigma >= {_SIGMA_DEGENERATE:g}, "
                          f"got {model.sigma:g}")
    want = set(want)
    tau = _tau(model, t, greek=bool(want & {"delta", "gamma"}))
    exact_var = "var" in want and p.kind == "binary" and t < model.T
    need = want - {"var"}
    if "var" in want and not exact_var:
        need |= {"m2", "price"}
    tols = {q: _TOLS[q] for q in need}
    if t >= model.T and not p.closed_form:
        h = payoff_eval(p, s)
        out = {"price": h, "m2": h ** 2}
    elif p.closed_form:
        out = {q: _closed_form(p, model, tau, s, q) for q in need}
    elif p.kind == "power_holder":
        out = _kinked(p, model, tau, s, tols)
    else:
        out = _chaos(p, model, tau, s, tols)
    if exact_var:
        _, _, d2 = _d12(model, tau, s, p.strike)
        out["var"] = ndtr(d2) * ndtr(-d2)
    elif "var" in want:
        out["var"] = np.maximum(out["m2"] - out["price"] * out["price"], 0.0)
    return out


def _one(p, model, t, s, q):
    out = _valuate(p, model, t, s, (q,))[q]
    return out if np.ndim(s) else float(out[0])


def _converged(q: str, a, b, tol, what: str) -> None:
    """Raise unless both rules are finite and agree within ``tol``."""
    rtol, atol = tol
    ok = (np.isfinite(a) & np.isfinite(b)
          & (np.abs(a - b) <= atol + rtol * np.maximum(np.abs(b), 1.0)))
    if not np.all(ok):
        raise QuadratureError(f"{what} did not converge for the {q}")


#: y = ln(S_T/K)/v range of the kink rule: 12 kernel sds past the last
#: near spot d2 = 8, and _Y_PAST sds past each integrand's peak.  Above
#: d2 = 8 the pathwise rule takes over; below d2 = -40 every kernel
#: weight is under e^-800 and the values are zeros
_Y_MAX = 20
_Y_PAST = 8.0
_D2_NEAR = 8.0
_D2_UNDERFLOW = 40.0
#: the two kink rules: Gauss-Jacobi order on [0, 1] and Gauss-Legendre
#: order per unit panel on [1, end]
_KINK_RULES = ((16, 8), (24, 12))
#: the two Gauss-Hermite orders of the pathwise far-from-kink rule
_FAR_ORDERS = (24, 32)


@functools.lru_cache(maxsize=64)
def _jacobi01(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for int_0^1 y^beta f(y) dy / sqrt(2 pi)."""
    x, w = roots_jacobi(n, 0.0, beta)
    y, w = 0.5 * (1.0 + x), w * 2.0 ** (-1.0 - beta) / _SQRT_2PI
    y.flags.writeable = w.flags.writeable = False
    return y, w


@functools.lru_cache(maxsize=64)
def _unit_panels(n: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for int_1^end f(y) dy / sqrt(2 pi), unit panels."""
    gx, gw = leggauss(n)
    left = np.arange(1.0, end)
    y = (left[:, None] + 0.5 * (1.0 + gx)).ravel()
    w = np.tile(0.5 * gw / _SQRT_2PI, left.size)
    y.flags.writeable = w.flags.writeable = False
    return y, w


def _kernel_moments(y, f, d2, order: int) -> list[np.ndarray]:
    """sum_j f_j phi(z_j) z_j^k with z_j = y_j - d2, for k = 0..order.

    ``f`` holds one column per integrand (without the 1/sqrt(2 pi) of
    phi); one kernel matrix serves every column and power.
    """
    zz = y - d2[:, None]
    kern = zz * zz
    kern *= -0.5
    # an exp that underflows is 15-100x slower than one that does not,
    # and a weight of at least e^-700 ~ 1e-304 moves no sum
    np.maximum(kern, -700.0, out=kern)
    np.exp(kern, out=kern)
    out = [kern @ f]
    for _ in range(order):
        kern *= zz
        out.append(kern @ f)
    return out


def _kink_rule(p: Payoff, v: float, s, tols, orders) -> dict:
    """Every quantity in ``tols`` by one kink rule.

    In y = ln(S_T/K)/v the payoff vanishes for y < 0 and a spot s sees
    the kernel phi(y - d2).  On [0, 1], h(K e^{vy})^j = y^{j theta} g(y)^j
    with the smooth g(y) = (K expm1(vy)/y)^theta, so a Gauss-Jacobi rule
    of weight y^{j theta} takes the root singularity exactly (j = 1 for
    price and Greeks, 2 for E[h^2]); unit Gauss-Legendre panels cover
    [1, end], with end past the peak d2 + j theta v of each integrand.
    With M_k = int h(K e^{vy}) (y - d2)^k phi(y - d2) dy, delta is
    M_1 / (s v) and gamma ((M_2 - M_0)/v - M_1) / (s^2 v).
    """
    n_jac, n_leg = orders
    K, th = p.strike, p.holder_theta
    d2 = (np.log(s / K) - 0.5 * v * v) / v
    order = 2 if "gamma" in tols else 1 if "delta" in tols else 0
    powers = [1] if order or "price" in tols else []
    if "m2" in tols:
        powers.append(2)
    end = max(_Y_MAX, math.ceil(d2.max() + max(powers) * th * v + _Y_PAST))
    yl, wl = _unit_panels(n_leg, end)
    hl = (K * np.expm1(v * yl)) ** th
    legs = _kernel_moments(yl, np.stack([hl ** j * wl for j in powers], axis=1),
                           d2, order)
    mom = {}
    for c, j in enumerate(powers):
        yj, wj = _jacobi01(n_jac, j * th)
        gj = (K * np.expm1(v * yj) / yj) ** (j * th)
        jac = _kernel_moments(yj, gj * wj, d2, order if j == 1 else 0)
        mom[j] = [a + b[:, c] for a, b in zip(jac, legs)]
    vals = {}
    for q in tols:
        if q == "m2":
            vals[q] = mom[2][0]
        elif q == "price":
            vals[q] = mom[1][0]
        elif q == "delta":
            vals[q] = mom[1][1] / (s * v)
        else:
            m0, m1, m2 = mom[1]
            vals[q] = ((m2 - m0) / v - m1) / (s * s * v)
    return vals


def _pathwise_rule(p: Payoff, v: float, s, tols, order: int) -> dict:
    """Every quantity in ``tols`` by one Gauss-Hermite rule, with the
    Greeks from payoff derivatives: delta = E[h'(S_T) S_T] / s and
    gamma = E[h''(S_T) S_T^2] / s^2, so nothing is divided by v."""
    K, th = p.strike, p.holder_theta
    z, w = gauss_normal_nodes(order)
    st = s[:, None] * np.exp(v * z - 0.5 * v * v)
    u = np.maximum(st - K, 0.0)
    hv = u ** th
    # S_T / (S_T - K), zero below the kink where h and its derivatives are
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(u > 0.0, st / u, 0.0)
    vals = {}
    for q in tols:
        if q == "price":
            vals[q] = hv @ w
        elif q == "m2":
            vals[q] = (hv * hv) @ w
        elif q == "delta":
            vals[q] = th * ((hv * r) @ w) / s
        else:
            vals[q] = th * (th - 1.0) * ((hv * r * r) @ w) / (s * s)
    return vals


def _kinked(p: Payoff, model: MarketModel, tau: float, s: np.ndarray,
            tols: dict) -> dict[str, np.ndarray]:
    """Every quantity in ``tols`` for the power-Holder payoff.

    With d2 = (E[ln S_T] - ln K)/v, the kernel sds by which the kink lies
    below the mean, spots with d2 <= 8 take ``_kink_rule`` and spots far
    above the kink (d2 > 8, where it carries less than Phi(-8) of the
    mass) ``_pathwise_rule``.  Each rule runs at two orders, which must
    agree within each quantity's tolerance.  Spots with d2 < -40 get
    zeros: every kernel weight is under e^-800 there.
    """
    v = model.sigma * math.sqrt(tau)
    d2 = (np.log(s / p.strike) - 0.5 * v * v) / v
    out = {q: np.zeros_like(s) for q in tols}
    far = d2 > _D2_NEAR
    for spots, rule, orders, what in (
            (~far & (d2 >= -_D2_UNDERFLOW), _kink_rule, _KINK_RULES,
             "kink quadrature"),
            (far, _pathwise_rule, _FAR_ORDERS,
             "pathwise Gauss-Hermite quadrature")):
        if not np.any(spots):
            continue
        lo, hi = (rule(p, v, s[spots], tols, n) for n in orders)
        for q, tol in tols.items():
            _converged(q, lo[q], hi[q], tol, f"{what} under refinement")
            out[q][spots] = hi[q]
    return out


def _chaos_closed(p, model, tau, s):
    """Closed-form chaos price/Greeks via Q_k = E[H_k(N(m, v^2))].

    Q satisfies Q_{k+1} = (m Q_k + (v^2-1) sqrt(k) Q_{k-1}) / sqrt(k+1),
    stable and geometrically convergent for v <= 1; derivatives in m
    follow from d/dm Q_k = sqrt(k) Q_{k-1}.
    """
    alpha = p.expansion.alpha
    n = alpha.size
    v = model.sigma * math.sqrt(tau)
    m = np.log(s) + 0.5 - 0.5 * v * v
    f = f1 = f2 = 0.0
    for k, q in enumerate(hermite_recurrence(m, n, v * v - 1.0)):
        f = f + alpha[k] * q
        if k + 1 < n:
            f1 = f1 + alpha[k + 1] * math.sqrt(k + 1) * q
        if k + 2 < n:
            f2 = f2 + alpha[k + 2] * math.sqrt((k + 2) * (k + 1)) * q
    return {"price": f, "delta": f1 / s, "gamma": (f2 - f1) / (s * s)}


#: Gauss-Hermite order of the chaos-payoff quadrature (doubled to check it)
_GH_NODES = 201


def _quad_values(model: MarketModel, tau: float, s: np.ndarray, h, order: int):
    """h on Gauss-Hermite kernel nodes: (values of shape (ns, order), z, w, v)."""
    z, w = gauss_normal_nodes(order)
    v = model.sigma * math.sqrt(tau)
    st = s[:, None] * np.exp(v * z[None, :] - 0.5 * v * v)
    return np.asarray(h(st)), z, w, v


def _chaos(p, model, tau, s, tols):
    """Chaos-payoff quantities: the closed form while sigma^2 tau <= 1,
    else Gauss-Hermite checked under node doubling.  E[h^2] is not
    checked under node doubling, but raises when its sum overflows."""
    h = lambda st: hermite_series(p.expansion.alpha, np.log(st) + 0.5)
    out = {}
    if "m2" in tols:
        hv, z, w, v = _quad_values(model, tau, s, lambda st: h(st) ** 2,
                                   _GH_NODES)
        out["m2"] = hv @ w
        if not np.all(np.isfinite(out["m2"])):
            raise QuadratureError("Gauss-Hermite E[h^2] of the chaos series "
                                  "is not finite")
    rest = {q: tol for q, tol in tols.items() if q != "m2"}
    if not rest:
        return out
    if model.sigma ** 2 * tau <= 1.0:
        closed = _chaos_closed(p, model, tau, s)
        return {**out, **{q: closed[q] for q in rest}}
    raw = []
    for n in (_GH_NODES, 2 * _GH_NODES + 1):
        hv, z, w, v = _quad_values(model, tau, s, h, n)
        # kernel weights before the 1/(s^k v) of each Greek
        kern = {"price": w, "delta": w * z, "gamma": w * ((z * z - 1.0) / v - z)}
        raw.append({q: hv @ kern[q] for q in rest})
    scale = {"delta": s * v, "gamma": s * s * v}
    for q, tol in rest.items():
        _converged(q, raw[0][q], raw[1][q], tol,
                   "lognormal-kernel quadrature under node doubling")
        out[q] = raw[1][q] / scale[q] if q in scale else raw[1][q]
    return out


def _closed_form(p, model, tau, s, q):
    if p.kind == "affine":
        if q == "price":
            return p.c0 + p.c1 * s
        if q == "delta":
            return np.full_like(s, p.c1)
        if q == "m2":
            ev2 = math.exp((model.sigma ** 2) * tau)
            return p.c0 ** 2 + 2.0 * p.c0 * p.c1 * s + p.c1 ** 2 * s * s * ev2
        return np.zeros_like(s)
    v, d1, d2 = _d12(model, tau, s, p.strike)
    K = p.strike
    if p.kind == "call":
        if q == "price":
            return s * ndtr(d1) - K * ndtr(d2)
        if q == "delta":
            return ndtr(d1)
        if q == "m2":
            m2 = (s * s * math.exp(v * v) * ndtr(d1 + v)
                  - 2.0 * K * s * ndtr(d1) + K * K * ndtr(d2))
            return np.maximum(m2, 0.0)
        return _phi(d1) / (s * v)
    if p.kind == "put":
        if q == "price":
            return K * ndtr(-d2) - s * ndtr(-d1)
        if q == "delta":
            return ndtr(d1) - 1.0
        if q == "m2":
            m2 = (K * K * ndtr(-d2) - 2.0 * K * s * ndtr(-d1)
                  + s * s * math.exp(v * v) * ndtr(-(d1 + v)))
            return np.maximum(m2, 0.0)
        return _phi(d1) / (s * v)
    # binary: h^2 = h
    if q in ("price", "m2"):
        return ndtr(d2)
    if q == "delta":
        return _phi(d2) / (s * v)
    return -_phi(d2) * d1 / (s * s * v * v)


def price(p: Payoff, model: MarketModel, t: float, s):
    """H(t, s) = E[h(S_T) | S_t = s] under the martingale measure."""
    return _one(p, model, t, s, "price")


def delta(p: Payoff, model: MarketModel, t: float, s):
    """dH/ds, for t strictly before maturity."""
    return _one(p, model, t, s, "delta")


def gamma(p: Payoff, model: MarketModel, t: float, s):
    """d^2 H / ds^2, for t strictly before maturity."""
    return _one(p, model, t, s, "gamma")


def second_moment(p: Payoff, model: MarketModel, t: float, s):
    """E[h(S_T)^2 | S_t = s]; closed form where the payoff has one."""
    return _one(p, model, t, s, "m2")


def conditional_variance(p: Payoff, model: MarketModel, t: float, s):
    """Var(h(S_T) | S_t = s); exact p(1-p) form for the binary."""
    return _one(p, model, t, s, "var")


def _outer_grid(p: Payoff, model: MarketModel, t: float, tail_depth: int):
    """``lognormal_grid`` of ln S_t under the pricing measure, for t > 0.

    For a payoff with a kink (call, put, binary, power-Holder) the grid
    is graded at ln K down to the width sigma sqrt(T - t) over which the
    delta and gamma localize as t approaches maturity.
    """
    sigma = model.sigma
    kink = None if p.kind in ("affine", "chaos") else (
        math.log(p.strike), sigma * math.sqrt(_tau(model, t, greek=False)))
    return lognormal_grid(math.log(model.s0) - 0.5 * sigma * sigma * t,
                          sigma * math.sqrt(t), kink, tail_depth)
