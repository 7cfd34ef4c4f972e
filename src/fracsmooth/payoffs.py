"""European payoffs and their prices/Greeks under zero-rate GBM.

Call, put, binary and affine payoffs have Black-Scholes closed forms.
Power-Holder payoffs ``(s - K)_+**theta`` and chaos payoffs (a Hermite
series in the normalized terminal log-price of the unit GBM) are priced
by quadrature against the lognormal transition kernel; their Greeks
differentiate the kernel, not the payoff.

One valuation engine, ``_valuate``, returns any of price, E[h^2 | S_t],
delta, gamma and the conditional variance at one time for an array of
spots; ``price``, ``delta``, ``gamma``, ``second_moment`` and
``conditional_variance`` are thin callers.  For the power-Holder payoff
it builds one Gaussian kernel matrix per panel rule (Gauss-Legendre
orders 8 and 12 on panels graded toward the kink), reads every requested
quantity off it, and checks each against its own tolerance by comparing
the two rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from .chaos import ChaosExpansion, hermite_series
from .errors import ConfigError, QuadratureError
from .model import MarketModel
from .quadrature import Feature, gauss_normal_nodes

__all__ = [
    "Payoff",
    "payoff_eval",
    "price",
    "delta",
    "gamma",
    "second_moment",
    "conditional_variance",
    "kink_feature",
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
    rtol, atol = tol
    if np.any(np.abs(a - b) > atol + rtol * np.maximum(np.abs(b), 1.0)):
        raise QuadratureError(f"{what} did not converge for the {q}")


def _kernel_weights(kern, zz, v: float, q: str):
    """Kernel weights of price/m2, delta and gamma (before the 1/s^k v)."""
    if q == "delta":
        return kern * zz
    if q == "gamma":
        return kern * ((zz * zz - 1.0) / v - zz)
    return kern


_kink_panel_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: spots per block while building kernel weights (~270 kB temporaries)
_KERNEL_ROWS = 16
#: panel half-width in y: 12 kernel sds beyond the last near spot |d2| = 8
_Y_MAX = 20.0
_PANEL_DEPTH = 48
_GH_NODES = 201


def _kink_panels(n_gl: int):
    """Graded Gauss-Legendre nodes on [-_Y_MAX, _Y_MAX], refined toward 0.

    Panels shrink geometrically to width 2^-_PANEL_DEPTH at the origin,
    so a root- or step-type singularity there is integrated to near
    machine precision with a fixed low panel order.
    """
    if n_gl not in _kink_panel_cache:
        edges = [0.0]
        h = 2.0 ** -_PANEL_DEPTH
        while edges[-1] < _Y_MAX:
            edges.append(min(edges[-1] + h, _Y_MAX))
            h = min(2.0 * h, 0.5)
        eg = np.array(edges)
        eg = np.concatenate([-eg[::-1], eg[1:]])
        gx, gw = leggauss(n_gl)
        a, b = eg[:-1], eg[1:]
        y = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx[None, :]).ravel()
        w = (0.5 * (b - a)[:, None] * gw[None, :]).ravel()
        _kink_panel_cache[n_gl] = (y, w)
    return _kink_panel_cache[n_gl]


def _kinked(p: Payoff, model: MarketModel, tau: float, s: np.ndarray,
            tols: dict) -> dict[str, np.ndarray]:
    """Kernel quadrature of every quantity in ``tols`` for a kinked payoff.

    Works in y = ln(S_T/K)/v, where the kink sits at y = 0 for every
    spot.  Each panel rule (n_gl 8 and 12) builds one Gaussian kernel
    matrix and reads all quantities off it; the two rules must agree
    within each quantity's tolerance.  Spots whose kink lies far outside
    the kernel's support use one plain Gauss-Hermite rule instead; its
    Greeks divide the sum by s^k v, so a small sigma^2 tau amplifies its
    rounding, and it raises when the first-order rounding bound
    eps * sum |w k h| / (s^k v) exceeds the quantity's tolerance.
    """
    v = model.sigma * math.sqrt(tau)
    K = p.strike
    d2 = (np.log(s / K) - 0.5 * v * v) / v
    near = np.abs(d2) <= 8.0
    h = _payoff_fn(p)
    scale = {"delta": s * v, "gamma": s * s * v}
    out = {q: np.empty_like(s) for q in tols}

    if not np.all(near):
        far = ~near
        z, w = gauss_normal_nodes(_GH_NODES)
        hv = np.asarray(h(s[far, None] * np.exp(v * z[None, :] - 0.5 * v * v)))
        for q, tol in tols.items():
            g = hv ** 2 if q == "m2" else hv
            terms = g * _kernel_weights(w, z[None, :], v, q)
            val = terms.sum(axis=1)
            rounding = np.finfo(float).eps * np.abs(terms).sum(axis=1)
            if q in scale:
                val /= scale[q][far]
                rounding /= scale[q][far]
            _converged(q, val, val + rounding, tol,
                       "far-from-kink Gauss-Hermite sum, within its rounding,")
            out[q][far] = val
    if np.any(near):
        dn = d2[near]
        kind = {q: "price" if q == "m2" else q for q in tols}
        rules = []
        for n_gl in (8, 12):
            y, wq = _kink_panels(n_gl)
            hy = np.asarray(h(K * np.exp(v * y)))
            # weights are built in blocks of spots, so the elementwise
            # temporaries stay in cache; each product below still runs on
            # the whole matrix, so no result depends on the block size
            wts = {k: np.empty((dn.size, y.size)) for k in kind.values()}
            for a in range(0, dn.size, _KERNEL_ROWS):
                zz = y[None, :] - dn[a:a + _KERNEL_ROWS, None]
                kern = np.exp(-0.5 * zz * zz) / _SQRT_2PI
                for k, wk in wts.items():
                    wk[a:a + _KERNEL_ROWS] = _kernel_weights(kern, zz, v, k)
            vals = {}
            for q in tols:
                r = wts[kind[q]] @ (wq * (hy ** 2 if q == "m2" else hy))
                vals[q] = r / scale[q][near] if q in scale else r
            rules.append(vals)
        for q, tol in tols.items():
            _converged(q, rules[0][q], rules[1][q], tol,
                       "graded kernel quadrature under refinement")
            out[q][near] = rules[1][q]
    return out


def _payoff_fn(p: Payoff):
    if p.kind == "power_holder":
        K, th = p.strike, p.holder_theta
        return lambda st: np.maximum(st - K, 0.0) ** th
    alpha = p.expansion.alpha
    return lambda st: hermite_series(alpha, np.log(st) + 0.5)


def _chaos_closed(p, model, tau, s):
    """Closed-form chaos price/Greeks via Q_k = E[H_k(N(m, v^2))].

    Q satisfies Q_{k+1} = (m Q_k + (v^2-1) sqrt(k) Q_{k-1}) / sqrt(k+1),
    stable and geometrically convergent for v <= 1; derivatives in m
    follow from d/dm Q_k = sqrt(k) Q_{k-1}.
    """
    alpha = p.expansion.alpha
    v = model.sigma * math.sqrt(tau)
    m = np.log(s) + 0.5 - 0.5 * v * v
    c = v * v - 1.0
    q_pp = None
    q_prev = np.ones_like(m)
    q = m.copy()
    f = alpha[0] * q_prev
    f1 = np.zeros_like(m)
    f2 = np.zeros_like(m)
    if alpha.size > 1:
        f = f + alpha[1] * q
        f1 = f1 + alpha[1] * q_prev
    for k in range(1, alpha.size - 1):
        q_pp, q_prev, q = (q_prev, q,
                           (m * q + c * math.sqrt(k) * q_prev) / math.sqrt(k + 1))
        a = alpha[k + 1]
        f = f + a * q
        f1 = f1 + a * math.sqrt(k + 1) * q_prev
        f2 = f2 + a * math.sqrt((k + 1) * k) * q_pp
    return {"price": f, "delta": f1 / s, "gamma": (f2 - f1) / (s * s)}


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
    h = _payoff_fn(p)
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
        raw.append({q: hv @ (w * _kernel_weights(np.ones_like(z), z, v, q))
                    for q in rest})
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


def kink_feature(p: Payoff, model: MarketModel, t: float) -> tuple[Feature, ...]:
    """Location/width hint of the payoff's kink in log-price at time t.

    Used by downstream quadratures to grade nodes around the region where
    delta or gamma localizes as t approaches maturity; empty for a
    payoff without a kink.
    """
    if p.kind in ("affine", "chaos"):
        return ()
    tau = max(model.T - t, _TAU_FLOOR)
    width = model.sigma * math.sqrt(tau)
    return (Feature(center=math.log(p.strike), width=width),)
