"""European payoffs and their prices/Greeks under zero-rate GBM.

Call, put, binary and affine payoffs have Black-Scholes closed forms.
Power-Holder payoffs ``(s - K)_+**theta`` and chaos payoffs (a Hermite
series in the normalized terminal log-price of the unit GBM) are priced
by quadrature against the lognormal transition kernel.

One valuation engine, ``_valuate``, returns any of price, E[h^2 | S_t],
delta, gamma and the conditional variance at one time for an array of
spots; ``price``, ``delta``, ``gamma``, ``second_moment`` and
``conditional_variance`` are thin callers.  ``_resolve`` checks sigma
and t once and derives the kernel sd v = sigma sqrt(T - t) and its
variance sigma^2 (T - t), which the rules take in place of the model.  The power-Holder payoff vanishes
below its kink, so near the kink it is integrated above it only: a
Gauss-Jacobi rule with the payoff's root y^theta as its weight on the
first kernel sd, then unit Gauss-Legendre panels, one kernel matrix per
rule and weight for every quantity.  Far above the kink the Greeks
differentiate the payoff under a Gauss-Hermite rule instead of the
kernel.  Every quadrature rule runs at two orders through one check,
``_checked``, which holds each quantity to its own tolerance.  The chaos
payoff's closed form sums its price and Greeks in one
``chaos.hermite_series`` pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, roots_jacobi

from .chaos import ChaosExpansion, hermite_series
from .errors import ConfigError, DegeneratePathsError, QuadratureError
from .model import MarketModel
from .quadrature import (_SQRT_2PI, gauss_normal_nodes, legendre_panels,
                         lognormal_grid)

__all__ = [
    "Payoff",
    "payoff_eval",
    "price",
    "delta",
    "gamma",
    "second_moment",
    "conditional_variance",
]

#: smallest volatility pricing accepts: far below it sigma^2 tau
#: underflows and the closed-form Greeks overflow or turn NaN
_SIGMA_DEGENERATE = 1e-100
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
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
            if self.strike is None or not (0.0 < self.strike < math.inf):
                raise ConfigError("strike must be finite and > 0")
        if self.kind == "power_holder":
            if self.holder_theta is None or not (0.0 < self.holder_theta < 1.0):
                raise ConfigError("holder exponent must lie in (0, 1)")
        if self.kind == "affine" and not (
                self.c0 is not None and self.c1 is not None
                and math.isfinite(self.c0) and math.isfinite(self.c1)):
            raise ConfigError("affine payoff needs finite c0 and c1")
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
    if not np.all(s_arr > 0.0):
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


def _resolve(model: MarketModel, t: float, greek: bool) -> tuple[float, float]:
    """(v, var) at valuation time t: the sd v = sigma sqrt(tau) of ln S_T
    given S_t and its variance var = sigma^2 tau, for tau = T - t exactly.

    The one place where sigma and t are checked and v and var are
    derived.  Every engine rule takes v; the affine E[h^2] and the chaos
    route also read var.  Greeks (``greek``) need t < T, and a t < T with
    var below the normal floats raises ``DegeneratePathsError``.
    """
    if model.sigma < _SIGMA_DEGENERATE:
        raise ConfigError(f"pricing needs sigma >= {_SIGMA_DEGENERATE:g}, "
                          f"got {model.sigma:g}")
    if not 0.0 <= t <= model.T:
        raise ConfigError("valuation time t must be finite and lie in [0, T]")
    if greek and t >= model.T:
        raise ConfigError("Greeks are not defined at t = T")
    var = model.sigma ** 2 * (model.T - t)
    if t < model.T and var < np.finfo(float).tiny:
        raise DegeneratePathsError(f"the ln-price variance {var:g} underflows")
    return model.sigma * math.sqrt(model.T - t), var


def _d12(v: float, s, strike: float):
    # s / strike may overflow or underflow: d1 is then +-inf, its limit
    with np.errstate(all="ignore"):
        d1 = (np.log(s / strike) + 0.5 * v * v) / v
    return d1, d1 - v


def _phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / _SQRT_2PI


def _exp_var(var: float) -> float:
    """exp(var) for a variance var of ln S; refused where it overflows."""
    if not var <= _LOG_FLOAT_MAX:
        raise ConfigError(f"exp of the ln-price variance {var:g} overflows")
    return math.exp(var)


def _log_delta(p: Payoff, x, v: float, out=None):
    """The delta of the closed-form payoff p at ln-spots ``x``.

    v is the kernel sd sigma sqrt(T - t).  The hedging loop passes x = ln S
    and a buffer ``out`` (never ``x``); ``_closed_form`` passes ln s.  The
    put's is the call's Phi(d1) less 1, the affine's c1, and in x the
    binary's phi(d2) / (s v) is exp(-d2^2/2 - x) / (sqrt(2 pi) v).
    """
    if p.kind == "affine":
        return np.multiply(np.ones_like(x), p.c1, out=out)
    out = np.subtract(x, math.log(p.strike), out=out)
    if p.kind != "binary":
        out += 0.5 * v * v
        out /= v
        ndtr(out, out=out)
        if p.kind == "put":
            out -= 1.0
        return out
    out -= 0.5 * v * v
    out *= out
    out *= -0.5 / (v * v)
    out -= x
    np.exp(out, out=out)
    out *= 1.0 / (_SQRT_2PI * v)
    return out


def _valuate(p: Payoff, model: MarketModel, t: float, s,
             want) -> dict[str, np.ndarray]:
    """The valuation engine: the quantities named in ``want`` at (t, s).

    Quantities are ``price``, ``m2`` (E[h(S_T)^2 | S_t = s]), ``delta``,
    ``gamma`` and ``var`` (the conditional variance); each comes back as
    an array shaped like ``np.atleast_1d(s)``.  Every quadrature result is
    checked against its own ``(rtol, atol)`` from ``_TOLS``.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(s > 0.0):
        raise ConfigError("price argument s must be > 0")
    want = set(want)
    v, var = _resolve(model, t, greek=bool(want & {"delta", "gamma"}))
    exact_var = "var" in want and p.kind == "binary" and t < model.T
    need = want - {"var"}
    if "var" in want and not exact_var:
        need |= {"m2", "price"}
    tols = {q: _TOLS[q] for q in need}
    if t >= model.T:
        h = payoff_eval(p, s)
        out = {"price": h, "m2": h ** 2}
    elif p.closed_form:
        out = {q: _closed_form(p, v, var, s, q) for q in need}
    elif p.kind == "power_holder":
        out = _kinked(p, v, s, tols)
    else:
        out = _chaos(p, v, var, s, tols)
    if exact_var:
        _, d2 = _d12(v, s, p.strike)
        out["var"] = ndtr(d2) * ndtr(-d2)
    elif "var" in want:
        out["var"] = np.maximum(out["m2"] - out["price"] * out["price"], 0.0)
    return out


def _one(p, model, t, s, q):
    out = _valuate(p, model, t, s, (q,))[q]
    return out if np.ndim(s) else float(out[0])


def _checked(rule, orders, tols, what: str) -> dict[str, np.ndarray]:
    """The higher order's values of ``rule(n)``, run at both ``orders``.

    Each quantity q in ``tols`` must come out finite at both orders, and
    the two must agree within its ``(rtol, atol)``; otherwise
    ``QuadratureError`` is raised.  Floating-point warnings (overflow,
    division by zero, 0/0) are silenced: a value they leave non-finite
    fails the check instead.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo, hi = (rule(n) for n in orders)
        for q, (rtol, atol) in tols.items():
            a, b = lo[q], hi[q]
            ok = (np.isfinite(a) & np.isfinite(b)
                  & (np.abs(a - b) <= atol + rtol * np.maximum(np.abs(b), 1.0)))
            if not np.all(ok):
                raise QuadratureError(f"{what} did not converge for the {q}")
    return hi


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
    y, w = legendre_panels(np.arange(1.0, end + 1), n)
    y, w = y.ravel(), w.ravel() / _SQRT_2PI
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


def _gh_spots(s: np.ndarray, v: float, order: int):
    """Gauss-Hermite nodes of S_T given S_t = s, one row per spot, with
    total log-sd v: (S_T nodes of shape (ns, order), z, w)."""
    z, w = gauss_normal_nodes(order)
    return s[:, None] * np.exp(v * z - 0.5 * v * v), z, w


def _pathwise_rule(p: Payoff, v: float, s, tols, order: int) -> dict:
    """Every quantity in ``tols`` by one Gauss-Hermite rule, with the
    Greeks from payoff derivatives: delta = E[h'(S_T) S_T] / s and
    gamma = E[h''(S_T) S_T^2] / s^2, so nothing is divided by v."""
    K, th = p.strike, p.holder_theta
    st, _, w = _gh_spots(s, v, order)
    u = np.maximum(st - K, 0.0)
    hv = u ** th
    # S_T / (S_T - K), zero below the kink where h and its derivatives
    # are (``_checked`` silences the 0/0 that np.where discards)
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


def _kinked(p: Payoff, v: float, s: np.ndarray,
            tols: dict) -> dict[str, np.ndarray]:
    """Every quantity in ``tols`` for the power-Holder payoff.

    With d2 = (E[ln S_T] - ln K)/v, the kernel sds by which the kink lies
    below the mean, spots with d2 <= 8 take ``_kink_rule`` and spots far
    above the kink (d2 > 8, where it carries less than Phi(-8) of the
    mass) ``_pathwise_rule``.  Each rule runs at two orders through
    ``_checked``.  Spots with d2 < -40 get zeros: every kernel weight is
    under e^-800 there.  The matrix products can give a spot different
    last bits with its row and batch size: of 997 spots valued as one
    batch, 455 to 511 differ from the same spots valued one at a time,
    by at most 6.6e-16 relative.
    Row-independent reductions (``einsum``, or ``(kern * f).sum(1)``)
    took 2.4x and 8x the matrix product on a 1,000 x 200 kernel, so
    callers that need fixed bits fix the batches instead, as
    ``model.map_blocks`` does.
    """
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
        vals = _checked(functools.partial(rule, p, v, s[spots], tols),
                        orders, tols, f"{what} under refinement")
        for q in tols:
            out[q][spots] = vals[q]
    return out


def _chaos_closed(p, v, s, want):
    """Closed-form chaos price/Greeks via Q_k = E[H_k(N(m, v^2))].

    Q satisfies Q_{k+1} = (m Q_k + (v^2-1) sqrt(k) Q_{k-1}) / sqrt(k+1),
    stable and geometrically convergent for v <= 1; derivatives in m
    follow from d/dm Q_k = sqrt(k) Q_{k-1}, so the i-th m-derivative of
    the price is the series of alpha_{k+i} sqrt((k+i)!/k!), zero past
    K - i.  One ``hermite_series`` pass sums the rows that the
    quantities in ``want`` read.
    """
    alpha = p.expansion.alpha
    k = np.arange(float(alpha.size))
    rows = {}
    if "price" in want:
        rows[0] = alpha
    if "delta" in want or "gamma" in want:
        rows[1] = np.zeros_like(alpha)
        rows[1][:-1] = alpha[1:] * np.sqrt(k[1:])
    if "gamma" in want:
        rows[2] = np.zeros_like(alpha)
        rows[2][:-2] = alpha[2:] * np.sqrt(k[2:] * k[1:-1])
    m = np.log(s) + 0.5 - 0.5 * v * v
    f = dict(zip(rows, hermite_series(np.stack(list(rows.values())), m,
                                      v * v - 1.0)))
    out = {}
    if "price" in want:
        out["price"] = f[0]
    if "delta" in want:
        out["delta"] = f[1] / s
    if "gamma" in want:
        out["gamma"] = (f[2] - f[1]) / (s * s)
    return out


#: Gauss-Hermite order of the chaos-payoff quadrature (doubled to check it)
_GH_NODES = 201


def _chaos(p, v, var, s, tols):
    """Chaos-payoff quantities: the closed form while var = sigma^2 tau
    <= 1, else Gauss-Hermite checked under node doubling.  E[h^2] is not
    checked under node doubling, but raises ``QuadratureError``, with no
    warning, when its sum overflows."""
    out = {}
    if "m2" in tols:
        st, _, w = _gh_spots(s, v, _GH_NODES)
        with np.errstate(over="ignore", invalid="ignore"):
            out["m2"] = payoff_eval(p, st) ** 2 @ w
        if not np.all(np.isfinite(out["m2"])):
            raise QuadratureError("Gauss-Hermite E[h^2] of the chaos series "
                                  "is not finite")
    rest = {q: tol for q, tol in tols.items() if q != "m2"}
    if not rest:
        return out
    if var <= 1.0:
        return {**out, **_chaos_closed(p, v, s, rest)}

    def rule(n):
        st, z, w = _gh_spots(s, v, n)
        hv = payoff_eval(p, st)
        # kernel weights before the 1/(s^k v) of each Greek
        kern = {"price": w, "delta": w * z, "gamma": w * ((z * z - 1.0) / v - z)}
        return {q: hv @ kern[q] for q in rest}

    raw = _checked(rule, (_GH_NODES, 2 * _GH_NODES + 1), rest,
                   "lognormal-kernel quadrature under node doubling")
    scale = {"price": 1.0, "delta": s * v, "gamma": s * s * v}
    return {**out, **{q: raw[q] / scale[q] for q in rest}}


def _closed_form(p, v, var, s, q):
    if q == "delta":
        return _log_delta(p, np.log(s), v)
    if p.kind == "affine":
        if q == "price":
            return p.c0 + p.c1 * s
        if q == "m2":
            c0, c1, ev2 = np.float64(p.c0), np.float64(p.c1), _exp_var(var)
            with np.errstate(over="ignore", invalid="ignore"):
                return _finite_m2(p, c0 ** 2 + 2.0 * c0 * c1 * s
                                  + c1 ** 2 * s * s * ev2)
        return np.zeros_like(s)
    K = p.strike
    d1, d2 = _d12(v, s, K)
    if p.kind == "binary":
        # h^2 = h
        if q in ("price", "m2"):
            return ndtr(d2)
        return -_phi(d2) * d1 / (s * s * v * v)
    if q == "gamma":
        # one gamma: the call and the put differ by the affine s - K
        return _phi(d1) / (s * v)
    if q == "price":
        if p.kind == "call":
            return s * ndtr(d1) - K * ndtr(d2)
        return K * ndtr(-d2) - s * ndtr(-d1)
    ev2 = _exp_var(v * v)
    with np.errstate(over="ignore", invalid="ignore"):
        if p.kind == "call":
            m2 = (s * s * ev2 * ndtr(d1 + v)
                  - 2.0 * K * s * ndtr(d1) + K * K * ndtr(d2))
        else:
            m2 = (K * K * ndtr(-d2) - 2.0 * K * s * ndtr(-d1)
                  + s * s * ev2 * ndtr(-(d1 + v)))
        return _finite_m2(p, np.maximum(m2, 0.0))


def _finite_m2(p: Payoff, m2):
    """E[h^2] of a closed-form payoff, refused where it overflows."""
    if np.all(np.isfinite(m2)):
        return m2
    raise ConfigError(f"the {p.kind} payoff's E[h^2] overflows a float")


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


def _outer_grid(p: Payoff, model: MarketModel, t: float):
    """Nodes and weights ``(x, w)`` of ln S_t under the pricing measure.

    At t = 0 this is the point mass of ln s0.  For t > 0 it is a
    ``lognormal_grid``, whose last panels reach 2^-40 of the mass on
    either side; for a payoff with a kink (call, put, binary,
    power-Holder) the grid is graded at ln K down to the width
    sigma sqrt(T - t) over which the delta and gamma localize as t
    approaches maturity.  A t > 0 grid whose spots all round to one
    value (its end nodes, by monotonicity) raises
    ``DegeneratePathsError``: that law of S_t has collapsed.
    """
    if t == 0.0:
        return np.array([math.log(model.s0)]), np.ones(1)
    sigma = model.sigma
    kink = None if p.kind in ("affine", "chaos") else (
        math.log(p.strike), _resolve(model, t, greek=False)[0])
    x, w = lognormal_grid(math.log(model.s0) - 0.5 * sigma * sigma * t,
                          sigma * math.sqrt(t), kink)
    if np.exp(x[0]) == np.exp(x[-1]):
        raise DegeneratePathsError(f"the law of S_t at t={float(t)!r} has "
                                   "collapsed: its spots round to one value")
    return x, w
