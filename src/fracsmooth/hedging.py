"""Discrete delta-hedging: tracking error simulation and its L2 norm.

The tracking error of a payoff h rebalanced on a time net is

    C_T = h(S_T) - H(0, s0) - sum_i delta(t_i, S_{t_i}) (S_{t_i+1} - S_{t_i})

with risk-neutral deltas even when paths follow the historical measure.
``z_regularity`` computes the same squared L2 norm by quadrature through
the Ito isometry, without any Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import ConfigError, QuadratureError
from .model import MarketModel, _check_grid, _log_step, map_blocks
from .payoffs import Payoff
from .timenets import TimeNet

__all__ = [
    "TrackingErrorSample",
    "L2ErrorEstimate",
    "tracking_error_terminal",
    "tracking_error_process",
    "l2_tracking_error",
    "z_regularity",
]

#: z_regularity's time rule: Gauss-Legendre nodes per panel, and the
#: halvings of the last net interval toward maturity
_T_QUAD_ORDER = 8
_T_TAIL_DEPTH = 40


@dataclass(frozen=True)
class TrackingErrorSample:
    """Per-path C_T and, from ``tracking_error_process``, C_t with one
    column per evaluation time."""

    terminal_errors: np.ndarray
    process_values: np.ndarray | None = None


@dataclass(frozen=True)
class L2ErrorEstimate:
    """|| C_T ||_{L2} estimate with the MC standard error of mean(C_T^2)."""

    n: int
    l2_error: float
    stderr: float
    m: int

    def __post_init__(self):
        if self.l2_error < 0.0 or self.stderr < 0.0:
            raise ConfigError("estimate moments must be non-negative")


def _log_range(model: MarketModel) -> tuple[float, float]:
    """ln-price interval covering the paths of both measures out to 10 sd."""
    x0 = math.log(model.s0)
    drifts = [0.0, model.mu]
    span = 10.0 * model.sigma * math.sqrt(model.T)
    lo = x0 + min((d - 0.5 * model.sigma ** 2) * model.T for d in drifts) - span
    hi = x0 + max((d - 0.5 * model.sigma ** 2) * model.T for d in drifts) + span
    return lo, hi


class _Tables(dict):
    """t -> vectorized s -> price or delta evaluator, for one (payoff, model).

    Closed-form payoffs and chaos series evaluate directly; the
    power-Holder payoff is tabulated once per t on a log-price grid
    refined around the strike and linearly interpolated.  Nested nets
    share their nodes bit for bit, so one instance reused across nets
    tabulates each time only once.
    """

    def __init__(self, p: Payoff, model: MarketModel, which: str = "delta"):
        super().__init__()
        self.p, self.model, self.which = p, model, which
        self.tabulated = p.kind == "power_holder"

    def __missing__(self, t: float):
        p, model = self.p, self.model
        f = po.price if self.which == "price" else po.delta
        if not self.tabulated:
            fn = lambda s: f(p, model, t, s)
        else:
            v = model.sigma * math.sqrt(max(model.T - t, po._TAU_FLOOR))
            lo, hi = _log_range(model)
            lk = math.log(p.strike)
            u = np.arange(-16.0, 16.0 + 1e-9, 1.0 / 16.0)
            x = np.unique(np.concatenate([
                np.clip(lk + v * u, lo, hi),
                np.linspace(lo, hi, 512),
            ]))
            vals = f(p, model, t, np.exp(x))
            fn = lambda s: np.interp(np.log(s), x, vals)
        self[t] = fn
        return fn


def _run(p: Payoff, model: MarketModel, net: TimeNet, m: int, seed: int,
         measure: str, eval_times, threads: int,
         deltas: _Tables | None = None) -> TrackingErrorSample:
    if abs(net.T - model.T) > 1e-12:
        raise ConfigError("net maturity must match the model maturity")
    if m < 1:
        raise ConfigError("path count m must be >= 1")
    if deltas is None:
        deltas = _Tables(p, model)
    drift = model.drift(measure)
    sigma = model.sigma

    if eval_times is None:
        ev = np.empty(0)
    else:
        ev = _check_grid(model, eval_times)
        if ev[-1] >= model.T:
            raise ConfigError("eval_times must lie in [0, T)")
    grid = np.union1d(net.nodes, ev)
    is_node = np.isin(grid, net.nodes)
    is_eval = np.isin(grid, ev)
    nt = grid.size

    h0 = po.price(p, model, 0.0, model.s0)
    # risk-neutral delta evaluators at every net rebalancing time
    prices = _Tables(p, model, "price")
    dfns = {}
    pfns = {}
    for j in range(nt - 1):          # the last node T never needs a delta
        if is_node[j]:
            dfns[j] = deltas[grid[j]]
        if is_eval[j]:
            pfns[j] = prices[grid[j]]

    terminal = np.empty(m)
    proc = np.empty((m, ev.size)) if ev.size else None

    def block(start, count):
        s = np.full(count, model.s0)
        acc = np.zeros(count)
        dvec = np.zeros(count)
        col = 0
        for j in range(nt):
            if j > 0:
                s_new = s * np.exp(_log_step(grid[j - 1], grid[j], j, seed,
                                             start, count, drift, sigma))
                acc = acc + dvec * (s_new - s)
                s = s_new
            if is_eval[j]:
                proc[start:start + count, col] = pfns[j](s) - h0 - acc
                col += 1
            if is_node[j] and j < nt - 1:
                dvec = np.asarray(dfns[j](s))
        terminal[start:start + count] = po.payoff_eval(p, s) - h0 - acc

    map_blocks(block, m, threads=threads)
    return TrackingErrorSample(terminal_errors=terminal, process_values=proc)


def tracking_error_terminal(p: Payoff, model: MarketModel, net: TimeNet,
                            m: int, seed: int, measure: str = "martingale",
                            threads: int = 1) -> TrackingErrorSample:
    """Per-path terminal tracking errors C_T on the given net."""
    return _run(p, model, net, m, seed, measure, None, threads)


def tracking_error_process(p: Payoff, model: MarketModel, net: TimeNet,
                           m: int, seed: int, eval_times,
                           measure: str = "martingale",
                           threads: int = 1) -> TrackingErrorSample:
    """Tracking error process C_t on eval_times.

    ``eval_times`` must be finite, strictly increasing and in [0, T);
    column k of ``process_values`` holds C at ``eval_times[k]``.
    """
    return _run(p, model, net, m, seed, measure, eval_times, threads)


def l2_tracking_error(p: Payoff, model: MarketModel, net: TimeNet, m: int,
                      seed: int, measure: str = "martingale",
                      threads: int = 1, *,
                      _deltas: _Tables | None = None) -> L2ErrorEstimate:
    """|| C_T ||_{L2} with the standard error of the mean square.

    ``_deltas`` is private: ``ratefit.sweep`` shares one across its nets.
    """
    if m < 2:
        raise ConfigError("need m >= 2 paths for a standard error")
    sample = _run(p, model, net, m, seed, measure, None, threads, _deltas)
    sq = sample.terminal_errors ** 2
    msq = float(sq.mean())
    se = float(sq.std(ddof=1)) / math.sqrt(m)
    return L2ErrorEstimate(n=net.n, l2_error=math.sqrt(max(msq, 0.0)),
                           stderr=se, m=m)


# ---------------------------------------------------------------------------
# quadrature route: squared L2 tracking error through the Ito isometry


def _bridge_mean(p: Payoff, model: MarketModel, a: float, t: float, x):
    """E[delta(a, S_a) | ln S_t = x] for 0 < a < t, by the bridge identity
    of ``z_regularity``: one delta per spot, at time a^2/t."""
    sigma, x0 = model.sigma, math.log(model.s0)
    mu = x0 - 0.5 * sigma * sigma * a + (a / t) * (
        x - x0 + 0.5 * sigma * sigma * t)
    v = sigma * math.sqrt(a * (t - a) / t)
    return po.delta(p, model, a * a / t, np.exp(mu - 0.5 * v * v))


def z_regularity(p: Payoff, model: MarketModel, net: TimeNet) -> float:
    """Squared L2 norm of the tracking error, by nested quadrature.

    By the Ito isometry (zero-drift pricing measure),

        ||C_T||^2 = sum_i int_{t_i-1}^{t_i}
                      E[ sigma^2 S_t^2 (delta(t,S_t) - delta(t_i-1,S_t_i-1))^2 ] dt.

    Each integrand expands into G(t) + e^{sigma^2 (t-a)} G(a) - 2 X(a,t)
    with G(u) = E (sigma S_u delta(u,S_u))^2 and the cross term
    X(a,t) = sigma^2 E[S_t^2 delta(t,S_t) E[delta(a,S_a) | S_t]].  The time
    integral is graded geometrically toward maturity on the last net
    interval.

    Given ln S_t = x, the Brownian bridge makes ln S_a ~ N(mu, v^2) with
    mu = x0 - sigma^2 a/2 + (a/t)(x - x0 + sigma^2 t/2) and
    v^2 = sigma^2 a (t-a)/t.  Since delta(a, .) is the s-derivative of
    the price, a Gaussian average of it in ln s is again a delta, at the
    earlier time whose remaining variance is larger by v^2:

        E[delta(a, S_a) | S_t] = delta(a^2/t, exp(mu - v^2/2)),

    exactly and for every payoff: one delta per grid node.
    """
    if abs(net.T - model.T) > 1e-12:
        raise ConfigError("net maturity must match the model maturity")
    sigma = model.sigma
    gx, gw = np.polynomial.legendre.leggauss(_T_QUAD_ORDER)
    d0 = po.delta(p, model, 0.0, model.s0)

    def at(t):
        """Grid nodes, weights, spots and deltas of ln S_t, for t > 0."""
        x, w = po._outer_grid(p, model, t, tail_depth=32)
        s = np.exp(x)
        return x, w, s, po.delta(p, model, t, s)

    def g_of(node):
        """G(t) = E (sigma S_t delta(t, S_t))^2 on the nodes of ``at(t)``."""
        _, w, s, d = node
        return sigma * sigma * float(w @ (s * s * d * d))

    def cross(a, t, node):
        """X(a,t) = sigma^2 E[ S_t^2 delta_t(S_t) delta_a(S_a) ]."""
        x, w, st, d_t = node
        if a == 0.0:
            inner = np.full_like(x, d0)
        else:
            inner = _bridge_mean(p, model, a, t, x)
        return sigma * sigma * float(w @ (st * st * d_t * inner))

    total = 0.0
    nodes = net.nodes
    for i in range(net.n):
        a, b = float(nodes[i]), float(nodes[i + 1])
        g_a = (sigma * model.s0 * d0) ** 2 if a == 0.0 else g_of(at(a))
        if b < net.T:
            mids = [a, 0.5 * (a + b), b]
        else:
            mids = [a] + [b - (b - a) * 2.0 ** -j
                          for j in range(1, _T_TAIL_DEPTH + 1)] + [b]
            # drop panels that collapse in double precision near t = T
            mids = [mids[0]] + [t for u, t in zip(mids[:-1], mids[1:]) if t > u]
        for lo, hi in zip(mids[:-1], mids[1:]):
            tq = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
            # keep quadrature times strictly below maturity under rounding
            tq = np.minimum(tq, np.nextafter(b, 0.0) if b >= net.T else hi)
            wq = 0.5 * (hi - lo) * gw
            for t, w in zip(tq, wq):
                node = at(t)
                val = g_of(node) + math.exp(sigma * sigma * (t - a)) * g_a \
                    - 2.0 * cross(a, t, node)
                if not math.isfinite(val):
                    raise QuadratureError(
                        f"non-finite regularity integrand at t={t:.6g}")
                total += w * val
    return float(total)
