"""Discrete delta-hedging: tracking error simulation and its L2 norm.

The tracking error of a payoff h rebalanced on a time net is

    C_T = h(S_T) - H(0, s0) - sum_i delta(t_i, S_{t_i}) (S_{t_i+1} - S_{t_i})

with risk-neutral deltas even when paths follow the historical measure.
``z_regularity`` computes the same squared L2 norm without any Monte
Carlo: the one-step hedging errors are orthogonal, and each one's mean
square has a closed form in the price and delta at the step's start,
left to average over one quadrature grid of ln S per net interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import ConfigError, QuadratureError
from .model import MarketModel, _check_grid, _walk, map_blocks
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


def _holder_nodes(p: Payoff, model: MarketModel, t: float):
    """The power-Holder delta table's nodes in x = ln s at time t, and the
    interval where they are dense: 16 per kernel sd v within 16 v of
    ln K, plus 512 evenly over ``_log_range``."""
    v = model.sigma * math.sqrt(po._tau(model, t, greek=True))
    lo, hi = _log_range(model)
    lk = math.log(p.strike)
    u = np.arange(-16.0, 16.0 + 1e-9, 1.0 / 16.0)
    x = np.unique(np.concatenate([np.clip(lk + v * u, lo, hi),
                                  np.linspace(lo, hi, 512)]))
    return x, (lk - 16.0 * v, lk + 16.0 * v)


def _linear_lookup(x: np.ndarray, vals: np.ndarray, dense: tuple[float, float]):
    """``f(xc, out)``, which writes ``np.interp(xc, x, vals)`` into out bit
    for bit, for xc in [x[0], x[-1]] and strictly increasing x (at least
    two nodes) on which every slope is finite, at O(1) cost a point.

    Buckets are uniform in g(x) = c (x - x[0]) + d (clip(x, a, b) - a),
    with (a, b) = ``dense``, c = 2 n / (x[-1] - x[0]) for n nodes and
    d = 2 m / (b - a) for the m nodes in [a, b], so the buckets follow
    the nodes' density inside the dense interval however narrow it is,
    and the pass count below stays small.  Each bucket stores the first
    node that any xc in it can lie on, and a fixed number of passes of
    ``j += xc >= x[j + 1]`` then reaches the node j with
    x[j] <= xc < x[j + 1] (or the last node at xc = x[-1]).  One
    function computes buckets at build and at run time, monotone in x,
    so the nodes that an xc in bucket k can lie on are fixed by the
    nodes' own buckets: from the last node below bucket k to the last
    node in it.  The first of these is stored, and the pass count is
    the widest such span, with no margin to guess.  The value
    slope[j] (xc - x[j]) + vals[j] is np.interp's, with its slopes,
    and a zero slope at the last node.
    """
    lo = x[0]
    a, b = dense
    c = 2.0 * x.size / (x[-1] - lo)
    d = 2.0 * np.count_nonzero((x >= a) & (x <= b)) / (b - a) if b > a else 0.0

    def bucket(xs):
        g = np.subtract(xs, lo)
        g *= c
        z = np.clip(xs, a, b)
        z -= a
        z *= d
        g += z
        return g.astype(np.intp)

    node_k = bucket(x)
    ks = np.arange(node_k[-1] + 1)
    first = np.maximum(np.searchsorted(node_k, ks, "left") - 1, 0)
    passes = int((np.searchsorted(node_k, ks, "right") - 1 - first).max())
    slope = np.zeros(x.size)
    slope[:-1] = np.diff(vals) / np.diff(x)
    # upper[j] = x[j + 1], with no node to pass beyond the last
    padded = np.append(x, np.inf)
    upper = padded[1:]

    def lookup(xc, out):
        j = first.take(bucket(xc))
        for _ in range(passes):
            j += xc >= upper.take(j)
        f = np.subtract(xc, padded.take(j))
        np.multiply(slope.take(j), f, out=out)
        out += vals.take(j, out=f)
        return out

    return lookup


class _Tables(dict):
    """t -> delta evaluator ``fn(x, s, out)`` at ln-spots x = ln s, for one
    (payoff, model).

    The binary and call deltas are computed from x by
    ``payoffs._log_delta`` into the buffer ``out``, with the time and
    volatility checked once, when the evaluator is built.  The
    power-Holder payoff is tabulated once per t on ``_holder_nodes`` and
    linearly interpolated in x by ``_linear_lookup`` into ``out``; a spot
    beyond the table is valued by ``payoffs.delta``.  Other payoffs are
    valued at s by ``payoffs.delta``.  Nested nets share their nodes bit
    for bit, so one instance reused across nets builds each time's
    evaluator only once.
    """

    def __init__(self, p: Payoff, model: MarketModel):
        super().__init__()
        self.p, self.model = p, model

    def __missing__(self, t: float):
        p, model = self.p, self.model
        if p.kind in ("binary", "call"):
            po._check_sigma(model)
            v = model.sigma * math.sqrt(po._tau(model, t, greek=True))
            lk = math.log(p.strike)
            fn = lambda x, s, out: po._log_delta(p.kind, x, lk, v, out)
        elif p.kind != "power_holder":
            fn = lambda x, s, out: po.delta(p, model, t, s)
        else:
            nodes, dense = _holder_nodes(p, model, t)
            lookup = _linear_lookup(
                nodes, po.delta(p, model, t, np.exp(nodes)), dense)
            lo, hi = nodes[0], nodes[-1]

            def fn(x, s, out):
                xc = np.clip(x, lo, hi)
                lookup(xc, out)
                off = xc != x
                if off.any():
                    out[off] = po.delta(p, model, t, s[off])
                return out
        self[t] = fn
        return fn


def _run(p: Payoff, model: MarketModel, net: TimeNet, m: int, seed: int,
         measure: str, eval_times, threads: int,
         deltas: _Tables | None = None) -> TrackingErrorSample:
    """Simulate the hedge on the union of the net and ``eval_times``.

    Each path block reads x = ln S from ``model._walk`` and takes one
    exp per step into a preallocated S, whose change, times the delta
    held, accumulates the hedge gains.  Deltas at the net's nodes
    come from the evaluators of ``deltas`` (built per t, shared across
    calls), which read x and write into the block's delta buffer.
    """
    if abs(net.T - model.T) > 1e-12:
        raise ConfigError("net maturity must match the model maturity")
    if m < 1:
        raise ConfigError("path count m must be >= 1")
    if deltas is None:
        deltas = _Tables(p, model)
    drift = model.drift(measure)

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
    # risk-neutral delta evaluators at every net rebalancing time; the
    # last node T never needs a delta
    dfns = {j: deltas[grid[j]] for j in range(nt - 1) if is_node[j]}

    terminal = np.empty(m)
    proc = np.empty((m, ev.size)) if ev.size else None

    def block(start, count):
        s, s_old = np.full(count, model.s0), np.empty(count)
        acc, dvec, ds = np.zeros(count), np.zeros(count), np.empty(count)
        col = 0
        for j, x in _walk(model, grid, seed, start, count, drift):
            if j > 0:
                s, s_old = s_old, s
                np.exp(x, out=s)
                np.subtract(s, s_old, out=ds)
                ds *= dvec
                acc += ds
            if is_eval[j]:
                proc[start:start + count, col] = (
                    po.price(p, model, grid[j], s) - h0 - acc)
                col += 1
            if is_node[j] and j < nt - 1:
                # the evaluators read x, which stays finite where S
                # underflows, so a zero spot is rejected here
                if not s.all():
                    raise ConfigError("a simulated spot underflowed to 0: "
                                      "price argument s must be > 0")
                dvec = dfns[j](x, s, dvec)
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
# quadrature route: squared L2 tracking error from the one-step errors


def z_regularity(p: Payoff, model: MarketModel, net: TimeNet) -> float:
    """Squared L2 norm of the tracking error, by quadrature over ln S.

    Under the zero-drift pricing measure C_T is the sum of the one-step
    errors D_i = H(t_i, S_{t_i}) - H(a, S_a) - delta(a, S_a) dS_i with
    a = t_{i-1}.  Three facts give each E[D_i^2] in closed form at time a:

    * the D_i are orthogonal martingale increments, and the squared
      price increments telescope to Var h(S_T);
    * E[dS_i^2 | S_a] = (g - 1) S_a^2 with g = exp(sigma^2 (t_i - a));
    * E[H(t_i, S_{t_i}) S_{t_i} | S_a] = S_a H(a, g S_a), the price
      under the share measure, whose log-drift is sigma^2.

    Hence, with S = S_a, H = H(a, S) and delta = delta(a, S),

        ||C_T||^2 = Var h(S_T)
                    - sum_i E[ 2 delta S (H(a, g S) - H) - (g - 1)(delta S)^2 ],

    one kink-graded grid of ln S_a per net interval (the point mass s0
    at a = 0).  A chaos payoff's Var h(S_T) comes from its unchecked
    E[h^2] rule, so its result is only as accurate as ``second_moment``.
    """
    if abs(net.T - model.T) > 1e-12:
        raise ConfigError("net maturity must match the model maturity")
    total = float(po.conditional_variance(p, model, 0.0, model.s0))
    for a, b in zip(net.nodes[:-1], net.nodes[1:]):
        g = math.exp(model.sigma ** 2 * (b - a))
        x, w = po._outer_grid(p, model, a)
        s = np.exp(x)
        v = po._valuate(p, model, a, s, ("price", "delta"))
        ds = v["delta"] * s
        gain = po.price(p, model, a, g * s) - v["price"]
        total -= float(w @ (2.0 * ds * gain - (g - 1.0) * ds * ds))
    # a difference of two sums: a Var h(S_T) that is too low shows as a
    # negative mean square, which is reported rather than returned
    if not 0.0 <= total < math.inf:
        raise QuadratureError(f"squared hedging error {total!r} is negative "
                              "or not finite")
    return total
