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


class _Tables(dict):
    """t -> delta evaluator ``fn(x, s, out)`` at ln-spots x = ln s, for one
    (payoff, model).

    The binary and call deltas are computed from x by
    ``payoffs._log_delta`` into the buffer ``out``, with the time and
    volatility checked once, when the evaluator is built.  The
    power-Holder payoff is tabulated once per t on a log-price grid
    refined around the strike and linearly interpolated in x.  Other
    payoffs are valued at s by ``payoffs.delta``.  Nested nets share
    their nodes bit for bit, so one instance reused across nets builds
    each time's evaluator only once.
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
            v = model.sigma * math.sqrt(po._tau(model, t, greek=True))
            lo, hi = _log_range(model)
            lk = math.log(p.strike)
            u = np.arange(-16.0, 16.0 + 1e-9, 1.0 / 16.0)
            x = np.unique(np.concatenate([
                np.clip(lk + v * u, lo, hi),
                np.linspace(lo, hi, 512),
            ]))
            vals = po.delta(p, model, t, np.exp(x))
            fn = lambda xs, s, out: np.interp(xs, x, vals)
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
