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
import threading
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import (ConfigError, DegeneratePathsError, QuadratureError,
                     SimulationError)
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
        if not all(0.0 <= x < math.inf for x in (self.l2_error, self.stderr)):
            raise SimulationError("estimate moments must be finite and >= 0")


def _log_range(model: MarketModel) -> tuple[float, float]:
    """ln-price interval covering the paths of both measures out to 10 sd."""
    x0 = math.log(model.s0)
    drifts = [0.0, model.mu]
    span = 10.0 * model.sigma * math.sqrt(model.T)
    lo = x0 + min((d - 0.5 * model.sigma ** 2) * model.T for d in drifts) - span
    hi = x0 + max((d - 0.5 * model.sigma ** 2) * model.T for d in drifts) + span
    return lo, hi


#: power-Holder delta tables: nodes about _TABLE_STEP apart in
#: xi = asinh((ln s - ln K) / a) with a = v / (8 _TABLE_STEP), so cells
#: are v / 8 wide at the kink and widen by e^_TABLE_STEP a cell beyond
_TABLE_STEP = 0.05
#: a table's estimated error may reach _TABLE_RTOL max(|delta|, 1); it
#: halves its cells at most _TABLE_REFINE times to get there
_TABLE_RTOL = 1e-4
_TABLE_REFINE = 3


def _holder_nodes(p: Payoff, model: MarketModel, t: float):
    """The power-Holder delta table's nodes xi at time t, and its a.

    With kernel sd v = sigma sqrt(T - t) the delta varies on the scale v
    near the kink ln K and like |x - ln K|^(theta - 1) beyond it, so the
    nodes are uniform in xi = asinh((x - ln K) / a) with
    a = v / (8 _TABLE_STEP): x = ln K + a sinh(xi) steps by v / 8 at the
    kink, and by e^_TABLE_STEP times the last step on the way out.  They
    run from the xi of one end of ``_log_range`` to the other's, in an
    even number of cells, so that every other node is a table of its own
    (``_table_error``).
    """
    v, _ = po._resolve(model, t, greek=True)
    a = v / (8.0 * _TABLE_STEP)
    lk = math.log(p.strike)
    lo, hi = (math.asinh((x - lk) / a) for x in _log_range(model))
    cells = 2 * max(math.ceil((hi - lo) / (2.0 * _TABLE_STEP)), 1)
    return np.linspace(lo, hi, cells + 1), a


def _hermite_coefficients(x, vals, slopes):
    """(c1, c2, c3) per cell of the cubic Hermite interpolant of the
    values and slopes at nodes x: on [x[j], x[j + 1]] it is
    vals[j] + c1[j] f + c2[j] f^2 + c3[j] f^3 with f = xc - x[j]."""
    h = np.diff(x)
    secant = np.diff(vals) / h
    c2 = (3.0 * secant - 2.0 * slopes[:-1] - slopes[1:]) / h
    c3 = (slopes[:-1] + slopes[1:] - 2.0 * secant) / (h * h)
    return slopes[:-1], c2, c3


def _hermite_lookup(xi: np.ndarray, vals: np.ndarray, slopes: np.ndarray,
                    lk: float, a: float):
    """``f(xc, out)``, which writes into out the cubic Hermite interpolant
    of ``vals`` with xi-derivatives ``slopes`` at the uniform nodes xi,
    at xi = asinh((xc - lk) / a) in [xi[0], xi[-1]]: the cell is a floor,
    then four coefficients per cell in Horner form.  xc is overwritten:
    a fresh array for xi took a lookup on 26,668 spots from about 10 to
    19 ns a point (2 vCPUs), in page faults.  Coefficients that are not
    all finite raise ``QuadratureError``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coefs = _hermite_coefficients(xi, vals, slopes)
    # cells narrower than the check's can still overflow
    if not all(np.isfinite(c).all() for c in coefs):
        raise QuadratureError("the power-Holder delta table's cubic is not "
                              "finite on every cell")
    c1, c2, c3 = coefs
    first, scale, last = xi[0], (xi.size - 1) / (xi[-1] - xi[0]), xi.size - 2

    def lookup(xc, out):
        f = np.subtract(xc, lk, out=xc)
        f *= 1.0 / a
        np.arcsinh(f, out=f)
        np.subtract(f, first, out=out)
        out *= scale
        # truncation is the floor on out > -1, all that rounding leaves
        j = np.minimum(out.astype(np.intp), last)
        f -= xi.take(j)
        np.multiply(c3.take(j), f, out=out)
        out += c2.take(j)
        out *= f
        out += c1.take(j)
        out *= f
        out += vals.take(j)
        return out

    return lookup


def _table_error(x, vals, slopes) -> float:
    """The estimated error of the table, relative to max(|delta|, 1).

    The cubic on every other node is evaluated at the nodes it drops,
    where the values are known.  Its cells are twice as wide, and a
    cubic Hermite's error goes as the fourth power of the width, so the
    gap over 16 estimates the error of the whole table at its cell
    midpoints.  A gap that is not finite reads as NaN or inf, which no
    tolerance admits.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c1, c2, c3 = _hermite_coefficients(x[::2], vals[::2], slopes[::2])
    f = x[1::2] - x[:-1:2]
    gap = ((c3 * f + c2) * f + c1) * f + vals[:-1:2] - vals[1::2]
    return float(np.max(np.abs(gap) / np.maximum(np.abs(vals[1::2]), 1.0)
                        / 16.0))


def _interleave(a, b):
    out = np.empty(a.size + b.size)
    out[::2], out[1::2] = a, b
    return out


def _delta_slope(p: Payoff, model: MarketModel, t: float, xi, a: float):
    """The delta at the nodes xi of scale a and its xi-slope
    gamma s a cosh(xi), from one engine call."""
    with np.errstate(over="ignore"):
        s = np.exp(math.log(p.strike) + a * np.sinh(xi))
    v = po._valuate(p, model, t, s, ("delta", "gamma"))
    return v["delta"], v["gamma"] * s * (a * np.cosh(xi))


def _holder_table(p: Payoff, model: MarketModel, t: float):
    """The delta table at t: nodes xi, deltas, xi-slopes, the scale a of
    ``_holder_nodes`` and the estimated error over ``_TABLE_RTOL``; None
    when the xi range is empty, as where the paths' ln-price range
    rounds to one point and no table can be built.

    Delta and gamma come from one engine call.  While the estimate
    exceeds the tolerance, each cell is halved at its midpoint in xi
    (engine calls only at the new nodes, and the old nodes become the
    every-other table of the check), at most ``_TABLE_REFINE`` times;
    then, or at once for an estimate that is not finite,
    ``QuadratureError`` is raised.
    """
    xi, a = _holder_nodes(p, model, t)
    if xi[0] == xi[-1]:
        return None
    vals, slopes = _delta_slope(p, model, t, xi, a)
    for level in range(_TABLE_REFINE + 1):
        ratio = _table_error(xi, vals, slopes) / _TABLE_RTOL
        if ratio <= 1.0:
            return xi, vals, slopes, a, ratio
        if level == _TABLE_REFINE or not math.isfinite(ratio):
            break
        mid = 0.5 * (xi[:-1] + xi[1:])
        more = _delta_slope(p, model, t, mid, a)
        xi, vals, slopes = (_interleave(u, w) for u, w in
                            zip((xi, vals, slopes), (mid, *more)))
    raise QuadratureError(
        f"the power-Holder delta table at t={float(t)!r} keeps an estimated "
        f"error of {ratio * _TABLE_RTOL:.3g} after {level} refinements, above "
        f"its tolerance {_TABLE_RTOL:g}")


class _Tables(dict):
    """t -> delta evaluator ``fn(x, s, out)`` at ln-spots x = ln s, for one
    (payoff, model).

    The binary and call deltas are computed from x by
    ``payoffs._log_delta`` into the buffer ``out``, with the time and
    volatility checked once, when the evaluator is built.  The
    power-Holder payoff is tabulated once per t by ``_holder_table``,
    whose error is estimated and held within ``_TABLE_RTOL``, and
    interpolated by ``_hermite_lookup`` into ``out``; a spot beyond the
    table's ``_log_range`` is valued by ``payoffs.delta``.  Other payoffs,
    and the power-Holder payoff at a t with no table, are valued at s by
    ``payoffs.delta``.  Nested nets share their nodes bit for bit, so one
    instance reused across nets builds each time's evaluator only once.

    For the power-Holder payoff ``health`` reports the worst table's
    estimated error over the tolerance and the count of spots valued
    beyond the tables; both are sums or maxima of deterministic values,
    the same at any thread count.
    """

    def __init__(self, p: Payoff, model: MarketModel):
        super().__init__()
        self.p, self.model = p, model
        self.error_ratio = 0.0
        self.off_table = 0
        self._lock = threading.Lock()

    def health(self) -> dict:
        if self.p.kind != "power_holder":
            return {}
        return {"table_error_ratio": self.error_ratio,
                "off_table_spots": self.off_table}

    def __missing__(self, t: float):
        p, model = self.p, self.model
        table = p.kind == "power_holder" and _holder_table(p, model, t)
        if p.kind in ("binary", "call"):
            v, _ = po._resolve(model, t, greek=True)
            lk = math.log(p.strike)
            fn = lambda x, s, out: po._log_delta(p.kind, x, lk, v, out)
        elif not table:
            fn = lambda x, s, out: po.delta(p, model, t, s)
        else:
            xi, vals, slopes, a, ratio = table
            self.error_ratio = max(self.error_ratio, ratio)
            lookup = _hermite_lookup(xi, vals, slopes, math.log(p.strike), a)
            lo, hi = _log_range(model)

            def fn(x, s, out):
                xc = np.clip(x, lo, hi)
                off = xc != x
                lookup(xc, out)
                if off.any():
                    out[off] = po.delta(p, model, t, s[off])
                    with self._lock:
                        self.off_table += int(np.count_nonzero(off))
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
    Paths whose terminal S all lie within the rounding of exp(ln s0) of
    s0 hedge nothing and raise ``DegeneratePathsError``.
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
    # how far exp(ln s0) rounds from s0: a spot no farther has not moved
    still = (2.0 * np.finfo(float).eps * model.s0
             * (1.0 + abs(math.log(model.s0))))

    def block(start, count):
        s, s_old = np.full(count, model.s0), np.empty(count)
        acc, dvec, ds = np.zeros(count), np.zeros(count), np.empty(count)
        col = 0
        # errstate is per thread: set here; overflowing paths are refused
        with np.errstate(all="ignore"):
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
                        raise ConfigError("a simulated spot underflowed to "
                                          "0: price argument s must be > 0")
                    dvec = dfns[j](x, s, dvec)
            terminal[start:start + count] = po.payoff_eval(p, s) - h0 - acc
        return bool(np.any(np.abs(s - model.s0) > still))

    if not any(map_blocks(block, m, threads=threads)):
        raise DegeneratePathsError("no simulated spot moves from s0: paths "
                                   "at this sigma hedge nothing")
    if not np.all(np.isfinite(terminal)):
        raise SimulationError("a simulated tracking error is not finite: "
                              "the paths overflow a float")
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
    with np.errstate(over="ignore", invalid="ignore"):
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
        g = po._exp_var(model.sigma ** 2 * (b - a))
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
