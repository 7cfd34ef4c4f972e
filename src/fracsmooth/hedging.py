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


#: power-Holder delta tables: uniform nodes v / 8 apart within 16 kernel
#: sds v of ln K, then steps growing by _TABLE_RATIO up to _TABLE_CAP
_TABLE_RATIO = 1.1
_TABLE_CAP = 0.2
#: each zone of the cell finder is _ZONE_RATIO times as wide as the last
_ZONE_RATIO = 4.0
#: a table's estimated error may reach _TABLE_RTOL max(|delta|, 1); it
#: halves its cells at most _TABLE_REFINE times to get there
_TABLE_RTOL = 1e-4
_TABLE_REFINE = 3


def _holder_nodes(p: Payoff, model: MarketModel, t: float):
    """The power-Holder delta table's nodes in x = ln s at time t, and
    the zones of ``_cell_finder``.

    With kernel sd v = sigma sqrt(T - t) and h = min(v / 8, cap), nodes
    lie h apart within 16 v of ln K, where the delta varies on the scale
    v.  Beyond that the delta behaves like |x - ln K|^(theta - 1), so
    the steps grow by ``_TABLE_RATIO`` away from the kink, up to
    ``_TABLE_CAP``, out to both ends of ``_log_range``, which are nodes
    too.  The count is odd, so that every other node is a table of its
    own (``_table_error``).  The zones are ln K +- R for R = 16 v times
    powers of ``_ZONE_RATIO``, until R passes the last growing step.
    """
    v = model.sigma * math.sqrt(po._tau(model, t, greek=True))
    lo, hi = _log_range(model)
    lk = math.log(p.strike)
    h = min(v / 8.0, _TABLE_CAP)
    core = h * np.arange(math.ceil(16.0 * v / h) + 1)
    grow = math.ceil(math.log(_TABLE_CAP / h) / math.log(_TABLE_RATIO))
    steps = np.minimum(h * _TABLE_RATIO ** np.arange(1, grow + 1), _TABLE_CAP)
    graded = core[-1] + np.cumsum(steps)
    edge = graded[-1] if graded.size else core[-1]
    flat = edge + _TABLE_CAP * np.arange(
        1, max(math.ceil((max(hi - lk, lk - lo) - edge) / _TABLE_CAP), 0) + 1)
    u = np.concatenate([core[1:], graded, flat])
    x = np.concatenate([lk - u[::-1], [lk], lk + u])
    # unique: a step below the float spacing at ln K repeats a node
    x = np.unique(np.concatenate([[lo], x[(x > lo) & (x < hi)], [hi]]))
    if x.size % 2 == 0:
        x = np.insert(x, -1, 0.5 * (x[-2] + x[-1]))
    zones = [16.0 * v]
    while zones[-1] < edge:
        zones.append(zones[-1] * _ZONE_RATIO)
    return x, [(lk - r, lk + r) for r in zones]


def _cell_finder(x: np.ndarray, zones):
    """``find(xc)``, the index j with x[j] <= xc < x[j + 1] (the last node
    at xc = x[-1]) for xc in [x[0], x[-1]] and strictly increasing x (at
    least two nodes), at O(1) cost a point.

    Buckets are uniform in g(x) = c (x - x[0]) + sum_k d_k (clip(x, a_k,
    b_k) - a_k) over a prefix of the intervals (a_k, b_k) in ``zones``,
    with c = 8 n / (x[-1] - x[0]) for n nodes and d_k = 8 m_k / (b_k -
    a_k) for the m_k nodes in zone k, so the buckets follow the nodes'
    density in each zone however narrow it is, and the pass count below
    stays small.  Each bucket stores the first node that any xc in it
    can lie on, and a fixed number of passes of ``j += xc >= x[j + 1]``
    then reaches j.  One function computes buckets at build and at run
    time, monotone in x, so the nodes that an xc in bucket k can lie on
    are fixed by the nodes' own buckets: from the last node below bucket
    k (node 0 in bucket 0) to the last node in it.  The first of these
    is stored, and the pass count is the widest such span, with no
    margin to guess.  A zone costs about 4 array operations a point and
    a pass 3, so of the prefixes of ``zones`` the one with the fewest
    operations is used; any zones give the same j.
    """
    lo = x[0]
    c = 8.0 * x.size / (x[-1] - lo)
    # a zone holding every node adds fewer buckets a node than c does
    ramps = [(a, b, 8.0 * np.count_nonzero((x >= a) & (x <= b)) / (b - a))
             for a, b in zones if b > a and (a > lo or b < x[-1])]
    # upper[j] = x[j + 1], with no node to pass beyond the last
    upper = np.append(x[1:], np.inf)

    def bucket(xs, ramps):
        g = np.subtract(xs, lo)
        g *= c
        for a, b, d in ramps:
            z = np.clip(xs, a, b)
            z -= a
            z *= d
            g += z
        return g.astype(np.intp)

    def layout(ramps):
        counts = np.bincount(bucket(x, ramps))
        passes = int(max(counts[0] - 1, counts[1:].max(initial=0)))
        return 4 * len(ramps) + 3 * passes, passes, counts, ramps

    _, passes, counts, ramps = min(
        (layout(ramps[:k]) for k in range(len(ramps) + 1)),
        key=lambda lay: lay[0])
    first = np.maximum(np.cumsum(counts) - counts - 1, 0)

    def find(xc):
        j = first.take(bucket(xc, ramps))
        for _ in range(passes):
            j += xc >= upper.take(j)
        return j

    return find


def _hermite_coefficients(x, vals, slopes):
    """(c1, c2, c3) per cell of the cubic Hermite interpolant of the
    values and x-slopes at nodes x: on [x[j], x[j + 1]] it is
    vals[j] + c1[j] f + c2[j] f^2 + c3[j] f^3 with f = xc - x[j]."""
    h = np.diff(x)
    secant = np.diff(vals) / h
    c2 = (3.0 * secant - 2.0 * slopes[:-1] - slopes[1:]) / h
    c3 = (slopes[:-1] + slopes[1:] - 2.0 * secant) / (h * h)
    return slopes[:-1], c2, c3


def _hermite_lookup(x: np.ndarray, vals: np.ndarray, slopes: np.ndarray,
                    zones):
    """``f(xc, out)``, which writes the cubic Hermite interpolant of
    ``vals`` with x-derivatives ``slopes`` at nodes x into out, for xc in
    [x[0], x[-1]]: the cell from ``_cell_finder``, then four coefficients
    per cell in Horner form (zero but the value at the last node).
    Coefficients that are not all finite raise ``QuadratureError``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coefs = _hermite_coefficients(x, vals, slopes)
    # cells narrower than the check's can still overflow
    if not all(np.isfinite(c).all() for c in coefs):
        raise QuadratureError("the power-Holder delta table's cubic is not "
                              "finite on every cell")
    c1, c2, c3 = (np.append(c, 0.0) for c in coefs)
    find = _cell_finder(x, zones)

    def lookup(xc, out):
        j = find(xc)
        f = np.subtract(xc, x.take(j))
        np.multiply(c3.take(j), f, out=out)
        out += c2.take(j)
        out *= f
        out += c1.take(j)
        out *= f
        out += vals.take(j, out=f)
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


def _delta_slope(p: Payoff, model: MarketModel, t: float, x):
    """The delta at ln-spots x and its x-slope gamma s, from one engine
    call."""
    s = np.exp(x)
    v = po._valuate(p, model, t, s, ("delta", "gamma"))
    return v["delta"], v["gamma"] * s


def _holder_table(p: Payoff, model: MarketModel, t: float):
    """The delta table at t: nodes, deltas, x-slopes, the finder's zones
    and the estimated error over ``_TABLE_RTOL``.

    Delta and gamma come from one engine call, and the x-slope of the
    delta is gamma s.  While the estimate exceeds the tolerance, each
    cell is halved at its midpoint (engine calls only at the new nodes,
    and the old nodes become the every-other table of the check), at
    most ``_TABLE_REFINE`` times; then, or at once for an estimate that
    is not finite, ``QuadratureError`` is raised.
    """
    x, zones = _holder_nodes(p, model, t)
    vals, slopes = _delta_slope(p, model, t, x)
    for level in range(_TABLE_REFINE + 1):
        ratio = _table_error(x, vals, slopes) / _TABLE_RTOL
        if ratio <= 1.0:
            return x, vals, slopes, zones, ratio
        if level == _TABLE_REFINE or not math.isfinite(ratio):
            break
        mid = 0.5 * (x[:-1] + x[1:])
        more = _delta_slope(p, model, t, mid)
        x, vals, slopes = (_interleave(a, b) for a, b in
                           zip((x, vals, slopes), (mid, *more)))
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
    interpolated in x by ``_hermite_lookup`` into ``out``; a spot beyond
    the table is valued by ``payoffs.delta``.  Other payoffs are valued
    at s by ``payoffs.delta``.  Nested nets share their nodes bit for
    bit, so one instance reused across nets builds each time's evaluator
    only once.

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
        if p.kind in ("binary", "call"):
            po._check_sigma(model)
            v = model.sigma * math.sqrt(po._tau(model, t, greek=True))
            lk = math.log(p.strike)
            fn = lambda x, s, out: po._log_delta(p.kind, x, lk, v, out)
        elif p.kind != "power_holder":
            fn = lambda x, s, out: po.delta(p, model, t, s)
        else:
            nodes, vals, slopes, zones, ratio = _holder_table(p, model, t)
            self.error_ratio = max(self.error_ratio, ratio)
            lookup = _hermite_lookup(nodes, vals, slopes, zones)
            lo, hi = nodes[0], nodes[-1]

            def fn(x, s, out):
                xc = np.clip(x, lo, hi)
                lookup(xc, out)
                off = xc != x
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
