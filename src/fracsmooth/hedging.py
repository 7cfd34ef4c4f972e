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

import functools
import math
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


def _log_range(model: MarketModel, drift: float) -> tuple[float, float]:
    """ln-price interval covering paths of log-drift ``drift`` - sigma^2 / 2
    out to 10 sd."""
    mean = math.log(model.s0) + (drift - 0.5 * model.sigma ** 2) * model.T
    span = 10.0 * model.sigma * math.sqrt(model.T)
    return mean - span, mean + span


#: power-Holder delta tables: nodes about _TABLE_STEP apart in
#: xi = asinh((ln s - ln K) / a) with a = v / (8 _TABLE_STEP), so cells
#: are v / 8 wide at the kink and widen by e^_TABLE_STEP a cell beyond
_TABLE_STEP = 0.05
#: a table's estimated error may reach _TABLE_RTOL max(|delta|, 1); it
#: halves its cells at most _TABLE_REFINE times to get there
_TABLE_RTOL = 1e-4
_TABLE_REFINE = 3


def _holder_nodes(p: Payoff, model: MarketModel, t: float, drift: float):
    """The power-Holder delta table's nodes xi at time t, and its a, for
    paths simulated with ``drift``.

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
    lo, hi = (math.asinh((x - lk) / a) for x in _log_range(model, drift))
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


def _holder_table(p: Payoff, model: MarketModel, t: float, drift: float):
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
    xi, a = _holder_nodes(p, model, t, drift)
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


def _delta_evaluator(p: Payoff, model: MarketModel, drift: float,
                     t: float):
    """``(fn, ratio)``: the risk-neutral delta evaluator at t for paths of
    log-drift ``drift`` - sigma^2/2, and its table's estimated error over
    ``_TABLE_RTOL`` (0 with no table).  ``fn(x, s, out)`` writes into out
    the deltas at ln-spots x = ln s and returns how many it valued beyond
    its table.

    Every closed-form delta comes from x by ``payoffs._log_delta``, with
    t and the volatility checked once, here.  The power-Holder delta is
    ``_holder_table``'s, interpolated by ``_hermite_lookup``; a spot
    beyond the table's ``_log_range``, which spans the paths of ``drift``
    alone, and every spot of the chaos payoff or of a t with no table, is
    valued at s by ``payoffs.delta``.
    """
    if p.closed_form:
        v, _ = po._resolve(model, t, greek=True)
        def fn(x, s, out):
            po._log_delta(p, x, v, out)
            return 0
        return fn, 0.0
    table = p.kind == "power_holder" and _holder_table(p, model, t, drift)
    if not table:
        def fn(x, s, out):
            out[...] = po.delta(p, model, t, s)
            return 0
        return fn, 0.0
    xi, vals, slopes, a, ratio = table
    lookup = _hermite_lookup(xi, vals, slopes, math.log(p.strike), a)
    lo, hi = _log_range(model, drift)

    def fn(x, s, out):
        xc = np.clip(x, lo, hi)
        off = xc != x
        lookup(xc, out)
        n = int(np.count_nonzero(off))
        if n:
            out[off] = po.delta(p, model, t, s[off])
        return n
    return fn, ratio


def _check_maturity(model: MarketModel, nets) -> None:
    if any(abs(net.T - model.T) > 1e-12 for net in nets):
        raise ConfigError("net maturity must match the model maturity")


def _run(p: Payoff, model: MarketModel, measure: str, nets, m: int,
         seed: int, eval_times, threads: int, reduce):
    """Simulate the hedges of ``nets`` on one walk of m paths, and hand
    each path block's errors to ``reduce``: per net, in the order of
    ``nets``, the list in block order of ``reduce(errors, values)``, and
    the evaluators' health, which for the power-Holder payoff alone holds
    the worst ``table_error_ratio`` and the blocks' sum of
    ``off_table_spots``.

    The walk steps ln S on the union of the nets' nodes and
    ``eval_times`` for the m paths of ``seed``, under the drift of
    ``measure``, and every net reads all m paths (``model.map_blocks``
    refuses m < 1).  Each path block reads x = ln S from ``model._walk``
    and takes one exp per step into a preallocated S.  At each node where
    nets rebalance, the node's ``_delta_evaluator``, built before the
    walk, writes the delta into the first holder's buffer (from x for
    every closed-form payoff), and every other holder copies it.  Each
    net keeps its own accumulator, the S at its last node or eval time
    and the delta it holds; at each of its nodes and eval times it adds
    the change of S since the last one, times that delta, to its gains.
    At the end of the block each accumulator becomes, in place, the net's
    per-path C_T, which ``reduce`` receives with the block's
    ``(count, eval_times.size)`` C_t (None without ``eval_times``) and may
    overwrite.  So a run holds O(nets x block) memory of its own, and
    whatever the reductions keep.  A single net is the one-element case,
    so the finest of nested nets, whose nodes are the union, gets the
    bits of a run of its own.  The block layout depends on m alone, so
    the results are the same at any thread count.  Paths whose terminal S
    all lie within the rounding of exp(ln s0) of s0 hedge nothing and
    raise ``DegeneratePathsError``; otherwise a block whose C_T are not
    all finite, which it does not reduce, raises ``SimulationError``.
    """
    drift = model.drift(measure)
    _check_maturity(model, nets)
    if eval_times is None:
        ev = np.empty(0)
    else:
        ev = _check_grid(model, eval_times)
        if ev[-1] >= model.T:
            raise ConfigError("eval_times must lie in [0, T)")
    grid = functools.reduce(np.union1d, (net.nodes for net in nets), ev)
    nt = grid.size
    is_eval = np.isin(grid, ev)
    is_node = [np.isin(grid, net.nodes) for net in nets]
    # per step j: the nets that rebalance there (the last node T never
    # needs a delta), and the nets that book their gains there
    holders = [[k for k, on in enumerate(is_node) if on[j] and j < nt - 1]
               for j in range(nt)]
    stops = [[k for k, on in enumerate(is_node) if on[j] or is_eval[j]]
             for j in range(nt)]

    h0 = po.price(p, model, 0.0, model.s0)
    # risk-neutral delta evaluators at every rebalancing time of a net,
    # with their tables' error ratios
    dfns = {j: _delta_evaluator(p, model, drift, grid[j])
            for j in range(nt) if holders[j]}
    # how far exp(ln s0) rounds from s0: a spot no farther has not moved
    still = (2.0 * np.finfo(float).eps * model.s0
             * (1.0 + abs(math.log(model.s0))))

    def block(start, count):
        s, ds = np.full(count, model.s0), np.empty(count)
        last = [np.full(count, model.s0) for _ in nets]
        acc = [np.zeros(count) for _ in nets]
        held = [np.zeros(count) for _ in nets]
        proc = [np.empty((count, ev.size)) if ev.size else None
                for _ in nets]
        col, off = 0, 0
        # errstate is per thread: set here; overflowing paths are refused
        with np.errstate(all="ignore"):
            for j, x in _walk(model, grid, seed, start, count, drift):
                if j > 0:
                    np.exp(x, out=s)
                    for k in stops[j]:
                        d = np.subtract(s, last[k], out=ds)
                        d *= held[k]
                        acc[k] += d
                        last[k][...] = s
                if is_eval[j]:
                    v = po.price(p, model, grid[j], s) - h0
                    for values, gains in zip(proc, acc):
                        values[:, col] = v - gains
                    col += 1
                if holders[j]:
                    first, *rest = holders[j]
                    # the evaluators read x, which stays finite where S
                    # underflows, so a zero spot is rejected here
                    if not s.all():
                        raise ConfigError("a simulated spot underflowed to "
                                          "0: price argument s must be > 0")
                    off += dfns[j][0](x, s, held[first])
                    for k in rest:
                        held[k][...] = held[first]
            pay = po.payoff_eval(p, s) - h0
            for gains in acc:
                np.subtract(pay, gains, out=gains)
            moved = bool(np.any(np.abs(s - model.s0) > still))
            if not all(np.isfinite(errors).all() for errors in acc):
                return moved, off, None
            return moved, off, [reduce(errors, values)
                                for errors, values in zip(acc, proc)]

    blocks = map_blocks(block, m, threads=threads)
    if not any(moved for moved, _, _ in blocks):
        raise DegeneratePathsError("no simulated spot moves from s0: "
                                   "paths at this sigma hedge nothing")
    if any(done is None for _, _, done in blocks):
        raise SimulationError("a simulated tracking error is not "
                              "finite: the paths overflow a float")
    health = {} if p.kind != "power_holder" else {
        "table_error_ratio": max([0.0, *(r for _, r in dfns.values())]),
        "off_table_spots": sum(off for _, off, _ in blocks)}
    return list(zip(*(done for _, _, done in blocks))), health


def _samples(p: Payoff, model: MarketModel, measure: str, net: TimeNet,
             m: int, seed: int, eval_times, threads: int):
    """The ``TrackingErrorSample`` of one net: the blocks' rows, joined."""
    (rows,), _ = _run(p, model, measure, [net], m, seed, eval_times,
                      threads, lambda errors, values: (errors, values))
    errors, values = zip(*rows)
    return TrackingErrorSample(
        terminal_errors=np.concatenate(errors),
        process_values=None if eval_times is None else np.concatenate(values))


def tracking_error_terminal(p: Payoff, model: MarketModel, net: TimeNet,
                            m: int, seed: int, measure: str = "martingale",
                            threads: int = 1) -> TrackingErrorSample:
    """Per-path terminal tracking errors C_T on the given net."""
    return _samples(p, model, measure, net, m, seed, None, threads)


def tracking_error_process(p: Payoff, model: MarketModel, net: TimeNet,
                           m: int, seed: int, eval_times,
                           measure: str = "martingale",
                           threads: int = 1) -> TrackingErrorSample:
    """Tracking error process C_t on eval_times.

    ``eval_times`` must be finite, strictly increasing and in [0, T);
    column k of ``process_values`` holds C at ``eval_times[k]``.
    """
    return _samples(p, model, measure, net, m, seed, eval_times, threads)


def _moments(errors, values):
    """(count, mean, M2) of one block's squared C_T, with M2 the sum of
    squared deviations from the block's mean; ``errors`` is overwritten.
    Plain sums: a dot product would start OpenBLAS's own threads."""
    sq = np.square(errors, out=errors)
    mean = float(sq.mean())
    sq -= mean
    return sq.size, mean, float(np.square(sq, out=sq).sum())


def _merge(a, b):
    """The (count, mean, M2) of two samples joined, from theirs: the
    pairwise update of Chan, Golub & LeVeque."""
    na, ma, qa = a
    nb, mb, qb = b
    n, d = na + nb, mb - ma
    return n, ma + d * nb / n, qa + qb + d * d * (na * nb / n)


def _l2_estimates(p: Payoff, model: MarketModel, measure: str, nets,
                  m: int, seed: int, threads: int):
    """One ``L2ErrorEstimate`` per net of ``nets``, from one walk of m
    paths, and the health of its delta evaluators (``_run``).

    Each path block reduces a net's squared C_T to ``_moments``, and the
    blocks merge in block order (``_merge``), so no net ever holds an
    m-sized array: a sweep's memory is O(nets x block), whatever m is.
    The mean square is the merged mean, and its standard error
    sqrt(M2 / (m - 1)) / sqrt(m).  Moments that overflow a float are
    refused by ``L2ErrorEstimate``.
    """
    if m < 2:
        raise ConfigError("need m >= 2 paths for a standard error")
    moments, health = _run(p, model, measure, nets, m, seed, None, threads,
                           _moments)
    out = []
    for net, parts in zip(nets, moments):
        _, msq, m2 = functools.reduce(_merge, parts)
        out.append(L2ErrorEstimate(n=net.n, l2_error=math.sqrt(msq),
                                   stderr=math.sqrt(m2 / (m - 1))
                                   / math.sqrt(m), m=m))
    return out, health


def l2_tracking_error(p: Payoff, model: MarketModel, net: TimeNet, m: int,
                      seed: int, measure: str = "martingale",
                      threads: int = 1) -> L2ErrorEstimate:
    """|| C_T ||_{L2} with the standard error of the mean square."""
    return _l2_estimates(p, model, measure, [net], m, seed, threads)[0][0]


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
    _check_maturity(model, [net])
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
