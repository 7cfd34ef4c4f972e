"""Weak-limit diagnostics for the rescaled terminal tracking error.

The rescaled error sqrt(n) C_1 converges (for suitable nets) to a mixed
normal sqrt(A) xi, where the clock

    A = int_0^1 (1-t)^(1-theta) / (2 theta) * (S_t^2 d2H/ds2)^2 dt

is simulated pathwise with a time grid geometric in 1-t, and xi is an
independent standard normal drawn from a separate RNG stream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import ConfigError
from .model import (MarketModel, STREAM_AUX, gaussian_increments,
                    map_blocks, simulate_gbm)
from .payoffs import Payoff

__all__ = [
    "ClockSample",
    "clock_A",
    "mixed_normal_sample",
    "ks_distance",
    "apply_A_operator",
    "lp_bound_curve",
    "clock_to_csv",
]

#: octaves of 1 - t simulated by clock_A before the tail extrapolation
_CLOCK_DEPTH = 24
#: lp_bound_curve's base grid 1 - 2^-j, j = 1.._LP_DEPTH, and the path
#: batches behind its standard error
_LP_DEPTH = 20
_LP_BATCHES = 10


@dataclass(frozen=True)
class ClockSample:
    payoff: Payoff
    model: MarketModel
    theta: float
    A_values: np.ndarray
    flagged_fraction: float
    time_order: int
    seed: int


def _clock_grid(time_order: int):
    """Gauss-Legendre nodes per octave of 1-t, plus octave assignments."""
    gx, gw = np.polynomial.legendre.leggauss(time_order)
    times, weights, octave = [], [], []
    for j in range(_CLOCK_DEPTH):
        hi, lo = 2.0 ** -j, 2.0 ** -(j + 1)     # interval of u = 1-t
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
        w = np.full_like(u, 0.5 * (hi - lo)) * gw
        times.extend(1.0 - u)
        weights.extend(w)
        octave.extend([j] * len(u))
    order = np.argsort(times)
    return (np.asarray(times)[order], np.asarray(weights)[order],
            np.asarray(octave)[order])


def clock_A(p: Payoff, model: MarketModel, theta: float, m: int, seed: int,
            time_order: int = 4, threads: int = 1) -> ClockSample:
    """Simulate the clock integral per path, with an extrapolated tail.

    Octave contributions toward t=1 are extrapolated geometrically; paths
    whose last two octave increments fail to decay are flagged (their
    tails use the maximal admissible ratio) and the fraction is reported.
    """
    if abs(model.T - 1.0) > 1e-12:
        raise ConfigError("clock simulation requires the T=1 normalization")
    if not (0.0 < theta <= 1.0):
        raise ConfigError("theta must lie in (0, 1]")
    times, w, octv = _clock_grid(time_order)
    batch = simulate_gbm(model, times, m, seed, measure="martingale",
                         threads=threads)
    wt = w * (1.0 - times) ** (1.0 - theta) / (2.0 * theta)
    inc = np.zeros((m, _CLOCK_DEPTH))
    for k, t in enumerate(times):
        s = batch.values[:, k]
        g = np.asarray(po.gamma(p, model, float(t), s))
        inc[:, octv[k]] += wt[k] * (s * s * g) ** 2
    last, prev = inc[:, -1], inc[:, -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(prev > 0.0, last / prev, 0.0)
    flagged = float(np.mean((r >= 1.0) & (last > 0.0)))
    r = np.clip(r, 0.0, 0.95)
    tail = last * r / (1.0 - r)
    a = inc.sum(axis=1) + tail
    return ClockSample(payoff=p, model=model, theta=theta, A_values=a,
                       flagged_fraction=flagged, time_order=time_order,
                       seed=seed)


def mixed_normal_sample(clock: ClockSample, seed: int) -> np.ndarray:
    """sqrt(A) xi with xi standard normal from a disjoint RNG stream."""
    m = clock.A_values.size
    out = np.empty(m)

    def block(start, count):
        out[start:start + count] = gaussian_increments(
            seed, 0, start, count, stream=STREAM_AUX)

    map_blocks(block, m)
    return np.sqrt(clock.A_values) * out


def ks_distance(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic by merge-scan."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ConfigError("KS distance needs non-empty samples")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def apply_A_operator(p: Payoff, model: MarketModel, t: float, s):
    """(AH)(t, s) = s dH/ds - H; annihilates payoffs linear in s."""
    return (np.asarray(s) * np.asarray(po.delta(p, model, t, s))
            - np.asarray(po.price(p, model, t, s)))


def lp_bound_curve(p: Payoff, model: MarketModel, theta: float,
                   p_norm: float, t_grid, m: int, seed: int,
                   threads: int = 1):
    """MC curve of || D_t ||_{L_p} over t_grid, with a boundedness verdict.

    D_t = (1-theta)/2 int_0^t (1-u)^(-(1+theta)/2) [AH(u, S_u) - AH(0, s0)]
    du + (AH(t, S_t) - AH(0, s0)) (1-t)^((1-theta)/2) by the trapezoid rule;
    theta = 1 gives the increment AH(t, S_t) - AH(0, s0) itself.  Returns
    ``(t_grid, norms, stderr, verdict, heavy)``: verdict is "bounded" when
    the curve stabilizes toward t -> 1, and ``heavy`` is set when batch
    estimates disagree by more than 50%.
    """
    if p_norm < 2.0:
        raise ConfigError("p_norm must be >= 2")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= 1.0):
        raise ConfigError("t_grid must lie in [0, 1)")
    base = 1.0 - 2.0 ** -np.arange(1, _LP_DEPTH + 1, dtype=float)
    times = np.union1d(np.union1d(base, t_grid), np.array([0.0]))
    times = times[times < 1.0]
    sim_times = times[times > 0.0]
    batch = simulate_gbm(model, sim_times, m, seed, measure="martingale",
                         threads=threads)
    vals = np.concatenate(
        [np.full((m, 1), model.s0), batch.values], axis=1)

    ah0 = float(apply_A_operator(p, model, 0.0, model.s0))
    ah = np.empty_like(vals)
    for k, t in enumerate(times):
        ah[:, k] = np.asarray(
            apply_A_operator(p, model, float(t), vals[:, k])) - ah0
    wgt = (1.0 - times) ** (-(1.0 + theta) / 2.0) if theta < 1.0 else None

    norms = np.empty_like(t_grid)
    errs = np.empty_like(t_grid)
    heavy = False
    split = np.array_split(np.arange(m), _LP_BATCHES)
    for i, t in enumerate(t_grid):
        idx = int(np.searchsorted(times, t))
        if theta == 1.0:
            d = ah[:, idx]
        else:
            integ = wgt[:idx + 1] * ah[:, :idx + 1]
            body = (1.0 - theta) / 2.0 * np.trapezoid(
                integ, times[:idx + 1], axis=1)
            d = body + ah[:, idx] * (1.0 - t) ** ((1.0 - theta) / 2.0)
        mom = np.abs(d) ** p_norm
        norms[i] = float(mom.mean()) ** (1.0 / p_norm)
        bvals = np.array([float(mom[ix].mean()) ** (1.0 / p_norm)
                          for ix in split])
        errs[i] = float(bvals.std(ddof=1)) / math.sqrt(_LP_BATCHES)
        if bvals.max() > 1.5 * max(bvals.min(), 1e-300):
            heavy = True
    # the squared curve of a martingale is increasing; it converges iff
    # its increments decay geometrically along the octave grid, which is
    # read off from the ratio of two trailing increment windows
    q = norms ** 2
    inc = np.diff(q)
    win = max(len(inc) // 3, 1)
    recent, before = inc[-win:].sum(), inc[-2 * win:-win].sum()
    verdict = ("bounded"
               if before > 0.0 and recent < 0.8 * before else "unbounded")
    return t_grid, norms, errs, verdict, heavy


def clock_to_csv(path, clock: ClockSample, header_lines=()) -> None:
    """CSV rows (path_id, A), after optional # comments."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(["path_id", "A"])
        for i, a in enumerate(clock.A_values):
            w.writerow([i, repr(float(a))])
