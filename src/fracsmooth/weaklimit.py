"""Weak-limit diagnostics for the rescaled terminal tracking error.

The rescaled error sqrt(n) C_1 converges (for suitable nets) to a mixed
normal sqrt(A) xi, where the clock

    A = int_0^1 (1-t)^(1-theta) / (2 theta) * (S_t^2 d2H/ds2)^2 dt

is simulated pathwise with a time grid geometric in 1-t, and xi is an
independent standard normal drawn from a separate RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from ._output import write_csv
from .errors import ConfigError
from .model import (MarketModel, STREAM_AUX, gaussian_increments,
                    map_blocks, simulate_gbm)
from .payoffs import Payoff

__all__ = [
    "ClockSample",
    "clock_A",
    "mixed_normal_sample",
    "ks_distance",
    "clock_to_csv",
]

#: octaves of 1 - t simulated by clock_A before the tail extrapolation
_CLOCK_DEPTH = 24


@dataclass(frozen=True)
class ClockSample:
    A_values: np.ndarray
    flagged_fraction: float


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
    paths = simulate_gbm(model, times, m, seed, measure="martingale",
                         threads=threads)
    wt = w * (1.0 - times) ** (1.0 - theta) / (2.0 * theta)
    inc = np.zeros((m, _CLOCK_DEPTH))
    for k, t in enumerate(times):
        s = paths[:, k]
        g = np.asarray(po.gamma(p, model, float(t), s))
        inc[:, octv[k]] += wt[k] * (s * s * g) ** 2
    last, prev = inc[:, -1], inc[:, -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(prev > 0.0, last / prev, 0.0)
    flagged = float(np.mean((r >= 1.0) & (last > 0.0)))
    r = np.clip(r, 0.0, 0.95)
    tail = last * r / (1.0 - r)
    a = inc.sum(axis=1) + tail
    return ClockSample(A_values=a, flagged_fraction=flagged)


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


def clock_to_csv(path, clock: ClockSample, header_lines=()) -> None:
    """CSV rows (path_id, A), after optional # comments."""
    write_csv(path, header_lines, ["path_id", "A"],
              ([i, repr(float(a))] for i, a in enumerate(clock.A_values)))
