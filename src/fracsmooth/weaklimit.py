"""Weak-limit diagnostics for the rescaled terminal tracking error.

The rescaled error sqrt(n) C_1 converges (for suitable nets) to a mixed
normal sqrt(A) xi, where the clock

    A = int_0^1 (1-t)^(1-theta) / (2 theta) * (S_t^2 d2H/ds2)^2 dt

is simulated pathwise on Gauss-Legendre nodes per octave of 1-t, each
path block adding its octave increments as it walks ln S, with no path
matrix; xi is an independent normal from a separate RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from ._output import write_csv
from .errors import ConfigError, SimulationError
from .model import (MarketModel, STREAM_AUX, _walk, gaussian_increments,
                    map_blocks)
from .payoffs import Payoff
from .quadrature import legendre_panels

__all__ = [
    "ClockSample",
    "clock_A",
    "mixed_normal_sample",
    "ks_distance",
    "clock_to_csv",
]

#: octaves of 1 - t simulated by clock_A before the tail extrapolation,
#: and the Gauss-Legendre order in each
_CLOCK_DEPTH = 24
_CLOCK_ORDER = 4


@dataclass(frozen=True)
class ClockSample:
    A_values: np.ndarray
    flagged_fraction: float


def _clock_grid(order: int):
    """Gauss-Legendre nodes per octave of 1-t in increasing t, their
    weights, and the octave j of u = 1-t in [2^-j-1, 2^-j] of each."""
    # panels in increasing u, so the reversed nodes increase in t
    u, w = legendre_panels(np.ldexp(1.0, np.arange(-_CLOCK_DEPTH, 1)),
                           order)
    return (1.0 - u.ravel()[::-1], w.ravel()[::-1],
            np.repeat(np.arange(_CLOCK_DEPTH), order))


def clock_A(p: Payoff, model: MarketModel, theta: float, m: int, seed: int,
            threads: int = 1) -> ClockSample:
    """Simulate the clock integral per path, with an extrapolated tail.

    Each path block walks ln S over the grid on the thread pool and adds
    every node's weighted (S^2 gamma)^2 to that node's octave.
    Octave contributions toward t=1 are extrapolated geometrically; paths
    whose last two octave increments fail to decay are flagged (their
    tails use the maximal admissible ratio) and the fraction is reported.
    """
    if abs(model.T - 1.0) > 1e-12:
        raise ConfigError("clock simulation requires the T=1 normalization")
    if not (0.0 < theta <= 1.0):
        raise ConfigError("theta must lie in (0, 1]")
    if m < 1:
        raise ConfigError("path count m must be >= 1")
    times, w, octv = _clock_grid(_CLOCK_ORDER)

    def block(start, count):
        inc = np.zeros((count, _CLOCK_DEPTH))
        # errstate is per thread: set again here, on the pool thread
        with np.errstate(all="ignore"):
            for k, x in _walk(model, times, seed, start, count, 0.0):
                s = np.exp(x)
                g = np.asarray(po.gamma(p, model, float(times[k]), s))
                inc[:, octv[k]] += wt[k] * (s * s * g) ** 2
        return inc

    # an A that is not finite (as at theta near 0) is refused below
    with np.errstate(all="ignore"):
        wt = w * (1.0 - times) ** (1.0 - theta) / (2.0 * theta)
        inc = np.concatenate(map_blocks(block, m, threads=threads))
        last, prev = inc[:, -1], inc[:, -2]
        r = np.where(prev > 0.0, last / prev, 0.0)
        flagged = float(np.mean((r >= 1.0) & (last > 0.0)))
        r = np.clip(r, 0.0, 0.95)
        a = inc.sum(axis=1) + last * r / (1.0 - r)
    if not np.all(np.isfinite(a)):
        raise SimulationError("the clock values A are not all finite")
    return ClockSample(A_values=a, flagged_fraction=flagged)


def mixed_normal_sample(clock: ClockSample, seed: int) -> np.ndarray:
    """sqrt(A) xi with xi standard normal from a disjoint RNG stream."""
    a = clock.A_values
    return np.sqrt(a) * gaussian_increments(seed, 0, 0, a.size, STREAM_AUX)


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
