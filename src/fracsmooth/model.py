"""Market model and reproducible geometric Brownian motion simulation.

Random numbers come from one SFC64 stream per ``(seed, stream, step,
start)``, drawn as normals by numpy's ziggurat: each block of paths
has its own stream at each step, so blocks run independently (and in
parallel) with bit-identical output for any worker count.
``map_blocks`` splits m paths into the smallest even number of blocks
of at most ``BLOCK_PATHS`` paths, sizes differing by at most 1, a layout
that depends on m alone, so two workers get equal shares of every Monte
Carlo run.  ``_walk`` is the one stepping of ln S in a block, and of
its callers only ``simulate_gbm`` stores paths.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .errors import ConfigError

__all__ = [
    "MarketModel",
    "simulate_gbm",
    "gaussian_increments",
    "child_seed",
    "map_blocks",
    "BLOCK_PATHS",
]

#: most paths per work block.  Blocks of 4,096 paths ran 2x slower from
#: per-call overhead, and at 8,192 two threads spend 23% more CPU on
#: interpreter-lock handoffs
BLOCK_PATHS = 1 << 15

#: sub-stream tags for statistically independent draws under one seed
STREAM_PATHS = 0
STREAM_AUX = 1


@dataclass(frozen=True)
class MarketModel:
    """One-dimensional GBM: spot, volatility, real-world drift, maturity.

    Pricing always uses the zero-drift martingale dynamics; ``mu`` only
    enters historical-measure path simulation.
    """

    s0: float
    sigma: float
    mu: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        for name in ("s0", "sigma", "mu", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"MarketModel.{name} must be finite")
        if self.s0 <= 0.0:
            raise ConfigError("MarketModel.s0 must be > 0")
        if self.sigma <= 0.0:
            raise ConfigError("MarketModel.sigma must be > 0")
        # sigma ** 2 raises OverflowError above sqrt(float max) ~ 1.34e154
        if math.isinf(self.sigma * self.sigma):
            raise ConfigError("MarketModel.sigma squared overflows a float")
        if self.T <= 0.0:
            raise ConfigError("MarketModel.T must be > 0")

    def drift(self, measure: str) -> float:
        if measure == "martingale":
            return 0.0
        if measure == "historical":
            return self.mu
        raise ConfigError(f"unknown measure tag {measure!r}")


def child_seed(master: int, tag: int) -> int:
    """Derive a decorrelated 64-bit seed from (master, tag), splitmix-style."""
    z = (master * 0x9E3779B97F4A7C15 + tag * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def gaussian_increments(seed: int, step: int, start: int, count: int,
                        stream: int = STREAM_PATHS, out=None) -> np.ndarray:
    """Standard normals for the block of ``count`` paths from ``start``
    at one time step, into ``out`` when given: the first ``count`` of
    the ziggurat stream of SFC64 seeded by ``(seed, stream, step, start)``.
    """
    gen = Generator(SFC64(SeedSequence([seed, stream, step, start])))
    return gen.standard_normal(count, out=out)


def _usable_cores() -> int:
    """Cores this process may run on (the affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, m: int, threads: int = 1) -> list:
    """Apply ``fn(start, count)`` over the path blocks of m paths, in order.

    The blocks are the smallest even number (one for m = 1) of at most
    ``BLOCK_PATHS`` paths each, with sizes that differ by at most 1.  The
    layout depends on m alone, never on ``threads``, so any parallel run
    reproduces the serial result bit for bit.  Equal blocks in an even
    number keep both of two workers busy to the end: full-size blocks
    and a short last one would take 160,000 paths in three rounds of
    32,768 on two workers, where six blocks of 26,666 or 26,667 take
    2 x 80,000.
    The pool has ``min(threads, usable cores)`` workers: more threads
    than cores only trade the interpreter lock back and forth (at
    threads 8 on 2 cores a power-Holder sweep took 17.8 s wall and
    30.1 s CPU, against 14.3 s and 25.3 s at threads 2).
    """
    if m < 1:
        raise ConfigError("path count m must be >= 1")
    if threads < 1:
        raise ConfigError("thread count must be >= 1")
    nb = 2 * -(-m // (2 * BLOCK_PATHS)) if m > 1 else 1
    q, r = divmod(m, nb)
    spans = [(i * q + min(i, r), q + (i < r)) for i in range(nb)]
    workers = min(threads, _usable_cores())
    if workers <= 1 or len(spans) == 1:
        return [fn(s, c) for s, c in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda sc: fn(*sc), spans))


def _check_grid(model: MarketModel, times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ConfigError("time grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ConfigError("time grid contains non-finite entries")
    if np.any(np.diff(times) <= 0.0):
        raise ConfigError("time grid must be strictly increasing")
    if times[0] < 0.0 or times[-1] > model.T * (1 + 1e-12):
        raise ConfigError("time grid must lie within [0, T]")
    return times


def _walk(model: MarketModel, times: np.ndarray, seed: int, start: int,
          count: int, drift: float):
    """Yield ``(j, x)`` with x = ln S at ``times[j]`` for paths from
    ``start``: one buffer from ln s0, moved in place by step j's draws
    where ``times[j] > 0``.  Read x before asking for the next step."""
    sigma = model.sigma
    x = np.full(count, math.log(model.s0))
    z = np.empty(count)
    t0 = 0.0
    for j, t in enumerate(times):
        if t > 0.0:
            gaussian_increments(seed, j, start, count, out=z)
            z *= sigma * math.sqrt(t - t0)
            z += (drift - 0.5 * sigma * sigma) * (t - t0)
            x += z
        t0 = t
        yield j, x


def simulate_gbm(model: MarketModel, times, m: int, seed: int,
                 measure: str = "martingale", threads: int = 1) -> np.ndarray:
    """Exact lognormal path simulation on an arbitrary increasing grid.

    Returns the simulated values as an ``(m, len(times))`` array, one row
    per path.
    """
    times = _check_grid(model, times)
    drift = model.drift(measure)

    def block(start, count):
        out = np.empty((count, times.size))
        for j, x in _walk(model, times, seed, start, count, drift):
            out[:, j] = np.exp(x)
        return out

    return np.concatenate(map_blocks(block, m, threads=threads))
