"""Market model and reproducible geometric Brownian motion simulation.

Random numbers come from a counter-based Philox stream keyed by
``(seed, stream, step)``; the path index selects the position inside the
stream.  Blocks of paths can therefore be simulated independently (and in
parallel) while producing bit-identical output for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import ConfigError, SimulationError

__all__ = [
    "MarketModel",
    "PathBatch",
    "simulate_gbm",
    "gaussian_increments",
    "child_seed",
    "map_blocks",
    "BLOCK_PATHS",
]

#: paths per work block; multiple of 4 so blocks align with Philox counters
BLOCK_PATHS = 1 << 15

#: sub-stream tags for statistically independent draws under one seed
STREAM_PATHS = 0
STREAM_AUX = 1

_SIGMA_DEGENERATE = 1e-100


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
        if self.T <= 0.0:
            raise ConfigError("MarketModel.T must be > 0")

    def drift(self, measure: str) -> float:
        if measure == "martingale":
            return 0.0
        if measure == "historical":
            return self.mu
        raise ConfigError(f"unknown measure tag {measure!r}")


@dataclass(frozen=True)
class PathBatch:
    """Simulated values on a time grid, with the seed that produced them."""

    times: np.ndarray
    values: np.ndarray          # shape (m, len(times)), path-major
    seed: int
    measure: str

    @property
    def m(self) -> int:
        return self.values.shape[0]


def child_seed(master: int, tag: int) -> int:
    """Derive a decorrelated 64-bit seed from (master, tag), splitmix-style."""
    z = (master * 0x9E3779B97F4A7C15 + tag * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def gaussian_increments(seed: int, step: int, start: int, count: int,
                        stream: int = STREAM_PATHS) -> np.ndarray:
    """Standard normals for paths ``start..start+count`` at one time step.

    ``start`` must be a multiple of 4 (a Philox counter boundary) so that
    any block decomposition reproduces the single-stream output.
    """
    if start % 4:
        raise SimulationError("path offset must be a multiple of 4")
    key = np.array([seed, (stream << 48) | step], dtype=np.uint64)
    bg = Philox(key=key)
    if start:
        bg.advance(start // 4)
    u = Generator(bg).random(count)
    np.maximum(u, 2.0 ** -60, out=u)
    return ndtri(u)


def map_blocks(fn, m: int, threads: int = 1) -> list:
    """Apply ``fn(start, count)`` over fixed-size path blocks, in order.

    The block layout never depends on ``threads``, so any parallel run
    reproduces the serial result bit for bit.
    """
    if threads < 1:
        raise ConfigError("thread count must be >= 1")
    spans = [(s, min(BLOCK_PATHS, m - s)) for s in range(0, m, BLOCK_PATHS)]
    if threads <= 1 or len(spans) == 1:
        return [fn(s, c) for s, c in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
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


def simulate_gbm(model: MarketModel, times, m: int, seed: int,
                 measure: str = "martingale", threads: int = 1) -> PathBatch:
    """Exact lognormal path simulation on an arbitrary increasing grid."""
    times = _check_grid(model, times)
    if m < 1:
        raise ConfigError("path count m must be >= 1")
    drift = model.drift(measure)
    sigma = model.sigma
    degenerate = sigma < _SIGMA_DEGENERATE

    nt = times.size
    out = np.empty((m, nt))

    def block(start, count):
        x = np.full(count, math.log(model.s0))
        if times[0] > 0.0:
            x += _log_step(0.0, times[0], 0, seed, start, count, drift, sigma, degenerate)
        out[start:start + count, 0] = np.exp(x)
        for j in range(1, nt):
            x += _log_step(times[j - 1], times[j], j, seed, start, count,
                           drift, sigma, degenerate)
            out[start:start + count, j] = np.exp(x)
        return None

    map_blocks(block, m, threads=threads)
    return PathBatch(times=times, values=out, seed=seed, measure=measure)


def _log_step(t0, t1, step, seed, start, count, drift, sigma, degenerate):
    dt = t1 - t0
    if degenerate:
        return np.full(count, drift * dt)
    z = gaussian_increments(seed, step, start, count)
    return sigma * math.sqrt(dt) * z + (drift - 0.5 * sigma * sigma) * dt
