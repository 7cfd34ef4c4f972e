import concurrent.futures
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import model as model_mod
from fracsmooth.errors import ConfigError, SimulationError
from fracsmooth.model import (BLOCK_PATHS, MarketModel, STREAM_AUX, _walk,
                              child_seed, gaussian_increments, map_blocks,
                              simulate_gbm)


def test_model_validation():
    MarketModel(s0=1.0, sigma=0.2, mu=0.05, T=2.0)
    with pytest.raises(ConfigError):
        MarketModel(s0=-1.0, sigma=0.2)
    with pytest.raises(ConfigError):
        MarketModel(s0=1.0, sigma=0.0)
    with pytest.raises(ConfigError):
        MarketModel(s0=1.0, sigma=0.2, T=0.0)
    with pytest.raises(ConfigError):
        MarketModel(s0=1.0, sigma=math.inf)
    # the largest sigma accepted is the largest whose square is finite
    top = math.sqrt(sys.float_info.max)
    assert MarketModel(s0=1.0, sigma=top).sigma ** 2 < math.inf
    with pytest.raises(ConfigError, match="squared overflows"):
        MarketModel(s0=1.0, sigma=math.nextafter(top, math.inf))


def test_drift_select():
    m = MarketModel(s0=1.0, sigma=0.3, mu=0.07)
    assert m.drift("martingale") == 0.0
    assert m.drift("historical") == 0.07
    with pytest.raises(ConfigError):
        m.drift("risk-neutral")


def test_child_seed_spread():
    seeds = {child_seed(42, tag) for tag in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert child_seed(42, 7) != child_seed(43, 7)


def test_gaussian_increments_block_decomposition():
    whole = gaussian_increments(9, 3, 0, 64)
    parts = np.concatenate([gaussian_increments(9, 3, 0, 16),
                            gaussian_increments(9, 3, 16, 32),
                            gaussian_increments(9, 3, 48, 16)])
    np.testing.assert_array_equal(whole, parts)


def test_gaussian_increments_streams_and_steps_differ():
    a = gaussian_increments(9, 0, 0, 32)
    b = gaussian_increments(9, 1, 0, 32)
    c = gaussian_increments(9, 0, 0, 32, stream=STREAM_AUX)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_increments_offset_alignment():
    with pytest.raises(SimulationError):
        gaussian_increments(9, 0, 2, 8)


def test_map_blocks_order_and_cover():
    # the smallest even number of near-equal blocks, each at a Philox
    # counter boundary, covering [0, m) in order, whatever the threads
    for m in (1, 5, BLOCK_PATHS, BLOCK_PATHS + 1, 3 * BLOCK_PATHS + 5):
        seen = []
        map_blocks(lambda s, c: seen.append((s, c)), m)
        starts, counts = zip(*seen)
        assert starts[0] == 0 and sum(counts) == m
        assert all(s + c == nxt for (s, c), nxt in zip(seen, starts[1:]))
        assert all(s % 4 == 0 for s in starts)
        assert max(counts) <= BLOCK_PATHS
        assert max(counts) - min(counts) <= 4
        if m > 4:
            assert len(seen) % 2 == 0
            assert len(seen) - 2 < m / BLOCK_PATHS
        assert map_blocks(lambda s, c: (s, c), m, threads=3) == seen


def test_map_blocks_rejects_thread_count_below_one():
    # a single block must not slip through on the serial path either
    for threads in (0, -1):
        with pytest.raises(ConfigError):
            map_blocks(lambda s, c: None, 10, threads=threads)


def test_map_blocks_pool_stops_at_the_core_count(monkeypatch):
    # more threads than cores only contend for the interpreter lock, and
    # the block layout does not depend on threads, so neither do results
    workers = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    def cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    monkeypatch.setattr(model_mod, "ThreadPoolExecutor", Recording)
    m = 3 * BLOCK_PATHS + 5
    block = lambda s, c: float(gaussian_increments(5, 0, s, c).sum())
    serial = map_blocks(block, m, threads=1)
    assert workers == []
    cores(1)
    assert map_blocks(block, m, threads=8) == serial
    assert all(w <= 1 for w in workers)
    cores(2)
    assert map_blocks(block, m, threads=2) == serial
    assert workers[-1] == 2


def test_simulate_gbm_thread_invariance():
    model = MarketModel(s0=1.0, sigma=1.0)
    times = np.linspace(0.1, 1.0, 5)
    m = BLOCK_PATHS + 17
    a = simulate_gbm(model, times, m, 11, threads=1)
    b = simulate_gbm(model, times, m, 11, threads=8)
    assert a.shape == (m, times.size)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("times", [[0.0, 0.25, 1.0], [0.3, 0.7]])
def test_walk_moves_by_step_j_draws(times):
    # ln S at times[j] is ln s0 plus the steps up to j, step j drawing
    # from Philox step j; a time 0 takes no step and no draws
    model = MarketModel(s0=1.5, sigma=0.4, mu=0.2)
    x = np.full(8, math.log(1.5))
    t0, walked = 0.0, []
    for j, t in enumerate(times):
        if t > 0.0:
            z = gaussian_increments(3, j, 4, 8)
            x = x + (0.4 * math.sqrt(t - t0) * z + (0.2 - 0.08) * (t - t0))
        walked.append(x)
        t0 = t
    got = [x.copy() for _, x in _walk(model, np.array(times), 3, 4, 8, 0.2)]
    np.testing.assert_allclose(got, walked, rtol=0, atol=1e-14)
    paths = simulate_gbm(model, times, 12, 3, measure="historical")
    np.testing.assert_array_equal(paths[4:12], np.exp(got).T)


def test_simulate_gbm_lognormal_law():
    # exact scheme: ln S_t ~ N(ln s0 - sigma^2 t / 2, sigma^2 t) under
    # the martingale measure, for every grid time
    model = MarketModel(s0=2.0, sigma=0.5)
    times = np.array([0.25, 1.0])
    paths = simulate_gbm(model, times, 200_000, 3)
    for j, t in enumerate(times):
        x = np.log(paths[:, j])
        mu = math.log(2.0) - 0.125 * t
        sd = 0.5 * math.sqrt(t)
        assert x.mean() == pytest.approx(mu, abs=4 * sd / math.sqrt(200_000))
        assert x.std() == pytest.approx(sd, rel=0.01)
    assert paths[:, 1].mean() == pytest.approx(2.0, rel=0.01)


def test_simulate_gbm_historical_drift():
    model = MarketModel(s0=1.0, sigma=0.2, mu=0.5)
    paths = simulate_gbm(model, [1.0], 100_000, 4, measure="historical")
    x = np.log(paths[:, 0])
    assert x.mean() == pytest.approx(0.5 - 0.02, abs=0.01)


def test_simulate_gbm_grid_validation():
    model = MarketModel(s0=1.0, sigma=1.0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5, 0.5], 10, 0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5, 2.0], 10, 0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5], 0, 0)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 64 - 1), step=st.integers(0, 100))
def test_increment_determinism_property(seed, step):
    a = gaussian_increments(seed, step, 0, 16)
    b = gaussian_increments(seed, step, 0, 16)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))
