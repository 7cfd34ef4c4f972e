import concurrent.futures
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SFC64, Generator, SeedSequence

from fracsmooth import model as model_mod
from fracsmooth.errors import ConfigError
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


def test_gaussian_increments_key_contract():
    # one key's draws are numpy's ziggurat normals from SFC64 seeded by
    # the key, whether returned or drawn into the caller's buffer
    ref = Generator(SFC64(SeedSequence([9, 0, 3, 16]))).standard_normal(32)
    np.testing.assert_array_equal(gaussian_increments(9, 3, 16, 32), ref)
    buf = np.empty(32)
    assert gaussian_increments(9, 3, 16, 32, out=buf) is buf
    np.testing.assert_array_equal(buf, ref)
    aux = Generator(SFC64(SeedSequence([9, 1, 0, 0]))).standard_normal(5)
    np.testing.assert_array_equal(
        gaussian_increments(9, 0, 0, 5, stream=STREAM_AUX), aux)


def test_gaussian_increments_block_decomposition():
    # a run's draws at one step are its blocks' own streams, laid end to
    # end, at any thread count; a shorter count of a key is a prefix
    m = 2 * BLOCK_PATHS + 7
    blocks = map_blocks(lambda s, c: gaussian_increments(9, 3, s, c), m)
    assert len(blocks) == 4
    whole = np.concatenate(blocks)
    parts = map_blocks(lambda s, c: gaussian_increments(9, 3, s, c), m,
                       threads=3)
    np.testing.assert_array_equal(whole, np.concatenate(parts))
    spans = map_blocks(lambda s, c: (s, c), m)
    for (s, _), block in zip(spans, blocks):
        np.testing.assert_array_equal(gaussian_increments(9, 3, s, 17),
                                      block[:17])


def test_gaussian_increments_streams_and_steps_differ():
    a = gaussian_increments(9, 0, 0, 32)
    b = gaussian_increments(9, 1, 0, 32)
    c = gaussian_increments(9, 0, 0, 32, stream=STREAM_AUX)
    d = gaussian_increments(9, 0, 32, 32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # two blocks at one step are two streams, not one shifted
    assert not np.isin(d, gaussian_increments(9, 0, 0, 4096)).any()


def test_gaussian_increments_law_across_blocks_and_steps():
    # 2^20 draws of one seed: 8 steps of 4 blocks.  Mean, variance and
    # excess kurtosis of the pool, and the correlation of every pair of
    # blocks at one step and of every pair of steps in one block, each
    # within 5 standard errors (one of these 163 normal z-scores passes
    # 5 with probability under 1e-4)
    count = 1 << 15
    z = np.array([[gaussian_increments(2024, j, b * count, count)
                   for b in range(4)] for j in range(8)])
    n = z.size
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
    kurt = (z ** 4).mean() / z.var() ** 2 - 3.0
    assert abs(kurt) <= 5.0 * math.sqrt(24.0 / n)
    pairs = [(z[j, a], z[j, b]) for j in range(8)
             for a in range(4) for b in range(a + 1, 4)]
    pairs += [(z[i, b], z[j, b]) for b in range(4)
              for i in range(8) for j in range(i + 1, 8)]
    assert len(pairs) == 48 + 112
    for u, v in pairs:
        assert abs(np.corrcoef(u, v)[0, 1]) <= 5.0 / math.sqrt(count)


def test_map_blocks_order_and_cover():
    # the smallest even number of blocks, sizes differing by at most 1,
    # covering [0, m) in order, whatever the threads
    for m in (1, 2, 5, BLOCK_PATHS, BLOCK_PATHS + 1, 3 * BLOCK_PATHS + 5):
        seen = []
        map_blocks(lambda s, c: seen.append((s, c)), m)
        starts, counts = zip(*seen)
        assert starts[0] == 0 and sum(counts) == m
        assert all(s + c == nxt for (s, c), nxt in zip(seen, starts[1:]))
        assert max(counts) <= BLOCK_PATHS
        assert max(counts) - min(counts) <= 1
        if m > 1:
            assert len(seen) % 2 == 0
            assert len(seen) - 2 < m / BLOCK_PATHS
        assert map_blocks(lambda s, c: (s, c), m, threads=3) == seen


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 5000), block=st.integers(2, 300),
       threads=st.integers(2, 4))
def test_map_blocks_spans_tile_the_paths_property(m, block, threads):
    # at any block size the spans tile [0, m) in order, in the smallest
    # even number of blocks, sizes within 1 of each other, at any threads
    saved, model_mod.BLOCK_PATHS = model_mod.BLOCK_PATHS, block
    try:
        spans = map_blocks(lambda s, c: (s, c), m)
        threaded = map_blocks(lambda s, c: (s, c), m, threads=threads)
    finally:
        model_mod.BLOCK_PATHS = saved
    assert [i for s, c in spans for i in range(s, s + c)] == list(range(m))
    counts = [c for _, c in spans]
    assert max(counts) <= block and max(counts) - min(counts) <= 1
    if m > 1:
        assert len(spans) % 2 == 0 and len(spans) - 2 < m / block
    assert threaded == spans


def test_map_blocks_rejects_thread_count_below_one():
    # a single block must not slip through on the serial path either
    for threads in (0, -1):
        with pytest.raises(ConfigError):
            map_blocks(lambda s, c: None, 10, threads=threads)


@pytest.mark.parametrize("m", [0, -3])
def test_map_blocks_rejects_path_count_below_one(m):
    # the one path-count check of every Monte Carlo run: no block is
    # called (it called fn(0, m)), and simulate_gbm refuses through it
    calls = []
    with pytest.raises(ConfigError, match="path count m must be >= 1"):
        map_blocks(lambda s, c: calls.append((s, c)), m)
    assert calls == []
    with pytest.raises(ConfigError, match="path count m must be >= 1"):
        simulate_gbm(MarketModel(s0=1.0, sigma=1.0), [0.5, 1.0], m, 0)


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
    # from the block's own key (seed, step j, start); a time 0 takes no
    # step and no draws
    model = MarketModel(s0=1.5, sigma=0.4, mu=0.2)

    def walked(start, count):
        x = np.full(count, math.log(1.5))
        t0, out = 0.0, []
        for j, t in enumerate(times):
            if t > 0.0:
                z = gaussian_increments(3, j, start, count)
                x = x + (0.4 * math.sqrt(t - t0) * z + (0.2 - 0.08) * (t - t0))
            out.append(x)
            t0 = t
        return np.array(out)

    got = [x.copy() for _, x in _walk(model, np.array(times), 3, 4, 8, 0.2)]
    np.testing.assert_allclose(got, walked(4, 8), rtol=0, atol=1e-14)
    # simulate_gbm's rows are the walks of map_blocks' spans of 12 paths
    paths = simulate_gbm(model, times, 12, 3, measure="historical")
    for s, c in map_blocks(lambda s, c: (s, c), 12):
        ref = [x.copy() for _, x in _walk(model, np.array(times), 3, s, c,
                                          0.2)]
        np.testing.assert_allclose(ref, walked(s, c), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(paths[s:s + c], np.exp(ref).T)


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
