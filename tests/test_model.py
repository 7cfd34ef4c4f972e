import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth.errors import ConfigError, SimulationError
from fracsmooth.model import (BLOCK_PATHS, MarketModel, STREAM_AUX,
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
    seen = []
    map_blocks(lambda s, c: seen.append((s, c)), 3 * BLOCK_PATHS + 5)
    assert seen == [(0, BLOCK_PATHS), (BLOCK_PATHS, BLOCK_PATHS),
                    (2 * BLOCK_PATHS, BLOCK_PATHS), (3 * BLOCK_PATHS, 5)]


def test_map_blocks_rejects_thread_count_below_one():
    # a single block must not slip through on the serial path either
    for threads in (0, -1):
        with pytest.raises(ConfigError):
            map_blocks(lambda s, c: None, 10, threads=threads)


def test_simulate_gbm_thread_invariance():
    model = MarketModel(s0=1.0, sigma=1.0)
    times = np.linspace(0.1, 1.0, 5)
    m = BLOCK_PATHS + 17
    a = simulate_gbm(model, times, m, 11, threads=1)
    b = simulate_gbm(model, times, m, 11, threads=8)
    np.testing.assert_array_equal(a.values, b.values)


def test_simulate_gbm_lognormal_law():
    # exact scheme: ln S_t ~ N(ln s0 - sigma^2 t / 2, sigma^2 t) under
    # the martingale measure, for every grid time
    model = MarketModel(s0=2.0, sigma=0.5)
    times = np.array([0.25, 1.0])
    batch = simulate_gbm(model, times, 200_000, 3)
    for j, t in enumerate(times):
        x = np.log(batch.values[:, j])
        mu = math.log(2.0) - 0.125 * t
        sd = 0.5 * math.sqrt(t)
        assert x.mean() == pytest.approx(mu, abs=4 * sd / math.sqrt(200_000))
        assert x.std() == pytest.approx(sd, rel=0.01)
    assert batch.values[:, 1].mean() == pytest.approx(2.0, rel=0.01)


def test_simulate_gbm_historical_drift():
    model = MarketModel(s0=1.0, sigma=0.2, mu=0.5)
    batch = simulate_gbm(model, [1.0], 100_000, 4, measure="historical")
    x = np.log(batch.values[:, 0])
    assert x.mean() == pytest.approx(0.5 - 0.02, abs=0.01)


def test_simulate_gbm_grid_validation():
    model = MarketModel(s0=1.0, sigma=1.0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5, 0.5], 10, 0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5, 2.0], 10, 0)
    with pytest.raises(ConfigError):
        simulate_gbm(model, [0.5], 0, 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), step=st.integers(0, 100))
def test_increment_determinism_property(seed, step):
    a = gaussian_increments(seed, step, 0, 16)
    b = gaussian_increments(seed, step, 0, 16)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))
