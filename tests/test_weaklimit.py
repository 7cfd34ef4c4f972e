import math

import numpy as np
import pytest

from fracsmooth import model, weaklimit
from fracsmooth.errors import ConfigError
from fracsmooth.model import (BLOCK_PATHS, STREAM_AUX, MarketModel,
                              gaussian_increments)
from fracsmooth.payoffs import Payoff
from fracsmooth.weaklimit import (ClockSample, clock_A, clock_to_csv,
                                  ks_distance, mixed_normal_sample)

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)


def test_ks_distance_basic():
    x = np.arange(10.0)
    assert ks_distance(x, x) == 0.0
    assert ks_distance(x, x + 100.0) == 1.0
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(20_000), rng.standard_normal(20_000)
    assert ks_distance(a, b) < 0.02
    with pytest.raises(ConfigError):
        ks_distance([], [1.0])


def test_clock_requirements():
    with pytest.raises(ConfigError):
        clock_A(Payoff.call(1.0), MarketModel(s0=1.0, sigma=1.0, T=2.0),
                1.0, 10, 0)
    with pytest.raises(ConfigError):
        clock_A(Payoff.call(1.0), MODEL, 1.5, 10, 0)


def test_clock_positive_and_deterministic():
    clock = clock_A(Payoff.call(1.0), MODEL, 1.0, 2000, 9)
    assert np.all(clock.A_values > 0.0)
    assert clock.flagged_fraction <= 0.01
    again = clock_A(Payoff.call(1.0), MODEL, 1.0, 2000, 9, threads=4)
    np.testing.assert_array_equal(clock.A_values, again.A_values)


@pytest.mark.parametrize("m", [1, 6, BLOCK_PATHS + 3])
def test_mixed_normal_sample_thread_invariant(m, monkeypatch):
    # the same bits on a thread pool as serially, and as one AUX stream
    clock = ClockSample(A_values=np.linspace(0.5, 2.0, m), flagged_fraction=0.0)
    serial = mixed_normal_sample(clock, 31)
    monkeypatch.setattr(weaklimit, "map_blocks",
                        lambda fn, n: model.map_blocks(fn, n, threads=3))
    np.testing.assert_array_equal(mixed_normal_sample(clock, 31), serial)
    xi = gaussian_increments(31, 0, 0, m, stream=STREAM_AUX)
    np.testing.assert_array_equal(serial, np.sqrt(clock.A_values) * xi)


def test_mixed_normal_moments():
    clock = clock_A(Payoff.call(1.0), MODEL, 1.0, 50_000, 9)
    z = mixed_normal_sample(clock, 31)
    # conditionally centered: E sqrt(A) xi = 0, and the paired variance
    # identity E (A xi^2) = E A holds sample-wise within MC error
    a = clock.A_values
    diff = a * (z / np.sqrt(a)) ** 2 - a
    band = 3.0 * diff.std(ddof=1) / math.sqrt(a.size)
    assert abs(z.mean()) < 3.0 * z.std() / math.sqrt(z.size)
    assert abs((z ** 2).mean() - a.mean()) < band


def test_csv_writers(tmp_path):
    clock = clock_A(Payoff.call(1.0), MODEL, 1.0, 50, 9)
    f1 = tmp_path / "clock.csv"
    clock_to_csv(f1, clock)
    lines = f1.read_text().splitlines()
    assert lines[0] == "path_id,A" and len(lines) == 51
    f2 = tmp_path / "clock_echo.csv"
    clock_to_csv(f2, clock, header_lines=["seed=9"])
    assert f2.read_bytes() == b"# seed=9\n" + f1.read_bytes()
