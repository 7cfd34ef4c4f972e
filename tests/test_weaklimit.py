import math

import numpy as np
import pytest

from fracsmooth import model, payoffs as po, weaklimit
from fracsmooth.errors import ConfigError
from fracsmooth.model import (BLOCK_PATHS, STREAM_AUX, MarketModel,
                              gaussian_increments, simulate_gbm)
from fracsmooth.payoffs import Payoff
from fracsmooth.quadrature import legendre_panels
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
def test_mixed_normal_sample_thread_invariant(m):
    # xi is one draw of the seed's AUX stream at step 0 and start 0, so
    # no block layout or thread count enters it, and the first k of an
    # m-path sample are those of a k-path one
    clock = ClockSample(A_values=np.linspace(0.5, 2.0, m), flagged_fraction=0.0)
    xi = gaussian_increments(31, 0, 0, m, stream=STREAM_AUX)
    mixed = mixed_normal_sample(clock, 31)
    np.testing.assert_array_equal(mixed, np.sqrt(clock.A_values) * xi)
    head = ClockSample(A_values=clock.A_values[:1], flagged_fraction=0.0)
    assert mixed_normal_sample(head, 31)[0] == mixed[0]
    # and it is not the paths' stream of the same seed
    assert not np.array_equal(xi, gaussian_increments(31, 0, 0, m))


def _clock_grid_by_lists(time_order):
    # the grid as first built: per-octave Python lists, then one argsort
    gx, gw = np.polynomial.legendre.leggauss(time_order)
    times, weights, octave = [], [], []
    for j in range(weaklimit._CLOCK_DEPTH):
        hi, lo = 2.0 ** -j, 2.0 ** -(j + 1)
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
        w = np.full_like(u, 0.5 * (hi - lo)) * gw
        times.extend(1.0 - u)
        weights.extend(w)
        octave.extend([j] * len(u))
    order = np.argsort(times)
    return (np.asarray(times)[order], np.asarray(weights)[order],
            np.asarray(octave)[order])


@pytest.mark.parametrize("time_order", [1, 2, 4, 7])
def test_clock_grid_equals_list_construction(time_order):
    got = weaklimit._clock_grid(time_order)
    for a, b in zip(got, _clock_grid_by_lists(time_order)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_clock_mean_matches_quadrature_oracle():
    # E[A] = int_0^1 (1-t)^(1-theta)/(2 theta) E[(S_t^2 gamma)^2] dt by
    # quadrature: 8 Gauss-Legendre nodes on each of 40 octaves of 1 - t,
    # and the outer grid of ln S_t at each node; the call's clock at
    # theta 1 has a finite mean, and the Monte Carlo mean must agree
    # within 4 standard errors
    p, theta = Payoff.call(1.0), 1.0
    u, w = legendre_panels(np.ldexp(1.0, np.arange(-40, 1)), 8)
    oracle = 0.0
    for uu, ww in zip(u.ravel(), w.ravel()):
        x, wx = po._outer_grid(p, MODEL, 1.0 - uu)
        s = np.exp(x)
        f = (s * s * po.gamma(p, MODEL, 1.0 - uu, s)) ** 2
        oracle += ww * uu ** (1.0 - theta) / (2.0 * theta) * (wx @ f)
    a = clock_A(p, MODEL, theta, 20_000, 101).A_values
    z = (a.mean() - oracle) / (a.std(ddof=1) / math.sqrt(a.size))
    assert abs(z) <= 4.0


@pytest.mark.parametrize("p, theta", [(Payoff.call(1.0), 1.0),
                                      (Payoff.binary(1.0), 0.4)])
def test_clock_matches_path_matrix_reference(p, theta, monkeypatch):
    # the clock built from a stored path matrix, one gamma call per time
    # column: the walk in blocks must give the same bits
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    m = 301
    times, w, octv = weaklimit._clock_grid(4)
    paths = simulate_gbm(MODEL, times, m, 5)
    wt = w * (1.0 - times) ** (1.0 - theta) / (2.0 * theta)
    inc = np.zeros((m, weaklimit._CLOCK_DEPTH))
    for k, t in enumerate(times):
        s = paths[:, k]
        g = po.gamma(p, MODEL, float(t), s)
        inc[:, octv[k]] += wt[k] * (s * s * g) ** 2
    last, prev = inc[:, -1], inc[:, -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(np.where(prev > 0.0, last / prev, 0.0), 0.0, 0.95)
    ref = inc.sum(axis=1) + last * r / (1.0 - r)
    clock = clock_A(p, MODEL, theta, m, 5, threads=2)
    np.testing.assert_array_equal(clock.A_values, ref)


def test_power_holder_clock_thread_invariant(monkeypatch):
    # the gamma calls now run per block on the pool; the fixed block
    # layout keeps the batch-dependent quadrature bits the same
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    p = Payoff.power_holder(1.0, 0.5)
    runs = [clock_A(p, MODEL, 0.5, 300, 13, threads=t) for t in (1, 2, 3)]
    for run in runs[1:]:
        assert run.A_values.tobytes() == runs[0].A_values.tobytes()
        assert run.flagged_fraction == runs[0].flagged_fraction


@pytest.mark.parametrize("m, threads", [(0, 1), (-3, 1), (10, 0)])
def test_clock_rejects_empty_sample_and_zero_threads(m, threads):
    with pytest.raises(ConfigError):
        clock_A(Payoff.call(1.0), MODEL, 1.0, m, 0, threads=threads)


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
