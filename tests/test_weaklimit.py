import math

import numpy as np
import pytest

from fracsmooth import weaklimit as wl
from fracsmooth.errors import ConfigError
from fracsmooth.model import MarketModel, simulate_gbm
from fracsmooth.payoffs import Payoff, delta, price
from fracsmooth.weaklimit import (apply_A_operator, clock_A, clock_to_csv,
                                  ks_distance, lp_bound_curve,
                                  mixed_normal_sample)

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


def test_apply_A_operator_affine():
    # s H' - H maps c0 + c1 s to -c0: the linear part is annihilated
    p = Payoff.affine(0.7, 2.0)
    vals = apply_A_operator(p, MODEL, 0.5, np.array([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(vals, -0.7, atol=1e-14)


def test_apply_A_operator_call_positive():
    p = Payoff.call(1.0)
    s = np.array([0.5, 1.0, 2.0])
    ref = s * delta(p, MODEL, 0.3, s) - price(p, MODEL, 0.3, s)
    np.testing.assert_allclose(apply_A_operator(p, MODEL, 0.3, s), ref)
    assert np.all(ref > 0.0)


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


def test_lp_bound_curve_theta_one_is_increment():
    # at theta = 1, D_t is the increment AH(t, S_t) - AH(0, s0) of the
    # paths simulated on the base grid 1 - 2^-j, which holds t_grid
    p = Payoff.call(1.0)
    times = 1.0 - 2.0 ** -np.arange(1, wl._LP_DEPTH + 1, dtype=float)
    t_grid = times[[1, 4]]
    _, norms, _, _, _ = lp_bound_curve(p, MODEL, 1.0, 3.0, t_grid, 400, 3)
    batch = simulate_gbm(MODEL, times, 400, 3)
    ah0 = float(apply_A_operator(p, MODEL, 0.0, 1.0))
    for t, norm, col in zip(t_grid, norms, (1, 4)):
        d = apply_A_operator(p, MODEL, t, batch.values[:, col]) - ah0
        assert norm == pytest.approx(np.mean(np.abs(d) ** 3) ** (1 / 3),
                                     rel=1e-12)


def test_lp_bound_curve_affine_vanishes():
    # A maps c0 + c1 s to the constant -c0, so every D_t vanishes
    p = Payoff.affine(0.4, 2.0)
    _, norms, _, _, _ = lp_bound_curve(p, MODEL, 0.6, 2.0, [0.25, 0.5], 64, 5)
    assert np.all(norms < 1e-12)


def test_lp_bound_curve_verdicts():
    t_grid = 1.0 - 2.0 ** -np.arange(1, 21, dtype=float)
    p = Payoff.binary(1.0)
    _, norms, errs, verdict, _ = lp_bound_curve(p, MODEL, 0.4, 2.0, t_grid,
                                                20_000, 41)
    assert verdict == "bounded"
    assert np.all(norms >= 0.0) and np.all(errs >= 0.0)
    _, _, _, verdict_bad, _ = lp_bound_curve(p, MODEL, 1.0, 4.0, t_grid,
                                             20_000, 41)
    assert verdict_bad == "unbounded"
    with pytest.raises(ConfigError):
        lp_bound_curve(p, MODEL, 0.4, 1.0, t_grid, 100, 0)


def test_csv_writers(tmp_path):
    clock = clock_A(Payoff.call(1.0), MODEL, 1.0, 50, 9)
    f1 = tmp_path / "clock.csv"
    clock_to_csv(f1, clock)
    lines = f1.read_text().splitlines()
    assert lines[0] == "path_id,A" and len(lines) == 51
    f2 = tmp_path / "clock_echo.csv"
    clock_to_csv(f2, clock, header_lines=["seed=9"])
    assert f2.read_bytes() == b"# seed=9\n" + f1.read_bytes()
