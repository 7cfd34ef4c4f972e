import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from fracsmooth import payoffs as po
from fracsmooth.chaos import exp_call_expansion, indicator_expansion
from fracsmooth.errors import ConfigError, QuadratureError
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import (Payoff, conditional_variance,
                                delta, gamma, kink_feature, payoff_eval,
                                price, second_moment)

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)


def test_payoff_validation():
    with pytest.raises(ConfigError):
        Payoff.call(-1.0)
    with pytest.raises(ConfigError):
        Payoff.power_holder(1.0, 1.5)
    with pytest.raises(ConfigError):
        Payoff(kind="warrant")
    with pytest.raises(ConfigError):
        Payoff(kind="chaos")


def test_payoff_eval_kinds():
    s = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(payoff_eval(Payoff.call(1.0), s), [0, 0, 1])
    np.testing.assert_allclose(payoff_eval(Payoff.put(1.0), s), [0.5, 0, 0])
    np.testing.assert_allclose(payoff_eval(Payoff.binary(1.0), s), [0, 1, 1])
    np.testing.assert_allclose(
        payoff_eval(Payoff.power_holder(1.0, 0.5), s), [0, 0, 1])
    np.testing.assert_allclose(
        payoff_eval(Payoff.affine(2.0, -1.0), s), [1.5, 1.0, 0.0])
    with pytest.raises(ConfigError):
        payoff_eval(Payoff.call(1.0), np.array([-1.0]))


def test_call_price_reference():
    # at-the-money, sigma = 1, tau = 1: H = N(1/2) - N(-1/2) = 2N(1/2) - 1
    ref = 2.0 * float(ndtr(0.5)) - 1.0
    assert price(Payoff.call(1.0), MODEL, 0.0, 1.0) == pytest.approx(
        ref, rel=1e-14)
    assert delta(Payoff.call(1.0), MODEL, 0.0, 1.0) == pytest.approx(
        float(ndtr(0.5)), rel=1e-14)


def test_binary_price_reference():
    assert price(Payoff.binary(1.0), MODEL, 0.0, 1.0) == pytest.approx(
        float(ndtr(-0.5)), rel=1e-14)


def test_put_call_parity():
    s = np.array([0.4, 1.0, 3.0])
    for t in (0.0, 0.7):
        c = price(Payoff.call(1.2), MODEL, t, s)
        p = price(Payoff.put(1.2), MODEL, t, s)
        np.testing.assert_allclose(c - p, s - 1.2, rtol=1e-13)
        dc = delta(Payoff.call(1.2), MODEL, t, s)
        dp = delta(Payoff.put(1.2), MODEL, t, s)
        np.testing.assert_allclose(dc - dp, 1.0, rtol=1e-13)


def _fd_check(p, t, s_values, rtol_d, rtol_g):
    h = 1e-5
    for s in s_values:
        pd = (price(p, MODEL, t, s + h) - price(p, MODEL, t, s - h)) / (2 * h)
        assert delta(p, MODEL, t, s) == pytest.approx(pd, rel=rtol_d)
        gd = (delta(p, MODEL, t, s + h) - delta(p, MODEL, t, s - h)) / (2 * h)
        assert gamma(p, MODEL, t, s) == pytest.approx(gd, rel=rtol_g, abs=1e-8)


def test_greeks_finite_difference_closed_forms():
    _fd_check(Payoff.call(1.0), 0.3, [0.6, 1.0, 1.7], 1e-6, 1e-4)
    _fd_check(Payoff.binary(1.0), 0.3, [0.6, 1.0, 1.7], 1e-6, 1e-4)


def test_greeks_finite_difference_power_holder():
    _fd_check(Payoff.power_holder(1.0, 0.25), 0.3, [0.6, 1.0, 1.7],
              1e-5, 1e-3)


def test_power_holder_price_near_maturity_stays_finite():
    p = Payoff.power_holder(1.0, 0.25)
    t = 1.0 - 2.0 ** -20
    s = np.array([0.9, 1.0, 1.1])
    vals = price(p, MODEL, t, s)
    assert np.all(np.isfinite(vals))
    # far above the kink the price approaches the payoff itself
    assert price(p, MODEL, t, 4.0) == pytest.approx(3.0 ** 0.25, rel=1e-4)


def test_chaos_payoff_matches_binary():
    # the indicator expansion at c = ln K + 1/2 reproduces the binary
    # payoff of the unit GBM in both terminal value and price
    K = 1.5
    e = indicator_expansion(math.log(K) + 0.5, 1 << 15)
    pc = Payoff.chaos(e)
    pb = Payoff.binary(K)
    assert price(pc, MODEL, 0.0, 1.0) == pytest.approx(
        price(pb, MODEL, 0.0, 1.0), abs=1e-6)
    assert delta(pc, MODEL, 0.5, 1.2) == pytest.approx(
        delta(pb, MODEL, 0.5, 1.2), abs=1e-5)


def test_chaos_payoff_matches_call():
    e = exp_call_expansion(math.exp(-0.5), 1.0, 1.0, 4096)
    pc = Payoff.chaos(e)
    pb = Payoff.call(1.0)
    for t, s in [(0.0, 1.0), (0.5, 0.8), (0.9, 1.3)]:
        assert price(pc, MODEL, t, s) == pytest.approx(
            price(pb, MODEL, t, s), rel=1e-7, abs=1e-9)
        assert gamma(pc, MODEL, t, s) == pytest.approx(
            gamma(pb, MODEL, t, s), rel=1e-5)


def test_greeks_rejected_at_maturity():
    with pytest.raises(ConfigError):
        delta(Payoff.call(1.0), MODEL, 1.0, 1.0)
    with pytest.raises(ConfigError):
        price(Payoff.call(1.0), MODEL, 1.5, 1.0)


def test_second_moment_binary_and_affine():
    s = np.array([0.7, 1.0, 1.4])
    m2 = second_moment(Payoff.binary(1.0), MODEL, 0.4, s)
    m1 = price(Payoff.binary(1.0), MODEL, 0.4, s)
    np.testing.assert_allclose(m2, m1, rtol=1e-14)  # h^2 = h for 0/1 payoff
    p = Payoff.affine(0.3, 2.0)
    m2a = second_moment(p, MODEL, 0.4, 1.0)
    # E (c0 + c1 S_T)^2 with E S_T = s, E S_T^2 = s^2 e^{sigma^2 tau}
    ref = 0.09 + 2 * 0.3 * 2.0 + 4.0 * math.exp(0.6)
    assert m2a == pytest.approx(ref, rel=1e-14)


def test_chaos_second_moment_overflow_raises():
    pc = Payoff.chaos(exp_call_expansion(math.exp(-0.5), 1.0, 1.0, 512))
    s = [0.8, 1.0, 1.2]
    # sigma = 1: the series is the unit-GBM call, and its E[h^2] is finite
    np.testing.assert_allclose(second_moment(pc, MODEL, 0.0, s),
                               second_moment(Payoff.call(1.0), MODEL, 0.0, s),
                               rtol=1e-3)
    # sigma = 1.5 reaches nodes where the squared series overflows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError):
        second_moment(pc, MarketModel(1.0, 1.5), 0.0, s)


def test_conditional_variance_nonnegative_and_vanishes_at_T():
    for p in (Payoff.call(1.0), Payoff.binary(1.0),
              Payoff.power_holder(1.0, 0.25)):
        v = conditional_variance(p, MODEL, 0.5, np.array([0.5, 1.0, 2.0]))
        assert np.all(v >= 0.0)
        # away from the kink the variance dies as t approaches maturity
        # (at the kink itself a binary keeps variance 1/4)
        vT = conditional_variance(p, MODEL, 1.0 - 1e-6, 1.3)
        assert vT < 1e-3
        assert vT < conditional_variance(p, MODEL, 0.5, 1.3)


def test_kink_feature():
    ft = kink_feature(Payoff.call(2.0), MODEL, 0.75)
    assert ft.center == pytest.approx(math.log(2.0))
    assert ft.width == pytest.approx(0.5)
    assert kink_feature(Payoff.affine(1.0, 1.0), MODEL, 0.5) is None



def _spots_around_cutoff(t, strike=1.0):
    # spots whose kink coordinate d2 lies on both sides of |d2| = 8, where
    # the engine switches from the graded kernel rule to Gauss-Hermite
    v = math.sqrt(MODEL.T - t)
    d2 = np.array([-9.0, -8.01, -3.0, 0.0, 1e-6, 2.0, 7.99, 9.0])
    return strike * np.exp(v * d2 + 0.5 * v * v)


@pytest.mark.parametrize("t", [0.5, 1.0 - 2.0 ** -17])
def test_engine_fused_matches_separate_calls(t):
    p = Payoff.power_holder(1.0, 0.25)
    s = _spots_around_cutoff(t)
    fused = po._valuate(p, MODEL, t, s,
                        ("price", "m2", "delta", "gamma", "var"))
    separate = {"price": price(p, MODEL, t, s),
                "m2": second_moment(p, MODEL, t, s),
                "delta": delta(p, MODEL, t, s),
                "gamma": gamma(p, MODEL, t, s),
                "var": conditional_variance(p, MODEL, t, s)}
    for q, ref in separate.items():
        np.testing.assert_allclose(fused[q], ref, rtol=1e-12, atol=0.0,
                                   err_msg=q)


@pytest.mark.parametrize("t", [0.5, 1.0 - 2.0 ** -17])
def test_engine_moments_match_direct_integration(t):
    # E[h(S_T)^j | S_t = s] = int_{z_k}^inf h(s e^{vz - v^2/2})^j phi(z) dz,
    # h vanishing below the kink z_k; adaptive quadrature as the reference
    p = Payoff.power_holder(1.0, 0.25)
    v = math.sqrt(MODEL.T - t)
    s = _spots_around_cutoff(t)
    got = po._valuate(p, MODEL, t, s, ("price", "m2"))
    for i, si in enumerate(s):
        zk = (0.5 * v * v - math.log(si)) / v
        for q, j in (("price", 1), ("m2", 2)):
            def f(z):
                st = si * math.exp(v * z - 0.5 * v * v)
                return payoff_eval(p, st) ** j * math.exp(-0.5 * z * z)
            # split off the root singularity at the kink
            ref = sum(quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
                      for a, b in ((zk, zk + 1.0),
                                   (zk + 1.0, max(zk, 0.0) + 40.0)))
            ref /= math.sqrt(2.0 * math.pi)
            assert got[q][i] == pytest.approx(ref, rel=1e-10, abs=1e-14), q


@pytest.mark.parametrize("q", ["price", "m2", "delta", "gamma"])
def test_engine_tightened_tolerance_raises(q):
    p = Payoff.power_holder(1.0, 0.25)
    s = _spots_around_cutoff(0.5)
    want = ("price", "m2", "delta", "gamma")
    po._valuate(p, MODEL, 0.5, s, want)  # default tolerances hold
    with pytest.raises(QuadratureError):
        po._valuate(p, MODEL, 0.5, s, want, tols={q: (0.0, 0.0)})


def test_public_tolerances_reach_the_engine():
    p = Payoff.power_holder(1.0, 0.25)
    for f in (price, delta, gamma):
        with pytest.raises(QuadratureError):
            f(p, MODEL, 0.5, 1.0, rtol=0.0, atol=0.0)


def test_non_finite_valuation_time_rejected():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            price(Payoff.call(1.0), MODEL, t, 1.0)
        with pytest.raises(ConfigError):
            conditional_variance(Payoff.binary(1.0), MODEL, t, 1.0)


def test_degenerate_sigma_rejected():
    # below the simulate_gbm floor sigma^2 tau underflows: the binary delta
    # at the strike overflows and its gamma turns NaN
    model = MarketModel(s0=1.0, sigma=1e-200, T=1.0)
    for f in (price, delta, gamma, second_moment, conditional_variance):
        with pytest.raises(ConfigError):
            f(Payoff.binary(1.0), model, 0.5, 1.0)


@pytest.mark.parametrize("p", [Payoff.call(1.0), Payoff.put(1.0),
                               Payoff.binary(1.0), Payoff.affine(0.5, 2.0)],
                         ids=lambda p: p.kind)
def test_closed_forms_finite_at_sigma_floor(p):
    model = MarketModel(s0=1.0, sigma=1e-100, T=1.0)
    s = np.array([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5])
    # the last time sits below the tau floor of 1e-12
    for t in (0.0, 0.5, 1.0 - 1e-13):
        for f in (price, delta, gamma):
            assert np.all(np.isfinite(f(p, model, t, s))), (f.__name__, t)
