import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from fracsmooth import payoffs as po
from fracsmooth.chaos import exp_call_expansion, indicator_expansion
from fracsmooth.errors import ConfigError, QuadratureError
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import (Payoff, conditional_variance,
                                delta, gamma, payoff_eval,
                                price, second_moment)
from fracsmooth.quadrature import lognormal_grid

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


def test_outer_grid_graded_at_kink():
    # ln S_t ~ N(-sigma^2 t/2, sigma^2 t) under the pricing measure; a
    # kinked payoff grades the grid at ln K down to sigma sqrt(T - t)
    mean, std = -0.375, math.sqrt(0.75)
    x, w = po._outer_grid(Payoff.call(2.0), MODEL, 0.75, tail_depth=40)
    ref = lognormal_grid(mean, std, (math.log(2.0), 0.5), tail_depth=40)
    np.testing.assert_array_equal(x, ref[0])
    np.testing.assert_array_equal(w, ref[1])
    assert w @ x == pytest.approx(mean, abs=1e-12)
    assert w @ (x - mean) ** 2 == pytest.approx(std ** 2, rel=1e-12)
    x_flat, _ = po._outer_grid(Payoff.affine(1.0, 1.0), MODEL, 0.75, 40)
    np.testing.assert_array_equal(x_flat, lognormal_grid(mean, std, None, 40)[0])
    assert x.size > x_flat.size


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


def _adaptive_moments(p, model, t, s):
    """E[h(S_T)^j | S_t = s], j = 1, 2, by adaptive quadrature.

    In w = z - z_k, with z the standard normal of S_T and z_k the kink,
    h(S_T) = (K expm1(v w))^theta for w > 0 and 0 below; the integral is
    split at the kink, so the root singularity sits at an endpoint.
    """
    v = model.sigma * math.sqrt(model.T - t)
    K, th = p.strike, p.holder_theta
    zk = (0.5 * v * v - math.log(s / K)) / v
    out = {}
    for q, j in (("price", 1), ("m2", 2)):
        def f(w):
            return ((K * math.expm1(v * w)) ** (j * th)
                    * math.exp(-0.5 * (w + zk) ** 2))
        ref = sum(quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
                  for a, b in ((0.0, 1.0), (1.0, max(-zk, 0.0) + 40.0)))
        out[q] = ref / math.sqrt(2.0 * math.pi)
    return out


@pytest.mark.parametrize("t", [0.5, 1.0 - 2.0 ** -17])
def test_engine_moments_match_direct_integration(t):
    p = Payoff.power_holder(1.0, 0.25)
    s = _spots_around_cutoff(t)
    got = po._valuate(p, MODEL, t, s, ("price", "m2"))
    for i, si in enumerate(s):
        for q, ref in _adaptive_moments(p, MODEL, t, si).items():
            assert got[q][i] == pytest.approx(ref, rel=1e-10, abs=1e-14), q


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0 - 2.0 ** -24])
@pytest.mark.parametrize("sigma", [0.3, 2.0])
@pytest.mark.parametrize("strike", [0.5, 2.0])
@pytest.mark.parametrize("th", [0.1, 0.5, 0.9])
def test_kink_rules_match_adaptive_quadrature(th, strike, sigma, t):
    # both sides of the kink and of the |d2| = 8 switch to the pathwise rule
    p = Payoff.power_holder(strike, th)
    model = MarketModel(s0=1.0, sigma=sigma, T=1.0)
    v = sigma * math.sqrt(1.0 - t)
    d2 = np.array([-9.0, -2.0, 0.0, 3.0, 7.99, 9.0])
    s = strike * np.exp(v * d2 + 0.5 * v * v)
    got = po._valuate(p, model, t, s, ("price", "m2"))
    for i, si in enumerate(s):
        for q, ref in _adaptive_moments(p, model, t, si).items():
            assert got[q][i] == pytest.approx(ref, rel=1e-10, abs=1e-14), \
                (q, d2[i])


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("strike", [0.5, 2.0])
def test_kink_rule_reaches_past_the_integrand_peak(strike, t):
    # at sigma = 5 the E[h^2] integrand peaks near d2 + 2 theta v = 16.9
    # kernel sds above the kink (t = 0), so a rule cut at y = 20 loses
    # 1e-3 of it while both of its orders agree
    p = Payoff.power_holder(strike, 0.9)
    model = MarketModel(s0=1.0, sigma=5.0, T=1.0)
    v = 5.0 * math.sqrt(1.0 - t)
    s = strike * math.exp(v * 7.9 + 0.5 * v * v)
    got = po._valuate(p, model, t, np.array([s]), ("price", "m2"))
    for q, ref in _adaptive_moments(p, model, t, s).items():
        assert got[q][0] == pytest.approx(ref, rel=1e-10), q


@given(th=st.floats(0.1, 0.9), strike=st.floats(0.5, 2.0),
       sigma=st.floats(0.3, 2.0), t=st.floats(0.0, 0.99),
       d2=st.floats(-12.0, 12.0))
def test_power_holder_greeks_match_finite_differences(th, strike, sigma, t, d2):
    # steps of 1e-4 in d2 straddle the |d2| = 8 switch between the kink
    # and the pathwise rules; each Greek is compared on the scale of the
    # quantity it differentiates, 1/(s v) times that quantity
    p = Payoff.power_holder(strike, th)
    model = MarketModel(s0=1.0, sigma=sigma, T=1.0)
    v = sigma * math.sqrt(1.0 - t)
    s = strike * math.exp(v * d2 + 0.5 * v * v)
    ds = 1e-4 * s * v
    sp = np.array([s - ds, s, s + ds])
    val = po._valuate(p, model, t, sp, ("price", "delta", "gamma"))
    pr, de, ga = val["price"], val["delta"], val["gamma"]
    fd_delta = (pr[2] - pr[0]) / (2.0 * ds)
    fd_gamma = (de[2] - de[0]) / (2.0 * ds)
    assert abs(de[1] - fd_delta) <= 1e-6 * (abs(de[1]) + pr[1] / (s * v)) + 1e-12
    assert abs(ga[1] - fd_gamma) <= 1e-5 * (abs(ga[1]) + abs(de[1]) / (s * v)) \
        + 1e-12


@pytest.mark.parametrize("q", ["price", "m2", "delta", "gamma"])
def test_engine_tightened_tolerance_raises(q, monkeypatch):
    p = Payoff.power_holder(1.0, 0.25)
    s = _spots_around_cutoff(0.5)
    want = ("price", "m2", "delta", "gamma")
    po._valuate(p, MODEL, 0.5, s, want)  # default tolerances hold
    monkeypatch.setitem(po._TOLS, q, (0.0, 0.0))
    with pytest.raises(QuadratureError):
        po._valuate(p, MODEL, 0.5, s, want)


@pytest.mark.parametrize("sigma", [1e-8, 1e-100])
def test_power_holder_greeks_far_from_kink_at_tiny_sigma(sigma):
    # at s = 1.5 the kink lies ~0.4 / (sigma sqrt(tau)) sds away; the
    # pathwise Greeks differentiate the payoff, so no sum is divided by a
    # power of sigma sqrt(tau) and each Greek is the payoff's own
    p = Payoff.power_holder(1.0, 0.25)
    model = MarketModel(s0=1.0, sigma=sigma, T=1.0)
    assert price(p, model, 0.5, 1.5) == pytest.approx(0.5 ** 0.25, rel=1e-12)
    exact = {delta: 0.25 * 0.5 ** -0.75, gamma: -0.1875 * 0.5 ** -1.75}
    for f, ref in exact.items():
        assert f(p, model, 0.5, 1.5) == pytest.approx(ref, rel=1e-4), \
            f.__name__


def test_power_holder_gamma_far_above_kink_at_tau_floor():
    # tau sits at its 1e-12 floor, so sigma sqrt(tau) = 1e-6 and the
    # price is the payoff up to O(1e-12); a kernel-differentiated gamma
    # divides by v^2 = 1e-12 and was off by 1e-4 to 3e-3 here
    th = 0.25
    p = Payoff.power_holder(1.0, th)
    for s in (1.2, 1.43, 2.0, 5.0):
        ref = th * (th - 1.0) * (s - 1.0) ** (th - 2.0)
        assert gamma(p, MODEL, 1.0 - 1e-12, s) == pytest.approx(ref, rel=1e-9)


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
