import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermitenorm, ndtr

from fracsmooth import chaos
from fracsmooth.chaos import (ChaosExpansion, besov_criterion, d12_norm,
                              decay_from_chaos, exp_call_expansion,
                              hermite_series, indicator_expansion, project)
from fracsmooth.errors import ConfigError, QuadratureError
from fracsmooth.quadrature import hermite_recurrence


def _hermite(n, x):
    """Orthonormal Hermite polynomial H_n = He_n / sqrt(n!)."""
    return eval_hermitenorm(n, x) / math.sqrt(math.factorial(n))


def test_hermite_matches_normalized_hermitenorm():
    # a unit coefficient vector selects one orthonormal polynomial
    x = np.linspace(-3, 3, 11)
    for n in range(8):
        np.testing.assert_allclose(hermite_series(np.eye(8)[n], x),
                                   _hermite(n, x), rtol=1e-12, atol=1e-12)


def test_hermite_series_matches_direct_sum():
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal(12)
    x = np.linspace(-2, 2, 7)
    direct = sum(alpha[k] * _hermite(k, x) for k in range(12))
    np.testing.assert_allclose(hermite_series(alpha, x), direct, rtol=1e-12)


@pytest.mark.parametrize("c", [-1.0, -0.51, 0.0])
@pytest.mark.parametrize("x", [0.7, np.array([-1e200, -30.0, -0.5, 0.0, 2.0,
                                         30.0, 1e200]),
                               np.linspace(-3.0, 3.0, 6).reshape(2, 3)],
                         ids=["scalar", "vector", "matrix"])
def test_hermite_series_rows_equal_their_one_row_calls(x, c):
    # a stack of rows is summed in one recurrence pass, each row to the
    # same bits as alone, overflowed and NaN sums included
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal((3, 200)) * np.exp(-0.01 * np.arange(200))
    alpha[1, -1] = alpha[2, -2:] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rows = hermite_series(alpha, x, c)
        each = [hermite_series(a, x, c) for a in alpha]
    assert rows.shape == (3,) + np.shape(x)
    for r, e in zip(rows, each):
        np.testing.assert_array_equal(np.asarray(r).view(np.int64),
                                      np.asarray(e).view(np.int64))


def _mean_square(e):
    """E[g^2] of an expansion: coefficient energy plus the tail mass."""
    return float(e.alpha @ e.alpha) + e.tail_l2 ** 2


def test_hermite_orthonormal_under_projection():
    # projecting H_3 returns the unit vector e_3
    e = project(lambda x: _hermite(3, x), K=6)
    expect = np.zeros(7)
    expect[3] = 1.0
    np.testing.assert_allclose(e.alpha, expect, atol=1e-10)
    assert e.tail_l2 < 1e-6


def test_projection_finite_at_high_order():
    # the Hermite recurrence overflows at outer nodes whose weights
    # underflow, so those nodes are left out rather than giving inf * 0
    e = project(lambda x: (x >= 0.5).astype(float), K=512)
    assert np.all(np.isfinite(e.alpha)) and math.isfinite(e.tail_l2)


def test_projection_rejects_nan_function():
    with pytest.raises(QuadratureError):
        project(lambda x: np.full_like(x, math.nan), K=8)


def test_indicator_expansion_matches_projection():
    c = 0.7
    exact = indicator_expansion(c, 24)
    # Gauss-Hermite projection of a discontinuous function converges
    # slowly, so this is only a loose cross-check of the closed forms
    num = project(lambda x: (x >= c).astype(float), K=24, quad_order=8192)
    np.testing.assert_allclose(exact.alpha[:12], num.alpha[:12], atol=8e-3)
    assert exact.alpha[0] == pytest.approx(float(ndtr(-c)), rel=1e-14)
    assert exact.alpha[1] == pytest.approx(
        math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi), rel=1e-14)


@pytest.mark.parametrize("c", [0.5, -1.0, 2.0])
def test_indicator_expansion_matches_hermitenorm(c):
    # alpha_k = phi(c) He_{k-1}(c) / sqrt(k!) for k >= 1; near a root of
    # He_{k-1} the recurrence keeps ~1e-16 of the coefficient scale, not
    # of the coefficient (alpha_40 = 3.3e-6 at c = 0.5), hence the atol
    K = 64
    k = np.arange(1, K + 1)
    ref = (math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi)
           * eval_hermitenorm(k - 1, c)
           / np.sqrt([float(math.factorial(j)) for j in k]))
    np.testing.assert_allclose(indicator_expansion(c, K).alpha[1:], ref,
                               rtol=1e-12, atol=1e-15)


def test_indicator_expansion_matches_per_order_loop():
    # the coefficient-by-coefficient loop as the reference: same arithmetic,
    # so equal bits, also past 2^16 orders
    c = -0.7
    K = 65_541
    ref = np.empty(K + 1)
    ref[0] = ndtr(-c)
    phi = math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi)
    h_prev, h = 1.0, c
    ref[1] = phi
    for k in range(2, K + 1):
        ref[k] = phi * h / math.sqrt(k)
        h, h_prev = (c * h - math.sqrt(k - 1) * h_prev) / math.sqrt(k), h
    np.testing.assert_array_equal(indicator_expansion(c, K).alpha, ref)


def test_indicator_expansion_centered_closed_form():
    # at c = 0 the even coefficients vanish and the total second moment
    # including the tail model matches E[1_{x >= 0}] = 1/2
    e = indicator_expansion(0.0, 4096)
    assert np.all(e.alpha[2::2] == 0.0)
    assert _mean_square(e) == pytest.approx(0.5, rel=1e-6)


def test_indicator_parseval():
    e = indicator_expansion(0.5, 8192)
    # E[1_{x >= c}^2] = P(X >= c)
    assert _mean_square(e) == pytest.approx(float(ndtr(-0.5)), rel=1e-6)


def test_exp_call_expansion_matches_projection():
    a, b, strike = math.exp(-0.5), 1.0, 1.0
    exact = exp_call_expansion(a, b, strike, 24)
    num = project(lambda x: np.maximum(a * np.exp(b * x) - strike, 0.0),
                  K=24, quad_order=4096)
    # the kink limits plain Gauss-Hermite projection accuracy; the exact
    # values are pinned tighter by the Parseval test below
    np.testing.assert_allclose(exact.alpha[:12], num.alpha[:12],
                               rtol=2e-3, atol=1e-4)


def test_exp_call_parseval():
    # E[(a e^X - K)_+^2] with a = e^{-1/2}, K = 1: the terminal second
    # moment of the at-the-money call on the unit GBM
    a, strike = math.exp(-0.5), 1.0
    e = exp_call_expansion(a, 1.0, strike, 4096)
    d1 = 0.5
    m2 = (math.exp(1.0) * ndtr(d1 + 1.0) - 2.0 * ndtr(d1)
          + ndtr(d1 - 1.0))
    assert _mean_square(e) == pytest.approx(m2, rel=1e-8)


def test_project_validation():
    with pytest.raises(ConfigError):
        project(lambda x: x, K=-1)
    with pytest.raises(ConfigError):
        project(lambda x: x, K=10, quad_order=20)


def test_d12_norm_and_partial_sums():
    alpha = np.array([0.0, 1.0, 0.5])
    e = ChaosExpansion(alpha=alpha)
    val, fat = d12_norm(e)
    assert val == pytest.approx(math.sqrt(2 * 1.0 + 3 * 0.25), rel=1e-14)
    assert not fat


def test_d12_fat_tail_flag():
    e = indicator_expansion(0.0, 1024)
    _, fat = d12_norm(e)
    assert fat  # the step function is not in the Sobolev space


def test_besov_smooth_series_bounded():
    # finitely many coefficients: Phi(t) stays bounded for every theta
    e = ChaosExpansion(alpha=np.array([0.3, 1.0, 0.2, 0.1]))
    _, phi, verdict = besov_criterion(e, 0.5)
    assert verdict == "bounded"
    assert np.all(np.isfinite(phi))


def test_besov_validation():
    e = ChaosExpansion(alpha=np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        besov_criterion(e, 1.5)
    with pytest.raises(ConfigError):
        besov_criterion(e, 0.5, t_grid=[1.0])


_KERNEL_CASES = [("indicator", c) for c in (-1.0, 0.0, 0.5)] + [("exp_call", None)]


def _analytic_case(kind, c, K):
    if kind == "indicator":
        return indicator_expansion(c, K), float(ndtr(-c))
    a, strike = math.exp(-0.5), 1.0
    m2 = math.exp(1.0) * ndtr(1.5) - 2.0 * ndtr(0.5) + ndtr(-0.5)
    return exp_call_expansion(a, 1.0, strike, K), float(m2)


@pytest.mark.parametrize("kind,c", _KERNEL_CASES)
def test_mehler_kernel_matches_coefficient_series(kind, c):
    e, m2 = _analytic_case(kind, c, 4096)
    k = np.arange(1, e.alpha.size, dtype=float)
    a2 = e.alpha[1:] ** 2
    tail = m2 - float(e.alpha @ e.alpha)  # exact mass beyond K
    assert e.tail_l2 ** 2 == pytest.approx(tail, abs=1e-14)
    for t in (0.0, 0.3, 0.5, 0.9):
        b, d = e.kernel(t)
        b_series = float((k * t ** (k - 1) * a2)[::-1].sum())
        d_series = float((a2 * (1.0 - t ** k))[::-1].sum())
        assert b == pytest.approx(b_series, rel=1e-10)
        assert d == pytest.approx(d_series + tail, rel=1e-10)
        if kind == "indicator":
            # the truncated sum alone misses the slow k^-3/2 tail
            assert abs(d - d_series) > 1e-3 * d


def _eager_coefficients(kind, c, K):
    """(alpha, tail_l2) built eagerly, step for step as the constructors
    build them; exp_call is a = e^-1/2, b = 1, strike 1."""
    a, b, strike = math.exp(-0.5), 1.0, 1.0
    if kind == "exp_call":
        c = math.log(strike / a) / b
    i_k = np.fromiter(chain((0.0,), hermite_recurrence(c, K)), float, K + 1)
    phi_c = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    i_k[1:] *= phi_c
    i_k[1:] /= np.sqrt(np.arange(1.0, K + 1.0))
    i_k[0] = ndtr(-c)
    if kind == "indicator":
        alpha, m2 = i_k, float(ndtr(-c))
    else:
        d = c - b
        e_k = np.empty(K + 1)
        g_val = float(ndtr(-d))
        phi_d = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        e_k[0] = g_val
        for k, hk1 in enumerate(hermite_recurrence(d + b, K), 1):
            g_val = (b * g_val + hk1 * phi_d) / math.sqrt(k)
            e_k[k] = g_val
        e_k *= math.exp(0.5 * b * b)
        alpha = a * e_k - strike * i_k
        ea = a * strike * math.exp(0.5 * b * b)
        m2 = (a * a * math.exp(2.0 * b * b) * float(ndtr(2.0 * b - c))
              - 2.0 * ea * float(ndtr(b - c)) + strike * strike * float(ndtr(-c)))
    return alpha, math.sqrt(max(m2 - float(alpha @ alpha), 0.0))


@pytest.mark.parametrize("kind,c", [("indicator", 0.0), ("indicator", 0.5),
                                    ("exp_call", None)])
def test_lazy_coefficients_match_eager_build(kind, c):
    # the kernel is read first; the coefficients built afterwards are
    # the eager build's, bit for bit
    e, _ = _analytic_case(kind, c, 4096)
    e.kernel(0.5)
    alpha, tail_l2 = _eager_coefficients(kind, c, 4096)
    np.testing.assert_array_equal(e.alpha, alpha)
    assert e.tail_l2 == tail_l2
    assert e.alpha is e.alpha


@pytest.mark.parametrize("kind", ["indicator", "exp_call"])
def test_kernel_readers_build_no_coefficients(kind, monkeypatch):
    # the decay surrogate and the Besov criterion read only the Mehler
    # kernel, so 2^21 coefficients are never computed
    def refuse(*args, **kwargs):
        raise AssertionError("coefficients built")

    monkeypatch.setattr(chaos, "hermite_recurrence", refuse)
    e, _ = _analytic_case(kind, 0.5, 1 << 21)
    for t in 1.0 - 2.0 ** -np.arange(21.0):
        assert decay_from_chaos(e, float(t)) > 0.0
    assert besov_criterion(e, 0.5)[2] == "bounded"
    with pytest.raises(AssertionError, match="coefficients built"):
        e.alpha


def test_besov_criterion_is_truncation_free():
    lo = besov_criterion(indicator_expansion(0.5, 4), 0.5)
    hi = besov_criterion(indicator_expansion(0.5, 4096), 0.5)
    np.testing.assert_array_equal(lo[1], hi[1])
    assert lo[2] == hi[2]


def test_projected_expansion_uses_coefficient_path():
    # H_1 / 2 + H_2 has Besov series 1/4 + 2t
    e = project(lambda x: 0.5 * _hermite(1, x) + _hermite(2, x), K=6)
    assert e.kernel(0.5)[0] == pytest.approx(0.25 + 2.0 * 0.5, rel=1e-10)
    t = np.array([0.0, 0.5, 0.9])
    _, phi, _ = besov_criterion(e, 0.5, t_grid=t)
    np.testing.assert_allclose(phi, np.sqrt(1.0 - t) * (0.25 + 2.0 * t),
                               rtol=1e-10)
    # a projected step function keeps a heavy tail beyond K
    step = project(lambda x: (x >= 0.5).astype(float), K=64)
    with pytest.raises(QuadratureError):
        besov_criterion(step, 0.5)


@pytest.mark.parametrize("e", [
    project(lambda x: (x >= 0.5).astype(float), K=64),
    ChaosExpansion(alpha=np.array([0.3, 1.0, 0.2, 0.1]), tail_l2=0.01),
], ids=["projected", "hand-built"])
def test_series_kernel_is_the_coefficient_sums(e):
    # B and D in ascending magnitude, B with the tail bound
    # tail^2 t^K ((K+1) - K t) / (1-t)^2 and D with the whole tail mass
    K = e.alpha.size - 1
    k = np.arange(1, K + 1, dtype=float)
    a2 = e.alpha[1:] ** 2
    tail = e.tail_l2 ** 2
    assert e.kernel(0.0) == (a2[0], float(a2.sum()) + tail)
    for t in (0.001, 0.3, 0.5, 0.9):
        lt = math.log(t)
        b = float((k * np.exp((k - 1) * lt) * a2)[::-1].sum())
        b_tail = tail * t ** K * ((K + 1) - K * t) / (1.0 - t) ** 2
        d = float((a2 * (-np.expm1(k * lt)))[::-1].sum())
        got_b, got_d = e.kernel(t)
        assert got_d == d + tail
        if b_tail > 1e-3 * b:
            assert math.isnan(got_b)
        else:
            assert got_b == b + b_tail


def test_decay_from_chaos_limits():
    e = indicator_expansion(0.5, 2048)
    assert decay_from_chaos(e, 1.0) == 0.0
    # at t = 0 the whole variance remains
    var = float(ndtr(-0.5)) - float(ndtr(-0.5)) ** 2
    assert decay_from_chaos(e, 0.0) == pytest.approx(math.sqrt(var), rel=1e-6)
    with pytest.raises(ConfigError):
        decay_from_chaos(e, -0.1)


@settings(max_examples=25)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=10))
def test_decay_from_chaos_monotone_property(coeffs):
    e = ChaosExpansion(alpha=np.array(coeffs))
    t = np.linspace(0.0, 1.0, 9)
    d = [decay_from_chaos(e, float(tt)) for tt in t]
    assert all(a >= b - 1e-12 for a, b in zip(d[:-1], d[1:]))
