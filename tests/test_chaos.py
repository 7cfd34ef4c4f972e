import math

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
    # so equal bits, also across the blocks of the scaling pass
    c = -0.7
    K = chaos._SCALE_BLOCK + 5
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


def test_besov_criterion_is_truncation_free():
    lo = besov_criterion(indicator_expansion(0.5, 4), 0.5)
    hi = besov_criterion(indicator_expansion(0.5, 4096), 0.5)
    np.testing.assert_array_equal(lo[1], hi[1])
    assert lo[2] == hi[2]


def test_projected_expansion_uses_coefficient_path():
    # H_1 / 2 + H_2 has Besov series 1/4 + 2t
    e = project(lambda x: 0.5 * _hermite(1, x) + _hermite(2, x), K=6)
    assert e.kernel is None
    t = np.array([0.0, 0.5, 0.9])
    _, phi, _ = besov_criterion(e, 0.5, t_grid=t)
    np.testing.assert_allclose(phi, np.sqrt(1.0 - t) * (0.25 + 2.0 * t),
                               rtol=1e-10)
    # a projected step function keeps a heavy tail beyond K
    step = project(lambda x: (x >= 0.5).astype(float), K=64)
    with pytest.raises(QuadratureError):
        besov_criterion(step, 0.5)


def test_decay_from_chaos_limits():
    e = indicator_expansion(0.5, 2048)
    assert decay_from_chaos(e, 1.0) == 0.0
    # at t = 0 the whole variance remains
    var = float(ndtr(-0.5)) - float(ndtr(-0.5)) ** 2
    assert decay_from_chaos(e, 0.0) == pytest.approx(math.sqrt(var), rel=1e-6)
    with pytest.raises(ConfigError):
        decay_from_chaos(e, -0.1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=10))
def test_decay_from_chaos_monotone_property(coeffs):
    e = ChaosExpansion(alpha=np.array(coeffs))
    t = np.linspace(0.0, 1.0, 9)
    d = [decay_from_chaos(e, float(tt)) for tt in t]
    assert all(a >= b - 1e-12 for a, b in zip(d[:-1], d[1:]))
