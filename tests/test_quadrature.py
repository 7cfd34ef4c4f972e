import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import eval_hermitenorm

from fracsmooth.chaos import project
from fracsmooth.errors import QuadratureError
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import Payoff, delta
from fracsmooth.quadrature import (gauss_normal_nodes, hermite_recurrence,
                                   lognormal_grid)


def test_hermite_recurrence_orthonormal_and_moments():
    x = np.linspace(-4.0, 4.0, 33)
    hs = list(hermite_recurrence(x, 12))
    assert len(hs) == 12
    for k, h in enumerate(hs):
        ref = eval_hermitenorm(k, x) / math.sqrt(math.factorial(k))
        np.testing.assert_allclose(h, ref, rtol=1e-13, atol=1e-13)
    # a float argument gives the same values as floats
    scalar = list(hermite_recurrence(0.75, 12))
    assert all(isinstance(h, float) for h in scalar)
    np.testing.assert_array_equal(scalar, [h[19] for h in hs])
    # c = v^2 - 1 gives E[H_k(Y)], Y ~ N(m, v^2)
    z, w = gauss_normal_nodes(64)
    m, v = 0.3, 0.6
    q = list(hermite_recurrence(m, 10, v * v - 1.0))
    for k, h in enumerate(hermite_recurrence(m + v * z, 10)):
        assert q[k] == pytest.approx(w @ h, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 8, 64, 201, 401, 1024])
def test_gauss_normal_moments(order):
    x, w = gauss_normal_nodes(order)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(w @ x) < 1e-12
    if order >= 2:
        assert w @ x ** 2 == pytest.approx(1.0, rel=1e-12)
    if order >= 3:
        assert w @ x ** 4 == pytest.approx(3.0, rel=1e-11)
        assert abs(w @ x ** 3) < 1e-10


def test_gauss_normal_lognormal_mean_high_order():
    # E exp(X) = exp(1/2) for X ~ N(0,1); stresses the far-tail weights
    x, w = gauss_normal_nodes(1024)
    assert w @ np.exp(x) == pytest.approx(math.exp(0.5), rel=1e-12)


def test_gauss_normal_rejects_bad_order():
    with pytest.raises(QuadratureError):
        gauss_normal_nodes(0)


def test_lognormal_grid_total_mass_and_moments():
    x, w = lognormal_grid(0.3, 1.7)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w @ x == pytest.approx(0.3, abs=1e-12)
    assert w @ (x - 0.3) ** 2 == pytest.approx(1.7 ** 2, rel=1e-12)


def test_lognormal_grid_step_function():
    # P(X >= c) for X ~ N(0,1) with the grid graded at the discontinuity
    from scipy.special import ndtr
    c = 0.4
    x, w = lognormal_grid(0.0, 1.0, kink=(c, 1e-9))
    val = w @ (x >= c)
    assert val == pytest.approx(float(ndtr(-c)), abs=1e-9)


@settings(max_examples=30)
@given(mean=st.floats(-3, 3), std=st.floats(0.05, 4),
       c=st.floats(-2, 2))
def test_lognormal_grid_mass_property(mean, std, c):
    x, w = lognormal_grid(mean, std, kink=(c, 1e-6 * std))
    assert np.all(np.isfinite(x))
    assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_gauss_normal_nodes_are_shared_read_only():
    # a function that edits its argument in place must not corrupt the
    # nodes every later caller of the same order shares
    # far above the kink this delta runs the 24/32-node pathwise rule
    far = lambda: delta(Payoff.power_holder(1.0, 0.25), MarketModel(1.0, 1.0),
                        0.5, 1000.0)
    before = far()
    x, w = gauss_normal_nodes(32)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        project(lambda y: np.clip(y, -1.0, None, out=y), 4, quad_order=32)
    assert gauss_normal_nodes(32)[0].min() < -1.0
    assert far() == before
