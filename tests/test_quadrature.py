import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth.errors import QuadratureError
from fracsmooth.quadrature import Feature, gauss_normal_nodes, lognormal_grid


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
    # P(X >= c) for X ~ N(0,1) with a feature marking the discontinuity
    from scipy.special import ndtr
    c = 0.4
    x, w = lognormal_grid(0.0, 1.0, features=(Feature(c, 1e-9),))
    val = w @ (x >= c)
    assert val == pytest.approx(float(ndtr(-c)), abs=1e-9)


@settings(max_examples=30)
@given(mean=st.floats(-3, 3), std=st.floats(0.05, 4),
       c=st.floats(-2, 2))
def test_lognormal_grid_mass_property(mean, std, c):
    x, w = lognormal_grid(mean, std, features=(Feature(c, 1e-6 * std),))
    assert np.all(np.isfinite(x))
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
