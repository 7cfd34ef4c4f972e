import math

import numpy as np
import pytest
from scipy.special import ndtr

from fracsmooth.errors import ConfigError, DegenerateCurveError
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import Payoff
from fracsmooth.smoothness import (DecayCurve, conditional_l2_decay,
                                   default_t_grid,
                                   estimate_theta_sup,
                                   grad_growth_curve, hessian_growth_curve,
                                   integral_criteria_verdicts, growth_criteria_exponents)

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)


def test_default_t_grid():
    g = default_t_grid(MODEL, 4)
    np.testing.assert_allclose(g, [0.0, 0.5, 0.75, 0.875, 0.9375])


def test_binary_decay_at_zero():
    # D(0)^2 = Var 1_{S_1 >= 1} = N(-1/2) N(1/2) for the unit GBM
    curve = conditional_l2_decay(Payoff.binary(1.0), MODEL, [0.0])
    ref = math.sqrt(float(ndtr(-0.5)) * float(ndtr(0.5)))
    assert curve.D[0] == pytest.approx(ref, rel=1e-10)


def test_decay_monotone_decreasing():
    grid = default_t_grid(MODEL, 12)
    for p in (Payoff.binary(1.0), Payoff.call(1.0)):
        curve = conditional_l2_decay(p, MODEL, grid)
        assert np.all(np.diff(curve.D) < 0.0)


def test_decay_grid_validation():
    with pytest.raises(ConfigError):
        conditional_l2_decay(Payoff.call(1.0), MODEL, [1.0])


def test_theta_hat_binary_and_call():
    grid = default_t_grid(MODEL, 20)
    est_b = estimate_theta_sup(conditional_l2_decay(Payoff.binary(1.0),
                                                    MODEL, grid))
    assert est_b.theta_hat == pytest.approx(0.5, abs=0.02)
    est_c = estimate_theta_sup(conditional_l2_decay(Payoff.call(1.0),
                                                    MODEL, grid))
    assert 0.95 <= est_c.theta_hat <= 1.0
    assert est_b.residual_rms < 0.05


def test_theta_hat_needs_enough_points():
    curve = conditional_l2_decay(Payoff.call(1.0), MODEL,
                                 default_t_grid(MODEL, 5))
    with pytest.raises(ConfigError):
        estimate_theta_sup(curve)


def test_degenerate_curve_rejected():
    grid = default_t_grid(MODEL, 20)
    curve = DecayCurve(t_grid=grid, D=np.zeros_like(grid),
                       payoff=Payoff.affine(1.0, 0.0), model=MODEL)
    with pytest.raises(DegenerateCurveError):
        estimate_theta_sup(curve)


def test_growth_curves_blow_up_for_binary():
    grid = default_t_grid(MODEL, 12)
    g = grad_growth_curve(Payoff.binary(1.0), MODEL, grid)
    h = hessian_growth_curve(Payoff.binary(1.0), MODEL, grid)
    assert np.all(np.diff(g) > 0.0)
    assert h[-1] > 1e3 * h[0]


def test_b22_integral_binary_verdicts():
    # the B^theta_{2,2} integral int (T-t)^(-1-theta) D(t)^2 dt is finite
    # iff theta < 1/2 for a binary
    p = Payoff.binary(1.0)
    assert integral_criteria_verdicts(p, MODEL, 0.4)["decay"] == "finite"
    assert integral_criteria_verdicts(p, MODEL, 0.6)["decay"] == "divergent"
    with pytest.raises(ConfigError):
        integral_criteria_verdicts(p, MODEL, 1.2)


def test_integral_criteria_verdicts_agree_binary():
    v = integral_criteria_verdicts(Payoff.binary(1.0), MODEL, 0.3)
    assert set(v) == {"decay", "grad", "hess"}
    assert len(set(v.values())) == 1 and v["decay"] == "finite"
    v = integral_criteria_verdicts(Payoff.binary(1.0), MODEL, 0.7)
    assert len(set(v.values())) == 1 and v["decay"] == "divergent"


def test_growth_criteria_exponents_call():
    e = growth_criteria_exponents(Payoff.call(1.0), MODEL)
    vals = list(e.values())
    assert max(vals) - min(vals) <= 0.08
    assert all(0.9 <= v <= 1.0 for v in vals)
