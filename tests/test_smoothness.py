import math

import numpy as np
import pytest
from scipy.special import ndtr

from fracsmooth import smoothness
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
    # depth 50 reaches T - t = 2^-50, below 1e-12
    for depth in (20, 50):
        grid = default_t_grid(MODEL, depth)
        est_b = estimate_theta_sup(conditional_l2_decay(Payoff.binary(1.0),
                                                        MODEL, grid))
        assert est_b.theta_hat == pytest.approx(0.5, abs=0.01 if depth == 50
                                                else 0.02)
        est_c = estimate_theta_sup(conditional_l2_decay(Payoff.call(1.0),
                                                        MODEL, grid))
        assert 0.95 <= est_c.theta_hat <= 1.0
        assert est_b.residual_rms < 0.05 and est_c.residual_rms < 0.05


def test_binary_decay_keeps_its_rate_near_maturity():
    # D ~ c (T - t)^(1/4) for the binary from T - t = 2^-36 to 2^-50: T - t
    # is taken exactly, where a floor at 1e-12 left D flat from 2^-40 on
    u = 2.0 ** -np.arange(36.0, 51.0)
    curve = conditional_l2_decay(Payoff.binary(1.0), MODEL, 1.0 - u)
    slopes = np.diff(np.log(curve.D)) / np.diff(np.log(u))
    np.testing.assert_allclose(slopes, 0.25, atol=1e-3)


def test_theta_hat_needs_enough_points():
    curve = conditional_l2_decay(Payoff.call(1.0), MODEL,
                                 default_t_grid(MODEL, 5))
    with pytest.raises(ConfigError):
        estimate_theta_sup(curve)


def test_degenerate_curve_rejected():
    grid = default_t_grid(MODEL, 20)
    curve = DecayCurve(t_grid=grid, D=np.zeros_like(grid), model=MODEL)
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


def _all_octave_integrals(p, weight_exps):
    """Every one of the _OCTAVES octave integrals, shallowest first."""
    gx, gw = np.polynomial.legendre.leggauss(smoothness._OCTAVE_ORDER)
    vals = {c: np.empty(smoothness._OCTAVES) for c in weight_exps}
    for j in range(smoothness._OCTAVES):
        hi, lo = MODEL.T * 2.0 ** -j, MODEL.T * 2.0 ** -(j + 1)
        la, lb = math.log(lo), math.log(hi)
        lt = 0.5 * (la + lb) + 0.5 * (lb - la) * gx
        u = np.exp(lt)
        w = 0.5 * (lb - la) * gw * u
        acc = dict.fromkeys(weight_exps, 0.0)
        for uu, ww in zip(u, w):
            f = smoothness._criteria_at(p, MODEL, MODEL.T - uu, weight_exps)
            for c, e in weight_exps.items():
                acc[c] += ww * uu ** e * f[c]
        for c in weight_exps:
            vals[c][j] = acc[c]
    return vals


@pytest.mark.parametrize("p, theta", [(Payoff.binary(1.0), 0.3),
                                      (Payoff.power_holder(1.0, 0.25), 0.5)])
def test_verdicts_evaluate_only_the_tail_octaves(p, theta, monkeypatch):
    # the verdict reads the deepest _TAIL_OCTAVES increments, so those
    # are the only octaves evaluated, with the bits of the full loop
    exps = {"decay": -1.0 - theta, "grad": -theta, "hess": 1.0 - theta}
    full = _all_octave_integrals(p, exps)
    calls = []
    criteria_at = smoothness._criteria_at

    def recording(p, model, t, want):
        calls.append(t)
        return criteria_at(p, model, t, want)

    monkeypatch.setattr(smoothness, "_criteria_at", recording)
    verdicts = integral_criteria_verdicts(p, MODEL, theta)
    assert len(calls) == smoothness._TAIL_OCTAVES * smoothness._OCTAVE_ORDER == 32
    shallowest = MODEL.T * 2.0 ** -(smoothness._OCTAVES - smoothness._TAIL_OCTAVES)
    assert all(MODEL.T - t <= shallowest for t in calls)
    tail = smoothness._octave_integrals(p, MODEL, exps)
    for c, v in full.items():
        np.testing.assert_array_equal(tail[c], v[-smoothness._TAIL_OCTAVES:])
        assert verdicts[c] == smoothness._verdict(v)


def test_growth_criteria_exponents_call():
    e = growth_criteria_exponents(Payoff.call(1.0), MODEL)
    vals = list(e.values())
    assert max(vals) - min(vals) <= 0.08
    assert all(0.9 <= v <= 1.0 for v in vals)
