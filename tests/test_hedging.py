import math

import numpy as np
import pytest

from fracsmooth import hedging as hg
from fracsmooth import payoffs as po
from fracsmooth.chaos import indicator_expansion
from fracsmooth.errors import ConfigError
from fracsmooth.hedging import (l2_tracking_error, tracking_error_process,
                                tracking_error_terminal, z_regularity)
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import Payoff
from fracsmooth.quadrature import gauss_normal_nodes
from fracsmooth.ratefit import sweep
from fracsmooth.timenets import make_theta_net

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)


def test_affine_hedge_is_exact():
    p = Payoff.affine(0.5, 2.0)
    net = make_theta_net(16, 1.0, 1.0)
    for measure in ("martingale", "historical"):
        sample = tracking_error_terminal(p, MODEL, net, 500, 7,
                                         measure=measure)
        assert np.max(np.abs(sample.terminal_errors)) < 1e-12


def test_terminal_error_centered_under_martingale_measure():
    p = Payoff.call(1.0)
    net = make_theta_net(32, 1.0, 1.0)
    sample = tracking_error_terminal(p, MODEL, net, 50_000, 11)
    errs = sample.terminal_errors
    assert abs(errs.mean()) < 4.0 * errs.std() / math.sqrt(errs.size)


def test_error_shrinks_with_refinement():
    p = Payoff.call(1.0)
    e_coarse = l2_tracking_error(p, MODEL, make_theta_net(8, 1.0, 1.0),
                                 20_000, 5)
    e_fine = l2_tracking_error(p, MODEL, make_theta_net(128, 1.0, 1.0),
                               20_000, 5)
    assert e_fine.l2_error < 0.5 * e_coarse.l2_error
    assert e_fine.stderr > 0.0


def test_process_values_at_eval_times():
    p = Payoff.call(1.0)
    net = make_theta_net(8, 1.0, 1.0)
    ev = [0.3, 0.6]
    sample = tracking_error_process(p, MODEL, net, 2000, 13, ev)
    assert sample.process_values.shape == (2000, 2)
    # the tracking error is a martingale started at 0 under the pricing
    # measure, so each time slice is centered
    for col in range(2):
        v = sample.process_values[:, col]
        assert abs(v.mean()) < 4.0 * v.std() / math.sqrt(v.size)
    with pytest.raises(ConfigError):
        tracking_error_process(p, MODEL, net, 10, 0, [1.0])


def test_thread_invariance():
    p = Payoff.binary(1.0)
    net = make_theta_net(16, 0.5, 1.0)
    a = tracking_error_terminal(p, MODEL, net, 5000, 3, threads=1)
    b = tracking_error_terminal(p, MODEL, net, 5000, 3, threads=8)
    np.testing.assert_array_equal(a.terminal_errors, b.terminal_errors)


def test_net_maturity_mismatch_rejected():
    p = Payoff.call(1.0)
    net = make_theta_net(8, 1.0, 2.0)
    with pytest.raises(ConfigError):
        tracking_error_terminal(p, MODEL, net, 10, 0)
    with pytest.raises(ConfigError):
        l2_tracking_error(p, MODEL, make_theta_net(8, 1.0, 1.0), 1, 0)


def test_z_regularity_matches_monte_carlo_binary():
    p = Payoff.binary(1.0)
    net = make_theta_net(16, 1.0, 1.0)
    quad = z_regularity(p, MODEL, net)
    m = 100_000
    sq = tracking_error_terminal(p, MODEL, net, m, 17).terminal_errors ** 2
    se = sq.std(ddof=1) / math.sqrt(m)
    assert abs(sq.mean() - quad) < 3.0 * se


def test_z_regularity_affine_vanishes():
    # the integrand is an exact cancellation of O(10)-sized terms, so the
    # quadrature leaves rounding residue far below any hedging error
    p = Payoff.affine(1.0, 3.0)
    net = make_theta_net(4, 1.0, 1.0)
    assert abs(z_regularity(p, MODEL, net)) < 1e-5


def test_z_regularity_refinement_halves_error():
    p = Payoff.call(1.0)
    a = z_regularity(p, MODEL, make_theta_net(8, 1.0, 1.0))
    b = z_regularity(p, MODEL, make_theta_net(16, 1.0, 1.0))
    assert b == pytest.approx(a / 2.0, rel=0.1)


def _bridge_law(a, t, s):
    """Mean and sd of ln S_a given S_t = s, for 0 < a < t."""
    sig, x0 = MODEL.sigma, math.log(MODEL.s0)
    mu = (x0 - 0.5 * sig * sig * a
          + (a / t) * (np.log(s) - x0 + 0.5 * sig * sig * t))
    return mu, sig * math.sqrt(a * (t - a) / t)


def _bridge_average(p, a, mu, v):
    """96-node Gauss-Hermite average of delta(a, e^L) over L ~ N(mu, v^2)."""
    xi, wi = gauss_normal_nodes(96)
    sa = np.exp(mu[:, None] + v * xi[None, :])
    return np.asarray(po.delta(p, MODEL, a, sa.ravel())).reshape(sa.shape) @ wi


@pytest.mark.parametrize("p", [
    Payoff.binary(1.0), Payoff.call(1.0), Payoff.put(1.0),
    Payoff.affine(0.5, 2.0), Payoff.chaos(indicator_expansion(0.5, 64)),
    Payoff.power_holder(1.0, 0.25)], ids=lambda p: p.kind)
def test_bridge_average_of_delta_is_a_delta(p):
    # E[delta(a, S_a) | S_t] = delta(a^2/t, e^{mu - v^2/2}) for any payoff
    s = np.array([0.7, 0.95, 1.05, 1.4])
    for a, t in ((0.3, 0.7), (0.9, 0.99), (0.5, 0.5 + 1e-7)):
        mu, v = _bridge_law(a, t, s)
        exact = po.delta(p, MODEL, a * a / t, np.exp(mu - 0.5 * v * v))
        np.testing.assert_allclose(_bridge_average(p, a, mu, v), exact,
                                   rtol=1e-12, atol=0.0, err_msg=f"{a}, {t}")


def test_z_regularity_bridge_identity_matches_bridge_quadrature(monkeypatch):
    p = Payoff.binary(1.0)
    net = make_theta_net(32, 0.4, 1.0)
    exact = z_regularity(p, MODEL, net)

    def bridge_mean(self, a, t, x):
        return _bridge_average(p, a, *_bridge_law(a, t, np.exp(x)))

    monkeypatch.setattr(hg._Tables, "bridge_mean", bridge_mean)
    assert z_regularity(p, MODEL, net) == pytest.approx(exact, rel=1e-12)


def test_sweep_shares_delta_tables_across_nested_nets(monkeypatch):
    # equidistant dyadic nets are nested with bit-identical nodes, so the
    # sweep over n = 8..128 tabulates each of the 128 distinct times once
    # (not 8 + 16 + ... + 128 = 248 times); a cheap stand-in delta keeps
    # the count, not the hedge, under test
    times = []

    def counting_delta(p, model, t, s, **kw):
        times.append(float(t))
        return np.zeros_like(s)

    monkeypatch.setattr(po, "delta", counting_delta)
    sweep(Payoff.power_holder(1.0, 0.25), MODEL, 1.0, [8, 16, 32, 64, 128],
          50, 1)
    assert len(times) == 128
    assert len(set(times)) == 128
