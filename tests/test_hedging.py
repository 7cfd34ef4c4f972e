import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ndtr

from fracsmooth import model
from fracsmooth import payoffs as po
from fracsmooth.chaos import indicator_expansion
from fracsmooth.errors import ConfigError, QuadratureError, SimulationError
from fracsmooth import hedging
from fracsmooth.hedging import (_delta_evaluator, _hermite_lookup,
                                _holder_nodes, _holder_table, _l2_estimates,
                                l2_tracking_error, tracking_error_process,
                                tracking_error_terminal, z_regularity)
from fracsmooth.model import MarketModel
from fracsmooth.payoffs import Payoff
from fracsmooth.quadrature import gauss_normal_nodes
from fracsmooth.ratefit import sweep
from fracsmooth.timenets import make_theta_net

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)
_KINDS = [
    Payoff.binary(1.0), Payoff.call(1.0), Payoff.put(1.0),
    Payoff.affine(0.5, 2.0), Payoff.chaos(indicator_expansion(0.5, 64)),
    Payoff.power_holder(1.0, 0.25)]


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
    # at T, repeated, unsorted or NaN times are rejected, not returned
    # as uninitialized or misordered columns
    for bad in ([1.0], [0.3, 0.3], [0.6, 0.3], [0.3, math.nan], []):
        with pytest.raises(ConfigError):
            tracking_error_process(p, MODEL, net, 10, 0, bad)


@pytest.mark.parametrize("m", [0, -3])
def test_hedge_rejects_path_count_below_one(m):
    net = make_theta_net(4, 1.0, 1.0)
    with pytest.raises(ConfigError, match="path count m must be >= 1"):
        tracking_error_terminal(Payoff.call(1.0), MODEL, net, m, 0)


def test_thread_invariance():
    p = Payoff.binary(1.0)
    net = make_theta_net(16, 0.5, 1.0)
    a = tracking_error_terminal(p, MODEL, net, 5000, 3, threads=1)
    b = tracking_error_terminal(p, MODEL, net, 5000, 3, threads=8)
    np.testing.assert_array_equal(a.terminal_errors, b.terminal_errors)


def test_process_identical_across_threads_on_many_blocks(monkeypatch):
    # the power-Holder C_t prices every block's spots by quadrature, whose
    # matrix products round a spot by its row in the block, so only a
    # layout fixed across thread counts keeps the bits
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    p = Payoff.power_holder(1.0, 0.25)
    net = make_theta_net(8, 1.0, 1.0)
    runs = [tracking_error_process(p, MODEL, net, 500, 29, [0.3, 0.6],
                                   threads=threads)
            for threads in (1, 2, 3)]
    for r in runs[1:]:
        np.testing.assert_array_equal(r.process_values,
                                      runs[0].process_values)
        np.testing.assert_array_equal(r.terminal_errors,
                                      runs[0].terminal_errors)


@pytest.mark.parametrize("p", [Payoff.call(1.0), Payoff.binary(1.0)],
                         ids=["call", "binary"])
@pytest.mark.parametrize("m", [2, 129, 1001])
def test_merged_moments_are_those_of_the_whole_sample(p, m, monkeypatch):
    # each block reduces its squared errors to (count, mean, M2), merged
    # in block order; with 64-path blocks, 129 and 1,001 paths split into
    # 4 and 16 blocks of unequal sizes, and the merge still gives numpy's
    # mean and sample sd of the whole sample's squares
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    net = make_theta_net(16, 0.4, 1.0)
    est = l2_tracking_error(p, MODEL, net, m, 11, threads=2)
    sq = tracking_error_terminal(p, MODEL, net, m, 11).terminal_errors ** 2
    np.testing.assert_allclose(
        [est.l2_error ** 2, est.stderr],
        [sq.mean(), sq.std(ddof=1) / math.sqrt(m)], rtol=1e-13)


def test_errors_that_overflow_a_float_are_refused():
    # at s0 = K = 1e160 the errors are finite, about 1e159, but their
    # squares overflow; under a drift of 1e300 the paths themselves do
    net = make_theta_net(8, 1.0, 1.0)
    big = MarketModel(s0=1e160, sigma=1.0)
    with pytest.raises(SimulationError, match="moments must be finite"):
        l2_tracking_error(Payoff.call(1e160), big, net, 200, 1, threads=2)
    fast = MarketModel(s0=1.0, sigma=1.0, mu=1e300)
    for run in (l2_tracking_error, tracking_error_terminal):
        with pytest.raises(SimulationError, match="error is not finite"):
            run(Payoff.call(1.0), fast, net, 200, 1, measure="historical")


def _deltas(p, m, t, x, s):
    """The hedging loop's deltas at t, ln-spots x and spots s, for paths
    without drift, and the count it valued beyond its table."""
    out = np.empty(np.size(x))
    off = _delta_evaluator(p, m, 0.0, t)[0](x, s, out)
    return out, off


@settings(max_examples=60)
@given(kind=st.sampled_from(["binary", "call", "put", "affine"]),
       s=st.floats(1e-3, 1e3), strike=st.floats(0.05, 20.0),
       sigma=st.floats(0.01, 5.0), t=st.floats(0.0, 0.999))
def test_log_delta_evaluator_is_payoffs_delta(kind, s, strike, sigma, t):
    # the hedging loop's evaluator reads x = ln s alone (its spots here
    # are NaN) and shares its formula with payoffs.delta for every
    # closed-form kind, so the bits agree; the binary's one-exp form is
    # also checked against phi(d2) / (s v) as written in s
    p = (Payoff.affine(0.5, strike) if kind == "affine"
         else Payoff(kind=kind, strike=strike))
    m = MarketModel(s0=1.0, sigma=sigma, T=1.0)
    spots = s * np.array([0.5, 1.0, 2.0])
    got, off = _deltas(p, m, t, np.log(spots), np.full(3, np.nan))
    np.testing.assert_array_equal(got, po.delta(p, m, t, spots))
    assert off == 0
    if kind == "binary":
        v = sigma * math.sqrt(1.0 - t)
        d2 = (np.log(spots / strike) - 0.5 * v * v) / v
        ref = np.exp(-0.5 * d2 * d2) / (math.sqrt(2.0 * math.pi) * spots * v)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_power_holder_with_no_table_range_is_valued_by_the_engine():
    # at s0 = K = 1e200 and sigma 1e-20 both ends of the paths' ln-price
    # range round to ln K: there is no table, and each spot's delta is
    # the engine's
    p, m = Payoff.power_holder(1e200, 0.5), MarketModel(1e200, 1e-20)
    assert _holder_table(p, m, 0.0, 0.0) is None
    spots = 1e200 * np.array([1.0 - 1e-15, 1.0, 1.0 + 1e-15])
    got, off = _deltas(p, m, 0.0, np.log(spots), spots)
    np.testing.assert_array_equal(got, po.delta(p, m, 0.0, spots))
    assert off == 0
    assert _delta_evaluator(p, m, 0.0, 0.0)[1] == 0.0


def _table_ref(p, m, t):
    """The table at t as scipy's cubic Hermite in xi: ``(xi, vals, ref,
    from_xi)`` with ``ref(q)`` the spline at the xi of ln-spots q and
    ``from_xi(u)`` the ln-spot ln K + a sinh(u) of xi = u."""
    xi, vals, slopes, a, _ = _holder_table(p, m, t, 0.0)
    lk = math.log(p.strike)
    spline = CubicHermiteSpline(xi, vals, slopes)

    def to_xi(q):
        return np.arcsinh((q - lk) / a)

    return xi, vals, lambda q: spline(to_xi(q)), lambda u: lk + a * np.sinh(u)


@settings(max_examples=40)
@given(sigma=st.floats(0.02, 4.0), strike=st.floats(0.2, 5.0),
       s0=st.floats(0.2, 5.0), t=st.floats(0.0, 0.999),
       holder=st.floats(0.1, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_power_holder_lookup_is_cubic_hermite_in_xi(sigma, strike, s0, t,
                                                    holder, seed):
    # the table's nodes are uniform in xi = asinh((ln s - ln K) / a), an
    # even number of cells covering the paths' ln-price range [lo, hi],
    # and the O(1) lookup (a floor for the cell) is the cubic Hermite in
    # xi that scipy builds from the same values and xi-slopes: at every
    # node, its float neighbours, both ends and inside points
    p = Payoff.power_holder(strike, holder)
    m = MarketModel(s0=s0, sigma=sigma, T=1.0)
    xi, vals, ref, from_xi = _table_ref(p, m, t)
    lo, hi = hedging._log_range(m, 0.0)
    assert (xi.size - 1) % 2 == 0
    np.testing.assert_allclose(np.diff(xi), (xi[-1] - xi[0]) / (xi.size - 1),
                               rtol=1e-9)
    x = from_xi(xi)
    np.testing.assert_allclose(x[[0, -1]], [lo, hi], rtol=1e-13, atol=1e-13)
    rng = np.random.default_rng(seed)
    q = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        [lo, hi], rng.uniform(lo, hi, 400)])
    q = np.clip(q, lo, hi)
    got, off = _deltas(p, m, t, q, np.exp(q))
    np.testing.assert_allclose(got, ref(q), rtol=1e-12,
                               atol=1e-13 * np.abs(vals).max())
    assert off == 0


@pytest.mark.parametrize("t", [0.0, 0.5, 127.0 / 128.0, 1.0 - 2.0 ** -10])
def test_power_holder_evaluator_is_cubic_hermite(t):
    # the hedging loop's power-Holder delta is the cubic Hermite
    # interpolant in xi of the table's deltas and xi-slopes, as scipy
    # builds it on the same nodes, and it returns the nodes' own deltas
    p = Payoff.power_holder(1.0, 0.25)
    xi, vals, ref, from_xi = _table_ref(p, MODEL, t)
    x = from_xi(xi)
    rng = np.random.default_rng(17)
    q = np.concatenate([np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        from_xi(0.5 * (xi[1:] + xi[:-1])),
                        rng.uniform(x[0], x[-1], 4000)])
    q = q[(q >= x[0]) & (q <= x[-1])]
    got, _ = _deltas(p, MODEL, t, q, np.exp(q))
    atol = 1e-13 * np.abs(vals).max()
    np.testing.assert_allclose(got, ref(q), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(_deltas(p, MODEL, t, x, np.exp(x))[0], vals,
                               rtol=1e-12, atol=atol)


def test_power_holder_evaluator_values_off_table_spots():
    # spots beyond the table's ln-price range are valued by the engine,
    # not given the delta at the nearer end, and counted
    p = Payoff.power_holder(1.0, 0.25)
    t = 0.5
    _, _, ref, _ = _table_ref(p, MODEL, t)
    lo, hi = hedging._log_range(MODEL, 0.0)
    off = np.array([lo - 2.0, np.nextafter(lo, -np.inf),
                    np.nextafter(hi, np.inf), hi + 2.0])
    q = np.concatenate([off[:2], [0.0], off[2:]])
    got, count = _deltas(p, MODEL, t, q, np.exp(q))
    is_off = np.arange(q.size) != 2
    np.testing.assert_array_equal(got[is_off],
                                  po.delta(p, MODEL, t, np.exp(off)))
    assert got[2] == pytest.approx(float(ref(0.0)), rel=1e-12)
    assert got[0] != got[1] and got[-1] != got[-2]
    assert count == 4


def test_off_table_count_is_exact_across_threads(monkeypatch):
    # each block counts the spots it values beyond the tables and the
    # walk sums the counts: with the tables' ln-price range narrowed to
    # +-0.5 sd, the count is the same at threads 1 to 3 over 8 blocks,
    # and it is the number of the walk's ln-spots beyond that range at
    # the nodes where the net rebalances
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)

    def narrow(m, drift):
        mean = math.log(m.s0) + (drift - 0.5 * m.sigma ** 2) * m.T
        span = 0.5 * m.sigma * math.sqrt(m.T)
        return mean - span, mean + span

    monkeypatch.setattr(hedging, "_log_range", narrow)
    p, seed = Payoff.power_holder(1.0, 0.25), 3
    net = make_theta_net(8, 1.0, 1.0)
    counts = [_l2_estimates(p, MODEL, "martingale", [net], 500, seed,
                            threads)[1]["off_table_spots"]
              for threads in (1, 2, 3)]
    xs = np.concatenate(model.map_blocks(
        lambda s, c: np.array([x.copy() for _, x in model._walk(
            MODEL, net.nodes, seed, s, c, 0.0)]), 500), axis=1)
    lo, hi = narrow(MODEL, 0.0)
    want = int(np.count_nonzero((xs[:-1] < lo) | (xs[:-1] > hi)))
    assert want > 500
    assert counts == [want] * 3


@pytest.mark.parametrize("holder, theta, n", [(0.25, 0.4, 512),
                                              (0.25, 1.0, 512),
                                              (0.5, 0.4, 64)])
def test_power_holder_table_error_within_tolerance(holder, theta, n):
    # the hedged delta against the engine's at the cell midpoints of the
    # last three tables of a net, where the delta is steepest; relative
    # to max(|delta|, 1), as the table's own check measures it
    p = Payoff.power_holder(1.0, holder)
    worst = 0.0
    for t in make_theta_net(n, theta, 1.0).nodes[-4:-1]:
        xi, a = _holder_nodes(p, MODEL, t, 0.0)
        q = a * np.sinh(0.5 * (xi[1:] + xi[:-1]))   # ln K = 0
        got, _ = _deltas(p, MODEL, t, q, np.exp(q))
        ref = po.delta(p, MODEL, t, np.exp(q))
        worst = max(worst, float(np.max(np.abs(got - ref)
                                        / np.maximum(np.abs(ref), 1.0))))
    assert worst <= hedging._TABLE_RTOL


@pytest.mark.parametrize("holder", [0.1, 0.25, 0.5, 0.9])
def test_table_error_estimate_tracks_midpoint_error(holder):
    # the every-other-node gap over 16 is within a factor 1.5 of the true
    # error at the cell midpoints, from T - t = 1 down to 1.7e-7 (the
    # last interval of a theta = 0.4 net at n = 512)
    p = Payoff.power_holder(1.0, holder)
    for tau in (1.0, 1.0 / 128.0, 3e-5, 512.0 ** -2.5):
        t = 1.0 - tau
        xi, vals, slopes, a, ratio = _holder_table(p, MODEL, t, 0.0)
        mid = 0.5 * (xi[1:] + xi[:-1])
        ref = po.delta(p, MODEL, t, np.exp(a * np.sinh(mid)))
        got = CubicHermiteSpline(xi, vals, slopes)(mid)
        true = float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))
        est = ratio * hedging._TABLE_RTOL
        assert est / 1.5 <= true <= 1.5 * est, (tau, est, true)


def test_table_beyond_tolerance_refines_then_raises(monkeypatch):
    # a table halves its cells while its estimate exceeds the tolerance,
    # calling the engine only at the new midpoints, and raises once the
    # refinements run out
    p = Payoff.power_holder(1.0, 0.25)
    xi0, _ = _holder_nodes(p, MODEL, 0.5, 0.0)
    xi, _, _, _, ratio = _holder_table(p, MODEL, 0.5, 0.0)
    assert xi.size == xi0.size and ratio <= 1.0
    calls = []
    valuate = po._valuate

    def counting(p, model, t, s, want):
        calls.append(np.size(s))
        return valuate(p, model, t, s, want)

    monkeypatch.setattr(po, "_valuate", counting)
    monkeypatch.setattr(hedging, "_TABLE_RTOL",
                        0.1 * ratio * hedging._TABLE_RTOL)
    xi, _, _, _, ratio = _holder_table(p, MODEL, 0.5, 0.0)
    assert xi.size == 2 * xi0.size - 1 and ratio <= 1.0
    assert calls == [xi0.size, xi0.size - 1]
    monkeypatch.setattr(hedging, "_TABLE_RTOL", 1e-30)
    with pytest.raises(QuadratureError, match="delta table"):
        _delta_evaluator(p, MODEL, 0.0, 0.5)
    # a cubic that overflows on a cell narrower than the check's is refused
    with pytest.raises(QuadratureError, match="not finite"):
        _hermite_lookup(np.array([0.0, 1e-300, 1.0]),
                        np.array([0.0, 1.0, 0.0]), np.zeros(3), 0.0, 1.0)


@pytest.mark.parametrize("kind", ["binary", "call"])
def test_underflowing_spot_rejected(kind):
    # with mu = -1000, ln S falls by 125 a step and S underflows to 0
    # by the sixth node; the log state stays finite there, but a zero
    # spot is still refused where its delta is needed, not hedged on
    p = Payoff(kind=kind, strike=1.0)
    m = MarketModel(s0=1.0, sigma=1.0, mu=-1000.0, T=1.0)
    with pytest.raises(ConfigError, match="price argument s must be > 0"):
        tracking_error_terminal(p, m, make_theta_net(8, 1.0, 1.0), 100, 0,
                                measure="historical")


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


@settings(max_examples=100)
@given(kind=st.sampled_from(["call", "put", "binary"]), n=st.integers(2, 32),
       theta=st.floats(0.3, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_mean_square_is_z_regularity(kind, n, theta, seed):
    # under the martingale measure E[C_T^2] is z_regularity exactly, so
    # the walk's mean square on the same net lies within 5 of its
    # standard errors of the quadrature
    p, net = getattr(Payoff, kind)(1.0), make_theta_net(n, theta, 1.0)
    est = l2_tracking_error(p, MODEL, net, 4000, seed, threads=2)
    quad = z_regularity(p, MODEL, net)
    assert abs(est.l2_error ** 2 - quad) <= 5.0 * est.stderr, (est, quad)


def test_z_regularity_affine_vanishes():
    # the integrand is an exact cancellation of O(10)-sized terms, so the
    # quadrature leaves rounding residue far below any hedging error
    p = Payoff.affine(1.0, 3.0)
    net = make_theta_net(4, 1.0, 1.0)
    assert abs(z_regularity(p, MODEL, net)) < 1e-5


def test_z_regularity_rejects_negative_or_non_finite(monkeypatch):
    # the result is Var h(S_T) less the one-step terms, so a variance
    # that is too low turns negative instead of being returned
    p = Payoff.call(1.0)
    net = make_theta_net(4, 1.0, 1.0)
    for var in (0.0, math.nan):
        monkeypatch.setattr(po, "conditional_variance", lambda *a: var)
        with pytest.raises(QuadratureError):
            z_regularity(p, MODEL, net)


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


@pytest.mark.parametrize("p", _KINDS, ids=lambda p: p.kind)
def test_bridge_average_of_delta_is_a_delta(p):
    # E[delta(a, S_a) | S_t] = delta(a^2/t, e^{mu - v^2/2}) for any payoff
    s = np.array([0.7, 0.95, 1.05, 1.4])
    for a, t in ((0.3, 0.7), (0.9, 0.99), (0.5, 0.5 + 1e-7)):
        mu, v = _bridge_law(a, t, s)
        exact = po.delta(p, MODEL, a * a / t, np.exp(mu - 0.5 * v * v))
        np.testing.assert_allclose(_bridge_average(p, a, mu, v), exact,
                                   rtol=1e-12, atol=0.0, err_msg=f"{a}, {t}")


@pytest.mark.parametrize("p", _KINDS, ids=lambda p: p.kind)
def test_share_measure_identity(p):
    # E[H(b, S_b) S_b | S_a = s] = s H(a, s e^{sigma^2 (b - a)}): the
    # price under the share measure, on which z_regularity rests
    s = np.array([0.7, 0.95, 1.05, 1.4])
    z, wz = gauss_normal_nodes(96)
    for a, b in ((0.0, 0.5), (0.3, 0.7), (0.6, 0.9)):
        v = MODEL.sigma * math.sqrt(b - a)
        sb = s[:, None] * np.exp(v * z - 0.5 * v * v)
        hb = np.asarray(po.price(p, MODEL, b, sb.ravel())).reshape(sb.shape)
        exact = s * po.price(p, MODEL, a, s * math.exp(v * v))
        np.testing.assert_allclose((hb * sb) @ wz, exact, rtol=1e-12,
                                   atol=0.0, err_msg=f"{a}, {b}")


def _binary_step_error(a, b, s):
    """E[(H(b, S_b) - H(a, s) - delta(a, s)(S_b - s))^2 | S_a = s] for the
    binary of strike 1 under MODEL: 96-node Gauss-Hermite before maturity, and the lognormal
    moments E 1{S_T >= K} = Phi(d2), E S_T 1{S_T >= K} = s Phi(d1) and
    E S_T^2 = s^2 e^{v^2} on the last interval."""
    p = Payoff.binary(1.0)
    h, d = po.price(p, MODEL, a, s), po.delta(p, MODEL, a, s)
    v = MODEL.sigma * math.sqrt(b - a)
    if b < MODEL.T:
        z, wz = gauss_normal_nodes(96)
        sb = s[:, None] * np.exp(v * z - 0.5 * v * v)
        hb = np.reshape(po.price(p, MODEL, b, sb.ravel()), sb.shape)
        e = hb - h[:, None] - d[:, None] * (sb - s[:, None])
        return (e * e) @ wz
    d2 = (np.log(s) - 0.5 * v * v) / v
    ex, exs, c = ndtr(d2), s * ndtr(d2 + v), h - d * s
    return (ex - 2.0 * c * ex - 2.0 * d * exs + c * c + 2.0 * c * d * s
            + d * d * s * s * math.exp(v * v))


def _binary_reference(net):
    """sum_i E[D_i^2] from the definition, the outer expectation over
    ln S_a ~ N(-a/2, a) by 20-node Legendre panels split at the strike, each at most
    half the sd of ln S_a and half the kink width sigma sqrt(T - a)."""
    gx, gw = np.polynomial.legendre.leggauss(20)
    total = 0.0
    for a, b in zip(net.nodes[:-1], net.nodes[1:]):
        if a == 0.0:
            total += float(_binary_step_error(0.0, b, np.array([MODEL.s0]))[0])
            continue
        m, sd = -0.5 * a, math.sqrt(a)
        width = 0.5 * min(sd, math.sqrt(MODEL.T - a))
        edges = np.arange(-math.ceil(12.0 * sd / width) - 1,
                          math.ceil(12.0 * sd / width) + 2) * width
        x = (edges[:-1, None] + 0.5 * width * (1.0 + gx)).ravel()
        w = np.tile(0.5 * width * gw, edges.size - 1)
        dens = np.exp(-0.5 * ((x - m) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        total += float((w * dens) @ _binary_step_error(a, b, np.exp(x)))
    return total


@pytest.mark.parametrize("n, theta", [(4, 1.0), (8, 0.4)])
def test_z_regularity_binary_matches_definition(n, theta):
    net = make_theta_net(n, theta, 1.0)
    assert z_regularity(Payoff.binary(1.0), MODEL, net) == pytest.approx(
        _binary_reference(net), rel=1e-9)


def test_z_regularity_matches_monte_carlo_power_holder():
    p = Payoff.power_holder(1.0, 0.25)
    net = make_theta_net(8, 1.0, 1.0)
    quad = z_regularity(p, MODEL, net)
    m = 20_000
    sq = tracking_error_terminal(p, MODEL, net, m, 23).terminal_errors ** 2
    se = sq.std(ddof=1) / math.sqrt(m)
    assert abs(sq.mean() - quad) < 3.0 * se


@pytest.mark.parametrize("theta", [1.0, 0.4])
@pytest.mark.parametrize("n", [4, 16])
def test_z_regularity_put_call_parity(n, theta):
    # call - put = S - K is hedged exactly, so both leave the same error
    net = make_theta_net(n, theta, 1.0)
    assert z_regularity(Payoff.call(1.0), MODEL, net) == pytest.approx(
        z_regularity(Payoff.put(1.0), MODEL, net), rel=1e-6)


def test_sweep_shares_delta_tables_across_nested_nets(monkeypatch):
    # equidistant dyadic nets are nested with bit-identical nodes, so the
    # sweep over n = 8..128 tabulates each of the 128 distinct times once
    # (not 8 + 16 + ... + 128 = 248 times); a cheap stand-in for the
    # tables' delta-and-gamma engine calls keeps the count, not the
    # hedge, under test
    times = []
    valuate = po._valuate

    def counting(p, model, t, s, want):
        if "gamma" not in want:
            return valuate(p, model, t, s, want)
        times.append(float(t))
        return {q: np.zeros_like(s) for q in want}

    monkeypatch.setattr(po, "_valuate", counting)
    sweep(Payoff.power_holder(1.0, 0.25), MODEL, 1.0, [8, 16, 32, 64, 128],
          50, 1)
    assert len(times) == 128
    assert len(set(times)) == 128


_NESTED = st.builds(lambda n0, k: [n0 << i for i in range(k)],
                    st.integers(2, 3), st.integers(2, 4))
_ANY_NS = st.lists(st.integers(2, 24), min_size=2, max_size=4, unique=True)


@pytest.mark.parametrize("nested", [True, False],
                         ids=["nested", "non-nested"])
@settings(max_examples=30)
@given(data=st.data(), theta=st.floats(0.3, 1.0), m=st.integers(2, 300))
def test_nets_hedge_on_one_walk(nested, data, theta, m):
    # every net of a walk reads all m paths of one path matrix on the
    # union of the nets' nodes, at its own nodes: a reference built from
    # that matrix, walked block by block over map_blocks' spans of m,
    # with the loop's operations in the loop's order, gives the same
    # bits.  The non-nested case draws any distinct n, and 64-path blocks
    # put up to 6 blocks in the walk
    ns = data.draw(_NESTED if nested else _ANY_NS, label="ns")
    p, seed = Payoff.binary(1.0), 5
    nets = [make_theta_net(n, theta, 1.0) for n in ns]
    saved, model.BLOCK_PATHS = model.BLOCK_PATHS, 64
    try:
        got, health = hedging._run(p, MODEL, "martingale", nets, m, seed,
                                   None, 2, lambda errors, values: errors)
        grid = functools.reduce(np.union1d, [net.nodes for net in nets])
        xs = np.concatenate(model.map_blocks(
            lambda s, c: np.array([x.copy() for _, x in model._walk(
                MODEL, grid, seed, s, c, 0.0)]), m), axis=1)
    finally:
        model.BLOCK_PATHS = saved
    assert health == {}
    ss = np.exp(xs)
    h0 = po.price(p, MODEL, 0.0, 1.0)
    for net, rows in zip(nets, got):
        at = np.searchsorted(grid, net.nodes)
        np.testing.assert_array_equal(grid[at], net.nodes)
        acc = np.zeros(m)
        for a, b in zip(at[:-1], at[1:]):
            held, _ = _deltas(p, MODEL, grid[a], xs[a], ss[a])
            acc += (ss[b] - ss[a]) * held
        ref = po.payoff_eval(p, ss[-1]) - h0 - acc
        np.testing.assert_array_equal(np.concatenate(rows), ref)
