import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import hedging, model, ratefit
from fracsmooth.errors import ConfigError, ExactHedgeError
from fracsmooth.hedging import l2_tracking_error
from fracsmooth.model import MarketModel, child_seed
from fracsmooth.payoffs import Payoff
from fracsmooth.ratefit import fit_rate, fit_summary, sweep, sweep_to_csv
from fracsmooth.timenets import make_theta_net

MODEL = MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)


def _synthetic(slope, ns, c=2.0, se=1e-4):
    return [(n, c * n ** slope, se) for n in ns]


def test_fit_recovers_exact_power_law():
    fit = fit_rate(_synthetic(-0.5, [8, 16, 32, 64, 128]))
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert fit.slope_ci[0] < -0.5 < fit.slope_ci[1]


def test_fit_weighting_downplays_noisy_points():
    pairs = _synthetic(-0.5, [8, 16, 32, 64])
    # corrupt one point but give it a huge reported error
    n, e, _ = pairs[0]
    pairs[0] = (n, e * 3.0, 50.0 * e * e)
    fit = fit_rate(pairs)
    assert fit.slope == pytest.approx(-0.5, abs=0.02)


def test_fit_validation():
    with pytest.raises(ConfigError):
        fit_rate(_synthetic(-0.5, [8, 16, 32]))
    with pytest.raises(ConfigError):
        fit_rate(_synthetic(-0.5, [8, 10, 12, 14]))
    with pytest.raises(ExactHedgeError):
        fit_rate([(n, 0.0, 0.0) for n in [8, 16, 32, 64]])


def test_fit_summary_fields():
    fit = fit_rate(_synthetic(-0.25, [8, 16, 32, 64]))
    payload = json.loads(fit_summary(fit))
    assert set(payload) == {"slope", "slope_lo", "slope_hi", "r2"}
    assert payload["slope_lo"] <= payload["slope"] <= payload["slope_hi"]


def test_sweep_needs_five_points():
    with pytest.raises(ConfigError):
        sweep(Payoff.call(1.0), MODEL, 1.0, [8, 16, 32, 64], 100, 0)


@pytest.mark.parametrize("n_list, message", [
    ([128, 192, 256, 384, 448], "span at least 2 octaves"),
    ([4, 8, 8, 16, 32, 32], "at least 4 distinct")])
def test_sweep_refuses_an_unfittable_n_list_before_the_walk(
        n_list, message, monkeypatch):
    # the fit drops n_min, and what it would refuse of the rest is
    # refused before a single path is simulated
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(hedging, "_run", walk)
    with pytest.raises(ConfigError, match=message):
        sweep(Payoff.call(1.0), MODEL, 1.0, n_list, 20_000, 0)


def test_sweep_refuses_one_path_before_the_walk(monkeypatch):
    # one path has no standard error, though the walk's M = min(4 m,
    # round(m sqrt(n_max / n_min))) would be 4 paths
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(hedging, "_run", walk)
    with pytest.raises(ConfigError, match="need m >= 2 paths"):
        sweep(Payoff.call(1.0), MODEL, 1.0, [8, 16, 32, 64, 128], 1, 0)


def test_sweep_refuses_an_overflowing_payoff_before_the_walk(monkeypatch):
    # the payoff's L2 norm scales the round-off test after the walk, but
    # an E[h^2] that overflows a float is refused before any path
    def estimates(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(ratefit, "_l2_estimates", estimates)
    with pytest.raises(ConfigError, match="overflows a float"):
        sweep(Payoff.affine(1e300, 1.0), MODEL, 1.0, [8, 16, 32, 64, 128],
              400_000, 0, threads=2)


def test_sweep_small_run_and_csv(tmp_path):
    res = sweep(Payoff.call(1.0), MODEL, 1.0, [8, 16, 32, 64, 128],
                3000, 42, threads=4)
    assert len(res.estimates) == 5
    # every net reads the walk's M = min(4 m, round(m sqrt(128 / 8))) paths
    assert [e.m for e in res.estimates] == [12_000] * 5
    assert -0.75 < res.fit.slope < -0.3
    path = tmp_path / "sweep.csv"
    sweep_to_csv(path, res, header_lines=["alpha=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha=1"
    assert lines[1] == "n,l2_error,stderr,m"
    assert len(lines) == 7


def test_sweep_deterministic_across_threads():
    a = sweep(Payoff.binary(1.0), MODEL, 0.5, [8, 16, 32, 64, 128],
              1000, 9, threads=1)
    b = sweep(Payoff.binary(1.0), MODEL, 0.5, [8, 16, 32, 64, 128],
              1000, 9, threads=8)
    for ea, eb in zip(a.estimates, b.estimates):
        assert ea.l2_error == eb.l2_error
        assert ea.stderr == eb.stderr


@pytest.mark.parametrize("p, theta", [(Payoff.binary(1.0), 0.4),
                                      (Payoff.power_holder(1.0, 0.25), 1.0)],
                         ids=["binary", "power_holder"])
def test_sweep_csv_identical_across_threads_on_many_blocks(
        p, theta, tmp_path, monkeypatch):
    # 64-path blocks split the walk's 1,200 paths into 20 blocks, which
    # each thread count runs in its own order
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    out = []
    for threads in (1, 2, 3):
        path = tmp_path / f"sweep{threads}.csv"
        sweep_to_csv(path, sweep(p, MODEL, theta, [4, 8, 16, 32, 64], 300,
                                 21, threads=threads))
        out.append(path.read_bytes())
    assert out[0] == out[1] == out[2]


def test_finest_net_estimate_is_its_own_run():
    # the sweep walks once, with seed child_seed(seed, n_max), on the
    # finest of its nested nets, which reads every path of the walk: its
    # estimate is that of the net run on its own, bit for bit
    p = Payoff.call(1.0)
    res = sweep(p, MODEL, 0.4, [8, 16, 32, 64, 128], 500, 3, threads=2)
    fine = res.estimates[-1]
    ref = l2_tracking_error(p, MODEL, make_theta_net(128, 0.4, 1.0), fine.m,
                            child_seed(3, 128))
    assert (fine.l2_error, fine.stderr) == (ref.l2_error, ref.stderr)


def test_sweep_memory_does_not_grow_with_the_path_count(monkeypatch):
    # each path block reduces its own errors to a few moments, so a sweep
    # holds O(nets x block) memory: with 1,024-path blocks, four times the
    # paths (M = 32,000 against 8,000) add a few tuples a block, where one
    # M-sized array per net would add 5 x 24,000 x 8 B = 960 KB
    monkeypatch.setattr(model, "BLOCK_PATHS", 1024)
    p, ns = Payoff.call(1.0), [8, 16, 32, 64, 128]
    sweep(p, MODEL, 1.0, ns, 2000, 3)

    def peak(m):
        tracemalloc.start()
        try:
            sweep(p, MODEL, 1.0, ns, m, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8000) - peak(2000) < 96 * 1024


@pytest.mark.parametrize("p, theta", [(Payoff.binary(1.0), 0.4),
                                      (Payoff.power_holder(1.0, 0.25), 1.0)],
                         ids=["binary", "power_holder"])
def test_non_nested_sweep_identical_across_threads_at_block_boundaries(
        p, theta, tmp_path, monkeypatch):
    # the walk steps the union of nets that are not nested (6, 12 and 24
    # against 8, 16 and 32); with 64-path blocks every net reads the 4
    # blocks of M = 231 paths, and the bytes stay the same at any thread
    # count
    monkeypatch.setattr(model, "BLOCK_PATHS", 64)
    n_list, m = [6, 8, 12, 16, 24, 32], 100
    out = []
    for threads in (1, 2, 3):
        res = sweep(p, MODEL, theta, n_list, m, 21, threads=threads)
        path = tmp_path / f"sweep{threads}.csv"
        sweep_to_csv(path, res)
        out.append(path.read_bytes())
    assert [e.m for e in res.estimates] == [231] * len(n_list)
    assert len(model.map_blocks(lambda start, count: None, 231)) == 4
    assert out[0] == out[1] == out[2]


@settings(max_examples=20)
@given(slope=st.floats(-1.0, -0.1), c=st.floats(0.1, 10.0))
def test_fit_power_law_property(slope, c):
    fit = fit_rate(_synthetic(slope, [8, 16, 32, 64, 128, 256], c=c))
    assert fit.slope == pytest.approx(slope, abs=1e-8)
