import csv
import inspect
import json
import warnings

import numpy as np
import pytest

from fracsmooth.cli import _COMMANDS, _cast, main
from fracsmooth.hedging import tracking_error_terminal
from fracsmooth.ratefit import sweep
from fracsmooth.smoothness import T_GRID_DEPTH
from fracsmooth.weaklimit import clock_A


def _read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    return comments, list(csv.reader(rows))


def test_price_command(tmp_path, capsys):
    out = tmp_path / "px.csv"
    rc = main(["price", "--payoff", "binary", "--t_list", "0.0",
               "--s_list", "1.0", "--out", str(out)])
    assert rc == 0
    comments, rows = _read_csv(out)
    assert comments[0] == "# fracsmooth_version=0.1.0"
    assert any(c == "# payoff=binary" for c in comments)
    assert rows[0] == ["t", "s", "price", "delta", "gamma"]
    assert float(rows[1][2]) == pytest.approx(0.3085375387259869, rel=1e-12)


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("payoff=call\nstrike=2.0\n# comment line\n\n")
    out = tmp_path / "px.csv"
    rc = main(["price", "--config", str(cfg), "--strike", "1.0",
               "--t_list", "0.0", "--s_list", "1.0", "--out", str(out)])
    assert rc == 0
    comments, rows = _read_csv(out)
    assert "# strike=1.0" in comments  # the override wins
    assert float(rows[1][2]) == pytest.approx(0.38292492254802624, rel=1e-12)


def test_hedge_sweep_summary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["hedge-sweep", "--payoff", "call",
               "--n_list", "8,16,32,64,128", "--m", "1500",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"slope", "slope_lo", "slope_hi", "r2"}
    assert payload["slope_lo"] <= payload["slope"] <= payload["slope_hi"]
    comments, rows = _read_csv(out)
    assert rows[0] == ["n", "l2_error", "stderr", "m"]
    assert len(rows) == 6
    summary_file = json.loads((tmp_path / "sweep.csv.summary").read_text())
    assert summary_file == payload


def test_power_holder_sweep_summary_reports_table_health(tmp_path, capsys):
    # the power-Holder summary adds the worst table's estimated error over
    # its tolerance and the count of spots valued beyond the tables; the
    # other payoffs' summaries keep their four fit fields
    out = tmp_path / "ph.csv"
    rc = main(["hedge-sweep", "--payoff", "power_holder", "--m", "200",
               "--n_list", "4,8,16,32,64", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"slope", "slope_lo", "slope_hi", "r2",
                            "table_error_ratio", "off_table_spots"}
    assert 0.0 < payload["table_error_ratio"] <= 1.0
    assert payload["off_table_spots"] == 0
    assert json.loads((tmp_path / "ph.csv.summary").read_text()) == payload


def test_power_holder_table_check_failure_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    # a table whose estimated error stays above the tolerance, or whose
    # gamma does not converge (the x-slopes need it), fails the sweep
    # with a numerical error and writes no file
    from fracsmooth import hedging
    from fracsmooth import payoffs as po
    argv = ["hedge-sweep", "--payoff", "power_holder", "--m", "200",
            "--out", str(tmp_path / "ph.csv")]
    monkeypatch.setattr(hedging, "_TABLE_RTOL", 1e-30)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "error: numerical: the power-Holder delta table")
    monkeypatch.undo()
    monkeypatch.setitem(po._TOLS, "gamma", (0.0, 0.0))
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: numerical:")
    monkeypatch.undo()
    # at sigma = 1e-100 the tables build (cells widen geometrically away
    # from the kink, so none is too narrow for its cubic), but no path
    # moves from s0: there is no error to hedge, and the sweep says so
    assert main(argv + ["--sigma", "1e-100"]) == 2
    assert capsys.readouterr().err.startswith("error: degenerate:")
    assert not any(tmp_path.iterdir())


def test_hedge_sweep_data_thread_invariant(tmp_path):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"sweep{threads}.csv"
        rc = main(["hedge-sweep", "--payoff", "binary",
                   "--n_list", "8,16,32,64,128", "--m", "1000",
                   "--seed", "3", "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(_read_csv(out)[1])
    assert outs[0] == outs[1]


def test_smoothness_command(tmp_path, capsys):
    out = tmp_path / "sm.csv"
    rc = main(["smoothness", "--payoff", "binary", "--depth", "20",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_hat"] == pytest.approx(0.5, abs=0.02)
    _, rows = _read_csv(out)
    assert rows[0] == ["t", "T_minus_t", "decay", "grad_sq", "hess_sq"]
    assert len(rows) == 22


def test_chaos_command(tmp_path, capsys):
    out = tmp_path / "ch.csv"
    rc = main(["chaos", "--chaos_kind", "indicator", "--chaos_center", "0.5",
               "--chaos_order", "2048", "--theta", "0.3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["besov_verdict"] in ("bounded", "unbounded")
    assert payload["d12_fat_tail"] is True
    _, rows = _read_csv(out)
    assert rows[0] == ["t", "phi"]
    # the first 1,024 of the 2,049 coefficients
    _, crows = _read_csv(str(out) + ".coeffs.csv")
    assert crows[0] == ["k", "alpha"] and len(crows) == 1025
    assert crows[-1][0] == "1023"


def test_weaklimit_command(tmp_path, capsys):
    out = tmp_path / "wl.csv"
    rc = main(["weaklimit", "--payoff", "binary", "--n", "32", "--m", "2000",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["ks"] <= 1.0
    assert payload["mean_A"] > 0.0
    _, rows = _read_csv(str(out) + ".cmp.csv")
    sources = {r[0] for r in rows[1:]}
    assert sources == {"rescaled_error", "mixed_normal"}


def test_zreg_command(tmp_path):
    out = tmp_path / "zr.csv"
    rc = main(["zreg", "--payoff", "call", "--n_list", "8,16",
               "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert rows[0] == ["n", "z_regularity", "n_times_e"]
    # equidistant Lipschitz payoff: n times the squared error is stable
    v8, v16 = float(rows[1][2]), float(rows[2][2])
    assert v16 == pytest.approx(v8, rel=0.05)


def test_exit_code_config_error(tmp_path, capsys):
    rc = main(["price", "--sigma", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") or err.startswith("error:")
    rc = main(["price", "--config", str(tmp_path / "missing.cfg"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["price", "--payoff", "warrant",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["price", "stray-positional"])
    assert rc == 2
    # a failure after some values were computed writes no partial CSV
    rc = main(["zreg", "--payoff", "binary", "--n_list", "8,0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["price", "--payoff", "affine", "--c0", "nan"],
    ["price", "--strike", "inf"],
    ["price", "--payoff", "power_holder", "--strike", "inf"],
    ["chaos", "--chaos_center", "nan"],
    ["chaos", "--chaos_kind", "exp_call", "--chaos_strike", "inf"],
    # keys that no command reads are refused, not ignored
    ["weaklimit", "--payoff", "binary", "--time_order", "0"],
    ["chaos", "--coeff_limit", "-5"],
    ["zreg", "--n_list", ""],
], ids=lambda a: " ".join(a[1:]))
def test_exit_code_bad_numbers(argv, tmp_path, capsys):
    # non-finite payoff and chaos parameters, and numbers no command can
    # use, are configuration errors that write no file
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


def test_sweep_of_one_path_exits_config(tmp_path, capsys):
    # the walk's path count grows from m, yet one path of the user's has
    # no standard error
    rc = main(["hedge-sweep", "--payoff", "call", "--m", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: config: need m >= 2 paths for a standard error\n")
    assert not any(tmp_path.iterdir())


def test_header_echoes_defaults_used(tmp_path):
    out = tmp_path / "zr.csv"
    assert main(["zreg", "--payoff", "call", "--out", str(out)]) == 0
    comments, rows = _read_csv(out)
    assert "# n_list=8,16,32,64" in comments
    assert "# net_theta=1.0" in comments
    assert [r[0] for r in rows[1:]] == ["8", "16", "32", "64"]
    # each command's header lists exactly the keys of its row but the
    # output path, in order
    quick = {"hedge-sweep": ["--payoff", "binary", "--m", "200"],
             "smoothness": ["--payoff", "binary", "--depth", "10"],
             "chaos": ["--chaos_order", "64"],
             "weaklimit": ["--payoff", "binary", "--n", "8", "--m", "200"],
             "zreg": ["--payoff", "binary", "--n_list", "8,16"]}
    for command, (_, row) in _COMMANDS.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *quick.get(command, ()), "--out", str(out)]) == 0
        keys = [c[2:].split("=", 1)[0] for c in _read_csv(out)[0]]
        assert keys == ["fracsmooth_version", *sorted(set(row) - {"out"})]


def test_rows_hold_the_library_defaults():
    # the library functions the commands call default to the row values,
    # which the acceptance tests rely on
    for fn in (sweep, clock_A, tracking_error_terminal):
        params = inspect.signature(fn).parameters
        for key in {"measure", "threads"} & set(params):
            for command in ("hedge-sweep", "weaklimit"):
                row = _COMMANDS[command][1]
                assert _cast(key, row[key]) == params[key].default
    assert _COMMANDS["smoothness"][1]["depth"] == str(T_GRID_DEPTH)


@pytest.mark.parametrize("argv", [
    ["zreg", "--payoff", "binary", "--n_lst", "8,16"],
    ["bogus"],
    [],
    ["price", "--config"],
    ["chaos", "--payoff", "call"],
    ["price", "--seed", "3"],
], ids=lambda a: " ".join(a) or "no command")
def test_unread_key_or_unknown_command_exits_config(argv, tmp_path, capsys,
                                                    monkeypatch):
    # the command comes first, and it reads only the keys of its row,
    # each with a value; anything else is refused before any value is
    # computed, and main returns 2 where a parser would raise SystemExit
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_config_file_key_the_command_does_not_read_is_refused(tmp_path,
                                                               capsys):
    # a config file shared by price and chaos holds a key chaos does not
    # read: chaos refuses it as it refuses the same key on the command line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chaos_order=64\nstrike=2.0\n")
    assert main(["chaos", "--config", str(cfg),
                 "--out", str(tmp_path / "ch.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: config: chaos reads no key 'strike'; its keys are "
        "chaos_center, chaos_kind, chaos_order, chaos_strike, out, theta\n")
    out = tmp_path / "px.csv"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# strike=2.0" in _read_csv(out)[0]


def test_list_that_is_not_integers_is_named(tmp_path, capsys):
    assert main(["zreg", "--n_list", "8,x",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: config: config key 'n_list' is not an integer list: '8,x'\n")


@pytest.mark.parametrize("argv", [
    # s * s underflows in the binary gamma
    pytest.param(["price", "--payoff", "binary", "--s_list", "1e-200",
                  "--t_list", "0.5"], id="price-binary"),
    # the binary is scale-invariant, but its gamma is not finite there
    pytest.param(["smoothness", "--payoff", "binary", "--s0", "1e-200",
                  "--strike", "1e-200", "--depth", "10"],
                 id="smoothness-binary"),
    pytest.param(["weaklimit", "--n", "16", "--m", "50", "--payoff",
                  "binary", "--s0", "1e-300", "--strike", "1e-300"],
                 id="weaklimit-binary"),
    pytest.param(["weaklimit", "--n", "16", "--m", "50", "--payoff", "chaos",
                  "--s0", "1e-300", "--chaos_order", "8"],
                 id="weaklimit-chaos"),
    # tracking errors whose squares overflow a float (the payoff's E[h^2]
    # does not), and paths that do
    pytest.param(["hedge-sweep", "--s0", "5e153", "--strike", "5e153",
                  "--m", "200"], id="sweep-square-overflow"),
    pytest.param(["hedge-sweep", "--m", "50", "--measure", "historical",
                  "--mu", "1e300"], id="sweep-paths-overflow")])
def test_values_that_are_not_finite_exit_numerical(argv, tmp_path, capsys):
    # a NaN never leaves a run that exits 0, and the floating-point
    # warnings that made it are not printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, rc, category", [
    # n = 0 in a sweep divided by zero (a traceback)
    pytest.param(["hedge-sweep", "--n_list", "0,8,16,32,64", "--m", "50"],
                 2, "config", id="sweep-n-0"),
    # a historical drift whose paths overflow a float wrote NaN errors
    pytest.param(["weaklimit", "--n", "1", "--m", "5", "--measure",
                  "historical", "--mu", "1.34e154"], 3, "numerical",
                 id="weaklimit-paths-overflow"),
    # K * K overflows in the call's E[h^2]
    pytest.param(["zreg", "--strike", "1e300", "--n_list", "2,16"],
                 2, "config", id="zreg-call-m2-overflow"),
    # the call's E[h^2] overflows a float: refused before the walk
    pytest.param(["hedge-sweep", "--s0", "1e160", "--strike", "1e160",
                  "--m", "200"], 2, "config", id="sweep-call-m2-overflow"),
    # a decay curve that underflows to 0 late fitted a NaN slope
    pytest.param(["smoothness", "--depth", "10", "--strike", "742.2",
                  "--T", "0.458"], 2, "degenerate",
                 id="smoothness-decay-underflow"),
    # s / K overflows in d1, whose limit +inf is right (each sweep here
    # has an n_list that the fit accepts, so the run reaches the walk)
    pytest.param(["hedge-sweep", "--m", "61", "--n_list",
                  "13,34,33,40,54,136",
                  "--strike", "1e-310"], 2, "degenerate",
                 id="sweep-d1-overflow"),
    # a NaN spot passed the s <= 0 test and was priced 0
    pytest.param(["price", "--payoff", "power_holder", "--s_list", "nan",
                  "--t_list", "0.5"], 2, "config", id="price-nan-spot"),
    # delta-table spots beyond the float range overflowed their exp (the
    # tables span the simulated measure's paths, so the drift is used)
    pytest.param(["hedge-sweep", "--payoff", "power_holder", "--m", "38",
                  "--n_list", "11,47,49,54,60,62,188", "--s0", "0.95",
                  "--mu", "1.34e154", "--measure", "historical"], 3,
                 "numerical",
                 id="sweep-table-spot-overflow"),
    # clock weights that overflow at a net theta near 0
    pytest.param(["weaklimit", "--m", "2", "--n", "1",
                  "--net_theta", "5e-324"], 3, "numerical",
                 id="weaklimit-weight-overflow"),
    # z * z overflows in the kink width of a lognormal grid
    pytest.param(["zreg", "--n_list", "26", "--T", "1e-310",
                  "--strike", "692.4"], 2, "degenerate",
                 id="zreg-kink-width-overflow"),
    # sigma^2 (T - t) below the normal floats: the binary delta warned,
    # and a kernel sd that underflows to 0 divided by zero
    pytest.param(["price", "--payoff", "binary", "--T", "5e-324",
                  "--t_list", "0", "--s_list", "1"], 2, "degenerate",
                 id="price-variance-subnormal"),
    pytest.param(["price", "--payoff", "binary", "--sigma", "1e-100",
                  "--T", "1e-250", "--t_list", "0", "--s_list", "1"], 2,
                 "degenerate", id="price-variance-underflow")])
def test_contract_breaches_exit_with_one_error_line(argv, rc, category,
                                                    tmp_path, capsys):
    # breaches of the CLI contract found by tests/test_cli_contract.py:
    # each exited 0 with a NaN in its output, raised a traceback, or
    # printed a floating-point warning before its error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == rc
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_outputs_do_not_depend_on_output_directory(tmp_path):
    # the echoed configuration leaves out the output path, so the same
    # run writes the same bytes wherever it writes them
    files = []
    for sub in ("a", "a_much_longer_directory_name"):
        (tmp_path / sub).mkdir()
        out = tmp_path / sub / "ch.csv"
        assert main(["chaos", "--chaos_order", "64", "--out", str(out)]) == 0
        files.append([(tmp_path / sub / name).read_bytes() for name in
                      ("ch.csv", "ch.csv.coeffs.csv", "ch.csv.summary")])
    assert files[0] == files[1]
    assert not any(line.startswith(b"# out=")
                   for line in files[0][0].splitlines())


def test_exit_code_numerical_error(tmp_path, capsys):
    # the analytic kinds read the closed-form Besov series, so even a
    # tiny truncation order succeeds
    rc = main(["chaos", "--chaos_kind", "indicator", "--chaos_order", "4",
               "--theta", "0.9", "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    # at sigma^2 T > 1 the chaos series overflows on the Gauss-Hermite
    # nodes: the NaN sums fail the convergence check, and the run writes
    # no CSV
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["price", "--payoff", "chaos", "--sigma", "1.5",
                   "--t_list", "0", "--s_list", "1",
                   "--out", str(tmp_path / "px.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: numerical:")
    assert not (tmp_path / "px.csv").exists()
    # a hand-built expansion whose tail dominates still fails
    from fracsmooth.chaos import ChaosExpansion, besov_criterion
    from fracsmooth.errors import QuadratureError
    e = ChaosExpansion(alpha=np.array([0.0, 1.0]), tail_l2=1.0)
    with pytest.raises(QuadratureError):
        besov_criterion(e, 0.5)


def test_exit_code_degenerate_errors(tmp_path, capsys):
    # at s0 = 1e300 every binary path ends in the money: the hedge is exact
    rc = main(["hedge-sweep", "--payoff", "binary", "--s0", "1e300",
               "--m", "200", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: degenerate:")
    # an affine payoff is hedged exactly: its L2 errors are round-off,
    # and a rate fitted to them would be meaningless
    rc = main(["hedge-sweep", "--payoff", "affine", "--m", "2000",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: degenerate:")
    # a constant payoff has an identically zero decay curve
    rc = main(["smoothness", "--payoff", "affine", "--c0", "1", "--c1", "0",
               "--depth", "10", "--out", str(tmp_path / "y.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: degenerate:")
    assert not any(tmp_path.iterdir())


def test_martingale_sweep_does_not_read_the_historical_drift(tmp_path):
    # the delta tables span the paths of the simulated measure alone, so
    # a martingale power-Holder sweep at mu 1000 writes the rows and the
    # summary of mu 0, where its tables once spanned the historical paths
    # too, failed to build and exited 3
    got = []
    for mu in ("0", "1000"):
        out = tmp_path / f"mu{mu}.csv"
        assert main(["hedge-sweep", "--payoff", "power_holder", "--m", "38",
                     "--n_list", "4,8,16,32,64", "--mu", mu,
                     "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("# mu=")]
        got.append((rows, (tmp_path / f"mu{mu}.csv.summary").read_text()))
    assert got[0] == got[1]


@pytest.mark.parametrize("argv", [
    ["hedge-sweep", "--payoff", "binary", "--sigma", "1e-20", "--m", "200"],
    ["weaklimit", "--payoff", "binary", "--sigma", "1e-20", "--n", "8",
     "--m", "200"]])
def test_paths_that_never_move_exit_degenerate(argv, tmp_path, capsys):
    # at s0 = 1 and sigma 1e-20, ln S moves by 1e-20 z but S = exp(ln S)
    # stays 1.0: a rate fitted to such errors, or a clock compared with
    # them, means nothing, at any thread count
    for threads in ("1", "2"):
        rc = main(argv + ["--threads", threads,
                          "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: degenerate:")
    assert not any(tmp_path.iterdir())


def test_overflowing_second_moment_exits_config(tmp_path, capsys):
    # E[h^2] of a call grows as exp(sigma^2 T), a float overflow at
    # T = 1e300: refused, not raised as a traceback
    rc = main(["smoothness", "--payoff", "call", "--T", "1e300",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["smoothness", "--payoff", "affine", "--sigma", "1e160", "--depth", "10"],
    ["zreg", "--payoff", "binary", "--sigma", "1e160", "--n_list", "8,16"]],
    ids=lambda a: a[0])
def test_sigma_whose_square_overflows_exits_config(argv, tmp_path, capsys):
    # sigma^2 overflows a float above about 1.34e154: the model refuses
    # it before any formula raises a Python OverflowError
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


def test_numerical_failure_prints_only_its_error_line(tmp_path, capsys):
    # at sigma^2 T > 1 the chaos series' E[h^2] overflows on its
    # Gauss-Hermite nodes; the rule silences the warning and raises, and
    # stderr holds that one error line and nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["zreg", "--payoff", "chaos", "--sigma", "1.5",
                   "--n_list", "8,16", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_power_holder_paths_with_no_table_range_exit_degenerate(
        threads, tmp_path, capsys):
    # at s0 = K = 1e200 and sigma 1e-20 the paths' 10-sd range of ln S is
    # below the resolution of ln 1e200, so no delta table can be built;
    # the engine values each spot, and the paths, which never move, are
    # refused with that one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["hedge-sweep", "--payoff", "power_holder",
                   "--sigma", "1e-20", "--s0", "1e200", "--strike", "1e200",
                   "--m", "200", "--threads", threads,
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["smoothness", "--payoff", "affine", "--c0", "1e200", "--depth", "10"],
    ["zreg", "--payoff", "affine", "--c1", "1e300", "--n_list", "8,16"],
    ["hedge-sweep", "--payoff", "affine", "--c0", "1e300", "--m", "200"]],
    ids=lambda a: a[0])
def test_affine_second_moment_overflow_exits_config(argv, tmp_path, capsys):
    # E[h^2] of an affine payoff holds c0^2 and c1^2 s^2: past the float
    # range it is refused, not raised as a Python OverflowError
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())
    # the payoff itself is accepted: its price is finite
    out = tmp_path / "px.csv"
    assert main(["price", "--payoff", "affine", "--c0", "1e300",
                 "--out", str(out)]) == 0
    assert float(_read_csv(out)[1][1][2]) == 1e300


@pytest.mark.parametrize("argv", [
    ["smoothness", "--payoff", "binary", "--depth", "10"],
    ["smoothness", "--payoff", "power_holder"],
    ["zreg", "--payoff", "binary", "--n_list", "8,16"]],
    ids=lambda a: " ".join(a[:3]))
def test_collapsed_outer_law_exits_degenerate(argv, tmp_path, capsys):
    # at sigma 1e-20 every spot of the law of S_t at t > 0 rounds to s0,
    # so the curves and errors averaged over it would be made up
    assert main(argv + ["--sigma", "1e-20",
                        "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: degenerate:")
    assert not any(tmp_path.iterdir())


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("kind, key, value, rc_want", [
    ("indicator", "chaos_order", "64", 0),
    ("exp_call", "chaos_order", "64", 0),
    # the indicator inside sits at c = ln(1e-300) + 1/2, where H_k(c)
    # overflows and phi(c) underflows to 0: NaN coefficients
    ("exp_call", "chaos_strike", "1e-300", 3)])
def test_chaos_summary_is_strict_json(kind, key, value, rc_want, tmp_path,
                                      capsys):
    # a summary holds no NaN or Infinity: coefficients that are not
    # finite fail the run with a numerical error and no file
    out = tmp_path / "ch.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["chaos", "--chaos_kind", kind, f"--{key}", value,
                   "--out", str(out)])
    if rc == 0:
        _strict_json((tmp_path / "ch.csv.summary").read_text())
    assert rc == rc_want
    if rc_want:
        assert capsys.readouterr().err.startswith("error: numerical:")
        assert not any(tmp_path.iterdir())


def test_exit_code_bad_time_and_threads(tmp_path, capsys):
    rc = main(["price", "--t_list", "nan", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    rc = main(["hedge-sweep", "--payoff", "binary", "--threads", "0",
               "--m", "100", "--out", str(tmp_path / "y.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


def test_exit_code_degenerate_sigma(tmp_path, capsys):
    rc = main(["price", "--payoff", "binary", "--sigma", "1e-200",
               "--t_list", "0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


def test_exit_code_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(["price", "--payoff", "binary", "--t_list", "0.5",
               "--s_list", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: io:")
    assert not any(tmp_path.iterdir())


def test_output_replaced_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    from fracsmooth import _output
    out = tmp_path / "px.csv"
    out.write_bytes(b"previous run\n")
    real_writer = csv.writer

    class Failing:
        # writes the header row, then fails like a full disk
        def __init__(self, fh):
            self.w = real_writer(fh)

        def writerow(self, row):
            self.w.writerow(row)

        def writerows(self, rows):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(_output.csv, "writer", Failing)
    rc = main(["price", "--payoff", "binary", "--t_list", "0.5",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: io:")
    assert out.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["px.csv"]
    monkeypatch.undo()
    # an unwritable directory is reported under the target's own name
    missing = tmp_path / "missing" / "x.csv"
    assert main(["price", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"'{missing}'")
    # a target that is not a regular file is written in place
    rc = main(["price", "--payoff", "binary", "--out", "/dev/null"])
    assert rc == 0
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    rc = main(["price", "--payoff", "binary", "--out", str(link)])
    assert rc == 0
    assert link.is_symlink()
    assert out.read_text().startswith("# fracsmooth_version=")
