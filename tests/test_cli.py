import csv
import json

import numpy as np
import pytest

from fracsmooth.cli import main


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
               "--chaos_order", "256", "--theta", "0.3", "--coeff_limit",
               "16", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["besov_verdict"] in ("bounded", "unbounded")
    assert payload["d12_fat_tail"] is True
    _, rows = _read_csv(out)
    assert rows[0] == ["t", "phi"]
    _, crows = _read_csv(str(out) + ".coeffs.csv")
    assert crows[0] == ["k", "alpha"] and len(crows) == 17


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
