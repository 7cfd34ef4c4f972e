"""Batch command-line driver for the experiment suite.

Each experiment is a subcommand reading a flat key=value config file with
command-line overrides, writing deterministic CSV outputs (prefixed with
the resolved config, defaults included and the output path left out, as
# comments) and a one-line JSON summary.  The defaults are the shared
``_DEFAULTS`` and, per command, those of the keys only it reads, in
``_COMMANDS``.  Every value is computed before an output file is opened,
so a failed run writes none, and each file replaces its target only once
complete.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import chaos as ch
from . import hedging as hg
from . import payoffs as po
from . import ratefit as rf
from . import smoothness as sm
from . import weaklimit as wl
from ._output import open_output, write_csv
from .errors import (ConfigError, DegenerateCurveError, DegeneratePathsError,
                     ExactHedgeError, QuadratureError, SimulationError)
from .model import MarketModel, child_seed
from .timenets import make_theta_net

__all__ = ["main", "ExperimentConfig"]

_DEFAULTS = {
    "s0": "1.0", "sigma": "1.0", "mu": "0.0", "T": "1.0",
    "payoff": "call", "strike": "1.0", "holder_theta": "0.5",
    "c0": "0.0", "c1": "1.0",
    "chaos_kind": "indicator", "chaos_center": "0.5",
    "chaos_strike": "1.0", "chaos_order": "4096",
    "seed": "1", "threads": "1", "measure": "martingale",
    "out": "out.csv",
}


#: what a value that fails its cast is said not to be
_CAST_NAMES = {float: "a number", int: "an integer"}


class ExperimentConfig:
    """Resolved key=value configuration with typed, validated access."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)

    def get(self, key: str, cast=str):
        """The value of ``key`` as ``cast``: str, float or int."""
        if key not in self.entries:
            raise ConfigError(f"missing config key '{key}'")
        raw = self.entries[key]
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' is not "
                              f"{_CAST_NAMES[cast]}: {raw!r}")

    def get_list(self, key: str, cast=float) -> list:
        raw = self.get(key)
        try:
            out = [cast(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"config key '{key}' is not a {cast.__name__} "
                              f"list: {raw!r}")
        if not out:
            raise ConfigError(f"config key '{key}' is an empty list")
        return out

    def echo_lines(self) -> list[str]:
        """The version and every entry but ``out``, so that the bytes
        written do not depend on where they are written."""
        lines = [f"fracsmooth_version={__version__}"]
        lines += [f"{k}={v}" for k, v in sorted(self.entries.items())
                  if k != "out"]
        return lines


def _load_config(command: str, path: str | None,
                 overrides: dict[str, str]) -> ExperimentConfig:
    """The defaults, the command's own defaults, the config file at
    ``path`` and the overrides, each over the last."""
    entries = {**_DEFAULTS, **_COMMANDS[command][1]}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                for ln, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(
                            f"config line {ln} is not key=value: {line!r}")
                    k, v = line.split("=", 1)
                    entries[k.strip()] = v.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    entries.update(overrides)
    return ExperimentConfig(entries)


def _model(cfg: ExperimentConfig) -> MarketModel:
    return MarketModel(s0=cfg.get("s0", float), sigma=cfg.get("sigma", float),
                       mu=cfg.get("mu", float), T=cfg.get("T", float))


#: the keys of each payoff kind's constructor, in its argument order
_PAYOFF_KEYS = {"call": ("strike",), "put": ("strike",), "binary": ("strike",),
                "power_holder": ("strike", "holder_theta"),
                "affine": ("c0", "c1")}


def _payoff(cfg: ExperimentConfig) -> po.Payoff:
    kind = cfg.get("payoff")
    if kind == "chaos":
        return po.Payoff.chaos(_expansion(cfg))
    if kind not in _PAYOFF_KEYS:
        raise ConfigError(f"config key 'payoff' has unknown kind {kind!r}")
    return getattr(po.Payoff, kind)(*(cfg.get(k, float)
                                      for k in _PAYOFF_KEYS[kind]))


def _expansion(cfg: ExperimentConfig) -> ch.ChaosExpansion:
    kind = cfg.get("chaos_kind")
    order = cfg.get("chaos_order", int)
    if kind == "indicator":
        return ch.indicator_expansion(cfg.get("chaos_center", float), order)
    if kind == "exp_call":
        return ch.exp_call_expansion(math.exp(-0.5), 1.0,
                                     cfg.get("chaos_strike", float), order)
    raise ConfigError(f"config key 'chaos_kind' has unknown kind {kind!r}")


def _emit_summary(cfg: ExperimentConfig, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True)
    print(text)
    with open_output(cfg.get("out") + ".summary") as fh:
        fh.write(text + "\n")


def cmd_price(cfg: ExperimentConfig) -> None:
    model = _model(cfg)
    p = _payoff(cfg)
    t_list = cfg.get_list("t_list")
    s_list = cfg.get_list("s_list")
    rows = [[repr(t), repr(s), repr(po.price(p, model, t, s)),
             repr(po.delta(p, model, t, s)), repr(po.gamma(p, model, t, s))]
            for t in t_list for s in s_list]
    write_csv(cfg.get("out"), cfg.echo_lines(),
              ["t", "s", "price", "delta", "gamma"], rows)


def cmd_hedge_sweep(cfg: ExperimentConfig) -> None:
    model = _model(cfg)
    p = _payoff(cfg)
    res = rf.sweep(p, model, cfg.get("net_theta", float),
                   cfg.get_list("n_list", int), cfg.get("m", int),
                   cfg.get("seed", int), measure=cfg.get("measure"),
                   threads=cfg.get("threads", int))
    rf.sweep_to_csv(cfg.get("out"), res, header_lines=cfg.echo_lines())
    _emit_summary(cfg, {**json.loads(rf.fit_summary(res.fit)), **res.tables})


def cmd_smoothness(cfg: ExperimentConfig) -> None:
    model = _model(cfg)
    p = _payoff(cfg)
    grid = sm.default_t_grid(model, cfg.get("depth", int))
    c = sm._criteria_curves(p, model, grid)
    curve = c["decay"]
    est = sm.estimate_theta_sup(curve)
    write_csv(cfg.get("out"), cfg.echo_lines(),
              ["t", "T_minus_t", "decay", "grad_sq", "hess_sq"],
              ([repr(float(t)), repr(float(model.T - t)), repr(float(d)),
                repr(float(g)), repr(float(h))]
               for t, d, g, h in zip(grid, curve.D, c["grad"], c["hess"])))
    _emit_summary(cfg, {"theta_hat": est.theta_hat, "slope": est.slope,
                        "residual_rms": est.residual_rms})


def cmd_chaos(cfg: ExperimentConfig) -> None:
    e = _expansion(cfg)
    theta = cfg.get("theta", float)
    tg, phi, verdict = ch.besov_criterion(e, theta)
    limit = cfg.get("coeff_limit", int)
    if limit < 0:
        raise ConfigError("coeff_limit must be >= 0")
    d12, fat = ch.d12_norm(e)
    write_csv(cfg.get("out"), cfg.echo_lines(), ["t", "phi"],
              ([repr(float(t)), repr(float(v))] for t, v in zip(tg, phi)))
    write_csv(cfg.get("out") + ".coeffs.csv", cfg.echo_lines(), ["k", "alpha"],
              ([k, repr(float(a))] for k, a in enumerate(e.alpha[:limit])))
    _emit_summary(cfg, {"besov_verdict": verdict, "theta": theta,
                        "d12_truncated": d12, "d12_fat_tail": bool(fat)})


def cmd_weaklimit(cfg: ExperimentConfig) -> None:
    model = _model(cfg)
    p = _payoff(cfg)
    theta = cfg.get("net_theta", float)
    n = cfg.get("n", int)
    m = cfg.get("m", int)
    seed = cfg.get("seed", int)
    clock = wl.clock_A(p, model, theta, m, child_seed(seed, 1),
                       time_order=cfg.get("time_order", int),
                       threads=cfg.get("threads", int))
    mixed = wl.mixed_normal_sample(clock, child_seed(seed, 2))
    net = make_theta_net(n, theta, model.T)
    errs = hg.tracking_error_terminal(
        p, model, net, m, child_seed(seed, 3), measure=cfg.get("measure"),
        threads=cfg.get("threads", int)).terminal_errors
    scaled = math.sqrt(n) * errs
    wl.clock_to_csv(cfg.get("out"), clock, header_lines=cfg.echo_lines())
    write_csv(cfg.get("out") + ".cmp.csv", cfg.echo_lines(),
              ["sample_source", "value"],
              [["rescaled_error", repr(float(v))] for v in scaled]
              + [["mixed_normal", repr(float(v))] for v in mixed])
    _emit_summary(cfg, {
        "ks": wl.ks_distance(scaled, mixed),
        "mean_A": float(clock.A_values.mean()),
        "var_mixed": float(mixed.var()),
        "flagged_fraction": clock.flagged_fraction,
    })


def cmd_zreg(cfg: ExperimentConfig) -> None:
    model = _model(cfg)
    p = _payoff(cfg)
    theta = cfg.get("net_theta", float)
    rows = []
    for n in cfg.get_list("n_list", int):
        e = hg.z_regularity(p, model, make_theta_net(n, theta, model.T))
        rows.append([n, repr(float(e)), repr(float(n * e))])
    write_csv(cfg.get("out"), cfg.echo_lines(),
              ["n", "z_regularity", "n_times_e"], rows)


#: each command's function, and the defaults of the keys only it reads
_COMMANDS = {
    "price": (cmd_price, {"t_list": "0.0,0.5", "s_list": "0.5,1.0,1.5"}),
    "hedge-sweep": (cmd_hedge_sweep, {"net_theta": "1.0", "m": "10000",
                                      "n_list": "8,16,32,64,128"}),
    "smoothness": (cmd_smoothness, {"depth": "20"}),
    "chaos": (cmd_chaos, {"theta": "0.5", "coeff_limit": "1024"}),
    "weaklimit": (cmd_weaklimit, {"net_theta": "1.0", "n": "256",
                                  "m": "20000", "time_order": "4"}),
    "zreg": (cmd_zreg, {"net_theta": "1.0", "n_list": "8,16,32,64"}),
}


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"override --{key} is missing a value")
            val = tokens[i + 1]
            i += 1
        out[key] = val
        i += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracsmooth",
        description="Batch experiments: pricing, hedging error rates, "
                    "smoothness diagnostics, chaos criteria, weak limits.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")
    args, rest = parser.parse_known_args(argv)
    try:
        overrides = _parse_overrides(rest)
        cfg = _load_config(args.command, args.config, overrides)
        _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SimulationError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (DegenerateCurveError, DegeneratePathsError,
            ExactHedgeError) as exc:
        print(f"error: degenerate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
