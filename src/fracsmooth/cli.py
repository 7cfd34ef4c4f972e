"""Batch command-line driver for the experiment suite:
``fracsmooth COMMAND [--config PATH] [--key value | --key=value ...]``.

Each ``_COMMANDS`` row lists every key its command reads, with its
default; a flat key=value config file, then the command line, override
them, and any other key is refused.  ``_CASTS`` types each key once.
Outputs are deterministic CSVs headed by the resolved row (the output
path left out) as # comments, and a one-line JSON summary, all computed
before a file is opened; each file replaces its target only once whole.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

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

__all__ = ["main"]

#: the chaos coefficient rows ``chaos`` writes to ``<out>.coeffs.csv``
_COEFF_ROWS = 1024

#: what a value that fails its cast is said not to be
_CAST_NAMES = {float: "a number", int: "an integer"}

#: each key's type: a cast, or [cast] for a comma-separated list of it
_CASTS = {
    **dict.fromkeys(("s0", "sigma", "mu", "T", "strike", "holder_theta",
                     "c0", "c1", "chaos_center", "chaos_strike", "theta",
                     "net_theta"), float),
    **dict.fromkeys(("chaos_order", "seed", "threads", "depth", "m", "n"),
                    int),
    **dict.fromkeys(("payoff", "chaos_kind", "measure", "out"), str),
    "t_list": [float], "s_list": [float], "n_list": [int],
}

#: the key groups that several commands read, with their defaults
_MODEL = {"s0": "1.0", "sigma": "1.0", "mu": "0.0", "T": "1.0"}
_CHAOS = {"chaos_kind": "indicator", "chaos_center": "0.5",
          "chaos_strike": "1.0", "chaos_order": "4096"}
_PAYOFF = {"payoff": "call", "strike": "1.0", "holder_theta": "0.5",
           "c0": "0.0", "c1": "1.0", **_CHAOS}
_PATHS = {"seed": "1", "threads": "1", "measure": "martingale"}
_OUT = {"out": "out.csv"}


def _cast(key: str, raw: str):
    """The value of ``key`` typed by its ``_CASTS`` entry."""
    cast = _CASTS[key]
    many = isinstance(cast, list)
    item = cast[0] if many else cast
    try:
        if not many:
            return item(raw)
        out = [item(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"config key '{key}' is not {_CAST_NAMES[item]}"
                          f"{' list' if many else ''}: {raw!r}")
    if not out:
        raise ConfigError(f"config key '{key}' is an empty list")
    return out


def _read_config(path: str) -> dict[str, str]:
    """The key=value lines of the config file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    entries = {}
    for ln, line in enumerate(lines, 1):
        if line and not line.startswith("#"):
            k, eq, v = line.partition("=")
            if not eq:
                raise ConfigError(f"config line {ln} is not key=value: "
                                  f"{line!r}")
            entries[k.strip()] = v.strip()
    return entries


def _parse(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command and its row's raw values: the defaults, then the config
    file, then the command-line keys, each over the last."""
    if not argv or argv[0] not in _COMMANDS:
        raise ConfigError(f"the first argument must be a command, one of "
                          f"{', '.join(_COMMANDS)}: got {argv[:1]}")
    command, row = argv[0], _COMMANDS[argv[0]][1]
    keys, tokens = {}, iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        if not eq and (val := next(tokens, None)) is None:
            raise ConfigError(f"--{key} is missing a value")
        keys[key] = val
    path = keys.pop("config", None)
    raw = {**row, **(_read_config(path) if path is not None else {}), **keys}
    for key in raw:
        if key not in row:
            raise ConfigError(f"{command} reads no key {key!r}; its keys are "
                              f"{', '.join(sorted(row))}")
    return command, raw


def _model(cfg: dict) -> MarketModel:
    return MarketModel(**{k: cfg[k] for k in _MODEL})


#: the keys of each payoff kind's constructor, in its argument order
_PAYOFF_KEYS = {"call": ("strike",), "put": ("strike",), "binary": ("strike",),
                "power_holder": ("strike", "holder_theta"),
                "affine": ("c0", "c1")}


def _payoff(cfg: dict) -> po.Payoff:
    kind = cfg["payoff"]
    if kind == "chaos":
        return po.Payoff.chaos(_expansion(cfg))
    if kind not in _PAYOFF_KEYS:
        raise ConfigError(f"config key 'payoff' has unknown kind {kind!r}")
    return getattr(po.Payoff, kind)(*(cfg[k] for k in _PAYOFF_KEYS[kind]))


def _expansion(cfg: dict) -> ch.ChaosExpansion:
    kind, order = cfg["chaos_kind"], cfg["chaos_order"]
    if kind == "indicator":
        return ch.indicator_expansion(cfg["chaos_center"], order)
    if kind == "exp_call":
        return ch.exp_call_expansion(math.exp(-0.5), 1.0, cfg["chaos_strike"],
                                     order)
    raise ConfigError(f"config key 'chaos_kind' has unknown kind {kind!r}")


def _emit_summary(cfg: dict, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True)
    print(text)
    with open_output(cfg["out"] + ".summary") as fh:
        fh.write(text + "\n")


def cmd_price(cfg: dict, header: list[str]) -> None:
    model, p = _model(cfg), _payoff(cfg)
    rows = []
    for t in cfg["t_list"]:
        for s in cfg["s_list"]:
            with np.errstate(all="ignore"):
                v = [f(p, model, t, s) for f in (po.price, po.delta, po.gamma)]
            if not all(map(math.isfinite, v)):
                raise QuadratureError(f"the price, delta and gamma at t={t!r},"
                                      f" s={s!r} are not all finite: {v}")
            rows.append([repr(t), repr(s), *map(repr, v)])
    write_csv(cfg["out"], header, ["t", "s", "price", "delta", "gamma"], rows)


def cmd_hedge_sweep(cfg: dict, header: list[str]) -> None:
    model = _model(cfg)
    res = rf.sweep(_payoff(cfg), model, cfg["net_theta"],
                   cfg["n_list"], cfg["m"], cfg["seed"],
                   measure=cfg["measure"], threads=cfg["threads"])
    rf.sweep_to_csv(cfg["out"], res, header_lines=header)
    _emit_summary(cfg, {**json.loads(rf.fit_summary(res.fit)), **res.tables})


def cmd_smoothness(cfg: dict, header: list[str]) -> None:
    model, p = _model(cfg), _payoff(cfg)
    grid = sm.default_t_grid(model, cfg["depth"])
    c = sm._criteria_curves(p, model, grid)
    est = sm.estimate_theta_sup(c["decay"])
    cols = zip(grid, model.T - grid, c["decay"].D, c["grad"], c["hess"])
    write_csv(cfg["out"], header,
              ["t", "T_minus_t", "decay", "grad_sq", "hess_sq"],
              ([repr(float(x)) for x in row] for row in cols))
    _emit_summary(cfg, {"theta_hat": est.theta_hat, "slope": est.slope,
                        "residual_rms": est.residual_rms})


def cmd_chaos(cfg: dict, header: list[str]) -> None:
    e = _expansion(cfg)
    theta = cfg["theta"]
    tg, phi, verdict = ch.besov_criterion(e, theta)
    d12, fat = ch.d12_norm(e)
    write_csv(cfg["out"], header, ["t", "phi"],
              ([repr(float(t)), repr(float(v))] for t, v in zip(tg, phi)))
    write_csv(cfg["out"] + ".coeffs.csv", header, ["k", "alpha"],
              ([k, repr(float(a))]
               for k, a in enumerate(e.alpha[:_COEFF_ROWS])))
    _emit_summary(cfg, {"besov_verdict": verdict, "theta": theta,
                        "d12_truncated": d12, "d12_fat_tail": bool(fat)})


def cmd_weaklimit(cfg: dict, header: list[str]) -> None:
    model, p = _model(cfg), _payoff(cfg)
    theta, n, m, seed = cfg["net_theta"], cfg["n"], cfg["m"], cfg["seed"]
    clock = wl.clock_A(p, model, theta, m, child_seed(seed, 1),
                       threads=cfg["threads"])
    mixed = wl.mixed_normal_sample(clock, child_seed(seed, 2))
    net = make_theta_net(n, theta, model.T)
    scaled = math.sqrt(n) * hg.tracking_error_terminal(
        p, model, net, m, child_seed(seed, 3), measure=cfg["measure"],
        threads=cfg["threads"]).terminal_errors
    wl.clock_to_csv(cfg["out"], clock, header_lines=header)
    write_csv(cfg["out"] + ".cmp.csv", header, ["sample_source", "value"],
              itertools.chain(
                  (["rescaled_error", repr(v)] for v in scaled.tolist()),
                  (["mixed_normal", repr(v)] for v in mixed.tolist())))
    _emit_summary(cfg, {"ks": wl.ks_distance(scaled, mixed),
                        "mean_A": float(clock.A_values.mean()),
                        "var_mixed": float(mixed.var()),
                        "flagged_fraction": clock.flagged_fraction})


def cmd_zreg(cfg: dict, header: list[str]) -> None:
    model, p = _model(cfg), _payoff(cfg)
    rows = []
    for n in cfg["n_list"]:
        e = hg.z_regularity(p, model,
                            make_theta_net(n, cfg["net_theta"], model.T))
        rows.append([n, repr(float(e)), repr(float(n * e))])
    write_csv(cfg["out"], header, ["n", "z_regularity", "n_times_e"], rows)


#: each command's function, and every key it reads with its default
_COMMANDS = {
    "price": (cmd_price, {**_MODEL, **_PAYOFF, **_OUT, "t_list": "0.0,0.5",
                          "s_list": "0.5,1.0,1.5"}),
    "hedge-sweep": (cmd_hedge_sweep, {**_MODEL, **_PAYOFF, **_PATHS, **_OUT,
                                      "net_theta": "1.0", "m": "10000",
                                      "n_list": "8,16,32,64,128"}),
    "smoothness": (cmd_smoothness, {**_MODEL, **_PAYOFF, **_OUT,
                                    "depth": str(sm.T_GRID_DEPTH)}),
    "chaos": (cmd_chaos, {**_CHAOS, **_OUT, "theta": "0.5"}),
    "weaklimit": (cmd_weaklimit, {**_MODEL, **_PAYOFF, **_PATHS, **_OUT,
                                  "net_theta": "1.0", "n": "256",
                                  "m": "20000"}),
    "zreg": (cmd_zreg, {**_MODEL, **_PAYOFF, **_OUT, "net_theta": "1.0",
                        "n_list": "8,16,32,64"}),
}


def main(argv=None) -> int:
    try:
        command, raw = _parse(sys.argv[1:] if argv is None else list(argv))
        cfg = {k: _cast(k, v) for k, v in raw.items()}
        # the version and every key but ``out``, so that the bytes
        # written do not depend on where they are written
        header = [f"fracsmooth_version={__version__}"]
        header += [f"{k}={v}" for k, v in sorted(raw.items()) if k != "out"]
        _COMMANDS[command][0](cfg, header)
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
