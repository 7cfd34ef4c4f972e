"""The two benchmark workloads: their operations and correctness checks.

Each operation is one CLI command (run in-process through
``fracsmooth.cli.main``, exactly what the ``fracsmooth`` script calls) or
one library call.  Check windows are those of the acceptance tests.
All runs use s0 = 1, sigma = 1, mu = 0, T = 1 and strike 1.  Monte Carlo
seeds derive from the workload seed through ``child_seed``; in
``holder-chaos`` only the power-Holder sweep uses it, and the criteria and
chaos operations are deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np


class CheckFailed(Exception):
    """An operation returned, but its answer is outside the window."""


def _within(label: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        raise CheckFailed(f"{label}={value!r} outside [{lo}, {hi}]")


class Context:
    """What one pass's operations share: package, seed, threads, outputs."""

    def __init__(self, fs, seed: int, threads: int, workdir: str):
        self.fs = fs
        self.seed = seed
        self.threads = threads
        self.workdir = workdir
        self.bytes_written = 0
        self.model = fs.MarketModel(s0=1.0, sigma=1.0, mu=0.0, T=1.0)

    def child_seed(self, tag: int) -> int:
        return self.fs.child_seed(self.seed, tag)

    def cli(self, command: str, tag: str, **overrides) -> tuple[str, dict]:
        """Run one CLI command; returns its CSV path and its summary."""
        out = os.path.join(self.workdir, f"{tag}.csv")
        argv = [command] + [f"--{k}={v}" for k, v in overrides.items()]
        argv += ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            # attribute lookup at call time, so a traced ``main`` is used
            rc = self.fs.cli.main(argv)
        if rc != 0:
            raise CheckFailed(f"{command} exited with code {rc}")
        for name in os.listdir(self.workdir):
            if name.startswith(f"{tag}.csv"):
                self.bytes_written += os.path.getsize(
                    os.path.join(self.workdir, name))
        summary_path = out + ".summary"
        summary = {}
        if os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.loads(fh.read())
        return out, summary


# -- hedge-closed: MC with closed-form Greeks, plus the weak limit --------

N_CLOSED = "8,16,32,64,128,256,512"


def sweep_binary_theta(ctx: Context) -> None:
    _, s = ctx.cli("hedge-sweep", "binary_theta", payoff="binary",
                   net_theta=0.4, n_list=N_CLOSED, m=40_000,
                   seed=ctx.child_seed(1), threads=ctx.threads)
    _within("binary theta-net slope", s["slope"], -0.58, -0.42)


def sweep_call_equidistant(ctx: Context) -> None:
    _, s = ctx.cli("hedge-sweep", "call_eq", payoff="call", net_theta=1.0,
                   n_list=N_CLOSED, m=40_000, seed=ctx.child_seed(2),
                   threads=ctx.threads)
    _within("call equidistant slope", s["slope"], -0.58, -0.42)


def weaklimit_binary(ctx: Context) -> None:
    _, s = ctx.cli("weaklimit", "weak", payoff="binary", n=256, m=20_000,
                   seed=ctx.child_seed(3), threads=ctx.threads)
    _within("weak-limit KS distance", s["ks"], 0.0, 0.05)


# -- holder-chaos: power-Holder delta tables, criteria, chaos --------------

# the same hedging loop as hedge-closed, but on power-Holder delta tables

def sweep_power_holder(ctx: Context) -> None:
    _, s = ctx.cli("hedge-sweep", "holder", payoff="power_holder",
                   holder_theta=0.25, net_theta=1.0,
                   n_list="8,16,32,64,128", m=20_000,
                   seed=ctx.child_seed(1), threads=ctx.threads)
    _within("power-Holder slope", s["slope"], -0.455, -0.295)


# the smoothness criteria: quadrature only

def _holder(ctx: Context):
    return ctx.fs.Payoff.power_holder(1.0, 0.25)


def _verdicts(ctx: Context, theta: float, expected: str) -> None:
    v = ctx.fs.smoothness.integral_criteria_verdicts(
        _holder(ctx), ctx.model, theta)
    if set(v.values()) != {expected}:
        raise CheckFailed(f"verdicts at theta={theta}: {v}, "
                          f"expected all {expected}")


def verdicts_finite(ctx: Context) -> None:
    _verdicts(ctx, 0.5, "finite")


def verdicts_divergent(ctx: Context) -> None:
    _verdicts(ctx, 0.9, "divergent")


def growth_exponents(ctx: Context) -> None:
    e = ctx.fs.smoothness.growth_criteria_exponents(_holder(ctx), ctx.model)
    _within("growth exponent spread", max(e.values()) - min(e.values()),
            0.0, 0.08)


def smoothness_power_holder(ctx: Context) -> None:
    _, s = ctx.cli("smoothness", "smooth", payoff="power_holder",
                   holder_theta=0.25)
    _within("theta_hat", s["theta_hat"], 0.67, 0.83)


def zreg_binary_theta(ctx: Context) -> None:
    out, _ = ctx.cli("zreg", "zreg", payoff="binary", net_theta=0.4,
                     n_list="8,16,32,64,128")
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    tail = [float(r["n_times_e"]) for r in rows[-3:]]
    if len(tail) != 3 or not max(tail) / min(tail) < 1.5:
        raise CheckFailed(f"zreg n*E tail {tail}: max/min must be < 1.5")


# the Hermite-coefficient layer

def _besov_indicator(ctx: Context, theta: float):
    ch = ctx.fs.chaos
    grid = 1.0 - 2.0 ** -np.arange(0, 21, dtype=float)
    return ch.besov_criterion(ch.indicator_expansion(0.0, 4096), theta,
                              t_grid=grid)


def besov_bounded(ctx: Context) -> None:
    _, _, verdict = _besov_indicator(ctx, 0.5)
    if verdict != "bounded":
        raise CheckFailed(f"Besov verdict at theta=0.5 is {verdict}")


def besov_unbounded(ctx: Context) -> None:
    _, phi, verdict = _besov_indicator(ctx, 0.7)
    ratio = phi[-1] / phi[1]
    if verdict != "unbounded" or not ratio > 10.0:
        raise CheckFailed(f"Besov at theta=0.7: {verdict}, "
                          f"growth ratio {ratio:.3f} (needs > 10)")


def chaos_exp_call(ctx: Context) -> None:
    _, s = ctx.cli("chaos", "chaos", chaos_kind="exp_call")
    if s["besov_verdict"] != "bounded":
        raise CheckFailed(f"exp_call Besov verdict {s['besov_verdict']}")


def decay_surrogate(ctx: Context) -> None:
    fs = ctx.fs
    grid = fs.smoothness.default_t_grid(ctx.model, 20)
    e = fs.chaos.indicator_expansion(0.5, 1 << 21)
    curve = fs.smoothness.conditional_l2_decay(fs.Payoff.binary(1.0),
                                               ctx.model, grid)
    surrogate = np.array([fs.chaos.decay_from_chaos(e, float(t))
                          for t in grid])
    rel = float(np.max(np.abs(surrogate - curve.D) / curve.D))
    _within("decay surrogate max relative error", rel, 0.0, 1e-3)


#: workload name -> operations, run in order, one at a time
WORKLOADS = {
    "hedge-closed": (sweep_binary_theta, sweep_call_equidistant,
                     weaklimit_binary),
    "holder-chaos": (sweep_power_holder,
                     verdicts_finite, verdicts_divergent, growth_exponents,
                     smoothness_power_holder, zreg_binary_theta,
                     besov_bounded, besov_unbounded, chaos_exp_call,
                     decay_surrogate),
}

#: workloads bound by Monte Carlo on a thread pool; the power-Holder
#: sweep in ``holder-chaos`` uses the pool too, but spends ~85% of its
#: time building delta tables on the calling thread
THREADED = ("hedge-closed",)
