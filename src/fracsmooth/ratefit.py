"""Convergence-rate estimation for discrete-hedging L2 errors.

Weighted log-log regression of the error against the interval count n,
plus the sweep driver that simulates the errors across a geometric list
of n values on one walk: M paths of one seed, ``child_seed(seed, n_max)``,
stepped on the union of the nets' nodes, and every net reading all M of
them, so the errors at different n are correlated.  Coupling the nets on
one Brownian path is the idea of Giles, "Multilevel Monte Carlo path
simulation" (Operations Research 2008).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .errors import ConfigError, ExactHedgeError
from .hedging import _l2_estimates
from .model import MarketModel, child_seed
from .payoffs import Payoff, second_moment
from .timenets import make_theta_net

__all__ = [
    "RateFit",
    "SweepResult",
    "fit_rate",
    "sweep",
    "sweep_to_csv",
    "fit_summary",
]

#: errors below this fraction of the payoff's L2 norm are round-off
_ROUNDOFF_REL = 1e-10


@dataclass(frozen=True)
class RateFit:
    """WLS fit of log error vs log n with a 95% slope interval."""

    slope: float
    intercept: float
    r_squared: float
    slope_ci: tuple

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ConfigError("fitted slope must be finite")


def _check_ns(ns) -> None:
    """Refuse n values that no rate can be fitted to."""
    ns = sorted(set(ns))
    if len(ns) < 4:
        raise ConfigError("need at least 4 distinct n values")
    if ns[-1] < 4 * ns[0]:
        raise ConfigError("n values must span at least 2 octaves")


def fit_rate(pairs) -> RateFit:
    """Fit error ~ C n^slope from (n, l2_error, stderr_of_mean_square).

    Weights are delta-method standard errors of log error,
    se(log e) = stderr / (2 e^2); points with zero stderr get the
    smallest positive weight present (exact synthetic inputs fit too).
    The slope interval treats the points as independent, which a
    sweep's points, sharing their paths, are not.
    """
    pairs = [(int(n), float(e), float(se)) for n, e, se in pairs]
    _check_ns(n for n, _, _ in pairs)
    errors = np.array([e for _, e, _ in pairs])
    if np.all(errors == 0.0):
        raise ExactHedgeError("all errors vanish: the hedge is exact")
    if np.any(errors <= 0.0):
        raise ExactHedgeError("zero error in a rate fit: exact hedge point")

    x = np.log([n for n, _, _ in pairs])
    y = np.log(errors)
    se_log = np.array([se / (2.0 * e * e) for _, e, se in pairs])
    if np.any(~np.isfinite(se_log)):
        raise ConfigError("non-finite fit weight from a reported stderr")
    floor = se_log[se_log > 0.0].min() if np.any(se_log > 0.0) else 1.0
    se_log = np.maximum(se_log, floor)
    w = 1.0 / se_log ** 2

    A = np.vstack([x, np.ones_like(x)]).T
    aw = A * w[:, None]
    cov = np.linalg.inv(A.T @ aw)
    coef = cov @ (aw.T @ y)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    ybar = float(np.average(y, weights=w))
    ss_res = float(w @ resid ** 2)
    ss_tot = float(w @ (y - ybar) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    half = 1.96 * math.sqrt(max(cov[0, 0], 0.0))
    return RateFit(slope=slope, intercept=intercept,
                   r_squared=r2, slope_ci=(slope - half, slope + half))


@dataclass(frozen=True)
class SweepResult:
    """The per-n estimates, their rate fit and the delta tables' health
    (from ``hedging._run``: empty but for the power-Holder payoff)."""

    estimates: tuple
    fit: RateFit
    tables: dict


def sweep(p: Payoff, model: MarketModel, theta: float, n_list, m: int,
          seed: int, measure: str = "martingale",
          threads: int = 1) -> SweepResult:
    """Estimate L2 errors over n_list and fit the rate exponent.

    All nets hedge on one walk (``hedging._run``) of
    M = min(4 m, round(m sqrt(n_max / n_min))) paths with seed
    ``child_seed(seed, n_max)``, stepped on the union of their nodes (the
    finest net, when the nets are nested), so each delta is evaluated
    once per node of the union, and every net reads all M paths.  The
    finest net's estimate is thus that of ``l2_tracking_error`` on it
    alone, and the errors at different n are correlated: they share
    paths.  The fit drops the smallest n (documented pre-asymptotic
    transient).  Raises ``ExactHedgeError`` when every error is round-off
    relative to the payoff's L2 norm sqrt E[h(S_T)^2], since no rate can
    be fitted.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 5:
        raise ConfigError("sweep needs at least 5 n values (one is dropped)")
    # the fit drops n_min: refuse what it would refuse before the walk
    _check_ns(n_list[1:])
    # the net refuses n < 1 before n_max / n_min can divide by zero
    nets = [make_theta_net(n, theta, model.T) for n in n_list]
    if m < 2:
        raise ConfigError("need m >= 2 paths for a standard error")
    paths = min(4 * m, int(round(m * math.sqrt(n_list[-1] / n_list[0]))))
    # a payoff whose E[h^2] the engine refuses is refused before the walk
    scale = math.sqrt(second_moment(p, model, 0.0, model.s0))
    estimates, health = _l2_estimates(p, model, measure, nets, paths,
                                      child_seed(seed, n_list[-1]), threads)
    if all(e.l2_error <= _ROUNDOFF_REL * scale for e in estimates):
        raise ExactHedgeError(
            f"every L2 error is round-off (at most {_ROUNDOFF_REL:g} of the "
            f"payoff's L2 norm {scale:.6g}): the hedge is exact")
    fit = fit_rate([(e.n, e.l2_error, e.stderr) for e in estimates[1:]])
    return SweepResult(estimates=tuple(estimates), fit=fit, tables=health)


def sweep_to_csv(path, result: SweepResult, header_lines=()) -> None:
    """CSV rows (n, l2_error, stderr, m), after optional # comments."""
    write_csv(path, header_lines, ["n", "l2_error", "stderr", "m"],
              ([e.n, repr(e.l2_error), repr(e.stderr), e.m]
               for e in result.estimates))


def fit_summary(fit: RateFit) -> str:
    """Machine-readable summary with stable field names."""
    return json.dumps({
        "slope": fit.slope,
        "slope_lo": fit.slope_ci[0],
        "slope_hi": fit.slope_ci[1],
        "r2": fit.r_squared,
    }, sort_keys=True)
