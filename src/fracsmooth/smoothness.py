"""Fractional smoothness diagnostics of a payoff under GBM.

Three quadrature-based views of the same index theta:

* the conditional-L2 decay D(t) = || h(S_T) - H(t, S_t) ||_{L2},
* the growth of the mean-square log-coordinate gradient of the price,
* the growth of the mean-square log-coordinate Hessian,

plus finiteness verdicts for the integral-type criteria obtained from
the deepest octaves of T - t, the only ones that can make them infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import ConfigError, DegenerateCurveError, QuadratureError
from .model import MarketModel
from .payoffs import Payoff
from .quadrature import legendre_panels

__all__ = [
    "DecayCurve",
    "ThetaEstimate",
    "T_GRID_DEPTH",
    "default_t_grid",
    "conditional_l2_decay",
    "estimate_theta_sup",
    "grad_growth_curve",
    "hessian_growth_curve",
    "integral_criteria_verdicts",
    "growth_criteria_exponents",
]

#: octave ratio below which truncated-integral increments count as decaying
RATIO_FINITE = 0.95
#: octaves of T - t on the t grid of the growth criteria and ``smoothness``
T_GRID_DEPTH = 20
#: octaves of T - t in the integral criteria, Gauss-Legendre nodes in each
_OCTAVES = 18
_OCTAVE_ORDER = 8
#: deepest octaves whose increments decide a verdict, and the only ones
#: evaluated: octaves 14..17, T - t in [T 2^-18, T 2^-14]
_TAIL_OCTAVES = 4


@dataclass(frozen=True)
class DecayCurve:
    t_grid: np.ndarray
    D: np.ndarray
    model: MarketModel


@dataclass(frozen=True)
class ThetaEstimate:
    """Clamped smoothness index with the underlying log-log fit."""

    theta_hat: float
    slope: float
    residual_rms: float


def default_t_grid(model: MarketModel, depth: int) -> np.ndarray:
    """Geometric grid T - t_j = T 2^-j, j = 0..depth (t_0 = 0)."""
    j = np.arange(depth + 1)
    return model.T - model.T * 2.0 ** -j.astype(float)


#: engine quantities behind each criterion's integrand
_NEEDS = {"decay": ("var",), "grad": ("delta",), "hess": ("delta", "gamma")}


def _criteria_at(p: Payoff, model: MarketModel, t: float,
                 want) -> dict[str, float]:
    """E over S_t of the decay, gradient and Hessian integrands named in
    ``want``, from one ``_outer_grid`` of ln S_t and one engine call.

    decay: Var(h(S_T) | S_t);  grad: (s dH/ds)^2;
    hess: (s^2 d2H/ds2 + s dH/ds)^2 (log coordinates).  A value that is
    not finite raises ``QuadratureError``.
    """
    x, w = po._outer_grid(p, model, t)
    s = np.exp(x)
    with np.errstate(all="ignore"):
        v = po._valuate(p, model, t, s, {q for c in want for q in _NEEDS[c]})
        f = {}
        if "decay" in want:
            f["decay"] = v["var"]
        if "grad" in want:
            f["grad"] = (s * v["delta"]) ** 2
        if "hess" in want:
            f["hess"] = (s * s * v["gamma"] + s * v["delta"]) ** 2
        out = {c: float(w @ y) for c, y in f.items()}
    for c, val in out.items():
        if not math.isfinite(val):
            raise QuadratureError(f"the {c} criterion at t={t!r} is {val}")
    return out


def _criteria_curves(p: Payoff, model: MarketModel, t_grid,
                     want=tuple(_NEEDS)) -> dict:
    """The criteria curves named in ``want`` on t_grid, one engine call per t.

    "decay" comes back as the DecayCurve D(t) = sqrt E[ Var(h(S_T) | S_t) ].
    The conditional-variance form is algebraically identical to
    E[Z^2] - E[H(t,S_t)^2] but avoids the catastrophic cancellation of
    the two outer moments close to maturity.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= model.T):
        raise ConfigError("t_grid must lie in [0, T)")
    out = {c: np.empty_like(t_grid) for c in want}
    for i, t in enumerate(t_grid):
        for c, val in _criteria_at(p, model, float(t), want).items():
            out[c][i] = val
    if "decay" in out:
        out["decay"] = DecayCurve(t_grid=t_grid, D=np.sqrt(out["decay"]),
                                  model=model)
    return out


def conditional_l2_decay(p: Payoff, model: MarketModel, t_grid) -> DecayCurve:
    """D(t) = sqrt E[ Var(h(S_T) | S_t) ] on the given grid."""
    return _criteria_curves(p, model, t_grid, ("decay",))["decay"]


def _loglog_slope(u: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y vs log u, dropping 2 ends each side."""
    keep = slice(2, -2)
    lu, ly = np.log(u[keep]), np.log(y[keep])
    A = np.vstack([lu, np.ones_like(lu)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid ** 2)))


def estimate_theta_sup(curve: DecayCurve) -> ThetaEstimate:
    """theta from the decay rate: 2 x slope of log D against log(T-t)."""
    u = curve.model.T - curve.t_grid
    if curve.t_grid.size < 8 or u.max() / u.min() < 1e3:
        raise ConfigError("need >= 8 points spanning 3 decades of T-t")
    if not np.all(curve.D[2:-2] > 0.0):
        raise DegenerateCurveError("decay curve is zero where its rate is "
                                   "fitted: a constant payoff, or a decay "
                                   "below the float range")
    slope, rms = _loglog_slope(u, curve.D)
    theta = min(1.0, 2.0 * slope)
    return ThetaEstimate(theta_hat=theta, slope=slope, residual_rms=rms)


def grad_growth_curve(p: Payoff, model: MarketModel, t_grid) -> np.ndarray:
    """E |x-gradient of the log-coordinate price|^2 = E (s dH/ds)^2."""
    return _criteria_curves(p, model, t_grid, ("grad",))["grad"]


def hessian_growth_curve(p: Payoff, model: MarketModel, t_grid) -> np.ndarray:
    """E |D^2 u|^2 with D^2 u = s^2 d2H/ds2 + s dH/ds (log coordinates)."""
    return _criteria_curves(p, model, t_grid, ("hess",))["hess"]


def _octave_integrals(p, model,
                      weight_exps: dict[str, float]) -> dict[str, np.ndarray]:
    """I_j = int over T-t in [T 2^-j-1, T 2^-j] of (T-t)^e f(t) dt for the
    deepest ``_TAIL_OCTAVES`` octaves j of ``_OCTAVES``, in order of j.

    One array of octave integrals per criterion f named in
    ``weight_exps`` (mapped to its weight exponent e); all criteria share
    each time node's engine call.  Every octave is a finite integral, so
    only the behaviour as t -> T can make a criterion infinite;
    ``_verdict`` reads the tail alone, and the shallower octaves are
    never evaluated.
    """
    # integrate in log(T-t) for resolution across each octave; the
    # panels run from the deepest octave up, so rows are read reversed
    lt, lw = legendre_panels(
        [math.log(model.T * 2.0 ** -j)
         for j in range(_OCTAVES, _OCTAVES - _TAIL_OCTAVES - 1, -1)],
        _OCTAVE_ORDER)
    vals = {c: np.zeros(_TAIL_OCTAVES) for c in weight_exps}
    for i, (lt_j, lw_j) in enumerate(zip(lt[::-1], lw[::-1])):
        u = np.exp(lt_j)
        for uu, ww in zip(u, lw_j * u):
            f = _criteria_at(p, model, model.T - uu, weight_exps)
            for c, e in weight_exps.items():
                vals[c][i] += ww * uu ** e * f[c]
    return vals


def _verdict(increments: np.ndarray) -> str:
    """finite if the deepest octave increments decay geometrically."""
    tail = increments[-_TAIL_OCTAVES:]
    if np.any(tail <= 0.0):
        return "finite"
    ratios = tail[1:] / tail[:-1]
    return "finite" if float(np.max(ratios)) < RATIO_FINITE else "divergent"


def integral_criteria_verdicts(p: Payoff, model: MarketModel,
                               theta: float) -> dict[str, str]:
    """Finiteness verdicts of the three equivalent integral criteria.

    decay: int (T-t)^(-1-theta) D(t)^2 dt;  grad: int (T-t)^(-theta)
    E|grad u|^2 dt;  hess: int (T-t)^(1-theta) E|D^2 u|^2 dt.  Only
    t -> T can make these infinite, so each verdict reads, and only
    evaluates, the deepest ``_TAIL_OCTAVES`` = 4 octaves of T - t
    (T 2^-18 to T 2^-14): 32 engine calls.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigError("theta must lie in (0, 1)")
    inc = _octave_integrals(p, model, {"decay": -1.0 - theta,
                                       "grad": -theta,
                                       "hess": 1.0 - theta})
    return {c: _verdict(v) for c, v in inc.items()}


def growth_criteria_exponents(p: Payoff, model: MarketModel) -> dict[str, float]:
    """Implied smoothness index from each sup-type growth criterion.

    decay: slope of log D^2;  grad: 1 + slope of log E|grad u|^2;
    hess: 2 + slope of log E|D^2 u|^2 -- all against log(T-t) and
    clamped into (0, 1], on the t grid of depth ``T_GRID_DEPTH``.
    """
    grid = default_t_grid(model, T_GRID_DEPTH)
    u = model.T - grid
    c = _criteria_curves(p, model, grid)
    s_d, _ = _loglog_slope(u, np.maximum(c["decay"].D ** 2, 1e-300))
    s_g, _ = _loglog_slope(u, np.maximum(c["grad"], 1e-300))
    s_h, _ = _loglog_slope(u, np.maximum(c["hess"], 1e-300))
    clamp = lambda x: min(1.0, x)
    return {"decay": clamp(s_d), "grad": clamp(1.0 + s_g),
            "hess": clamp(2.0 + s_h)}
