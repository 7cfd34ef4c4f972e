"""Fractional smoothness diagnostics of a payoff under GBM.

Three quadrature-based views of the same index theta:

* the conditional-L2 decay D(t) = || h(S_T) - H(t, S_t) ||_{L2},
* the growth of the mean-square log-coordinate gradient of the price,
* the growth of the mean-square log-coordinate Hessian,

plus finiteness verdicts for the integral-type criteria obtained from
octave-wise truncated integrals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import payoffs as po
from .errors import ConfigError, DegenerateCurveError
from .model import MarketModel
from .payoffs import Payoff

__all__ = [
    "DecayCurve",
    "ThetaEstimate",
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
_GRID_TAIL_DEPTH = 40
#: octaves of T - t in the integral criteria, Gauss-Legendre nodes in each
_OCTAVES = 18
_OCTAVE_ORDER = 8


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


def default_t_grid(model: MarketModel, depth: int = 20) -> np.ndarray:
    """Geometric grid T - t_j = T 2^-j, j = 0..depth (t_0 = 0)."""
    j = np.arange(depth + 1)
    return model.T - model.T * 2.0 ** -j.astype(float)


#: engine quantities behind each criterion's integrand
_NEEDS = {"decay": ("var",), "grad": ("delta",), "hess": ("delta", "gamma")}


def _criteria_at(p: Payoff, model: MarketModel, t: float,
                 want) -> dict[str, float]:
    """E over S_t of the decay, gradient and Hessian integrands named in
    ``want``, from one kink-graded lognormal grid and one engine call.

    decay: Var(h(S_T) | S_t);  grad: (s dH/ds)^2;
    hess: (s^2 d2H/ds2 + s dH/ds)^2 (log coordinates).
    """
    if t == 0.0:
        s, w = np.array([model.s0]), None
    else:
        x, w = po._outer_grid(p, model, t, _GRID_TAIL_DEPTH)
        s = np.exp(x)
    v = po._valuate(p, model, t, s, {q for c in want for q in _NEEDS[c]})
    f = {}
    if "decay" in want:
        f["decay"] = v["var"]
    if "grad" in want:
        f["grad"] = (s * v["delta"]) ** 2
    if "hess" in want:
        f["hess"] = (s * s * v["gamma"] + s * v["delta"]) ** 2
    return {c: float(y[0]) if w is None else float(w @ y) for c, y in f.items()}


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
        var = out["decay"]
        for t, val in zip(t_grid, var):
            if val < -1e-10:
                warnings.warn(f"negative decay value {val:.3e} clamped at t={t:.6g}")
        out["decay"] = DecayCurve(t_grid=t_grid, D=np.sqrt(np.maximum(var, 0.0)),
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
    if np.all(curve.D == 0.0):
        raise DegenerateCurveError(
            "decay curve is identically zero: infinitely smooth payoff")
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
    """I_j = int over T-t in [T 2^-j-1, T 2^-j] of (T-t)^e f(t) dt.

    One array of octave integrals per criterion f named in
    ``weight_exps`` (mapped to its weight exponent e); all criteria share
    each time node's engine call.
    """
    gx, gw = np.polynomial.legendre.leggauss(_OCTAVE_ORDER)
    vals = {c: np.empty(_OCTAVES) for c in weight_exps}
    for j in range(_OCTAVES):
        hi, lo = model.T * 2.0 ** -j, model.T * 2.0 ** -(j + 1)
        # integrate in log(T-t) for resolution across the octave
        la, lb = math.log(lo), math.log(hi)
        lt = 0.5 * (la + lb) + 0.5 * (lb - la) * gx
        u = np.exp(lt)
        w = 0.5 * (lb - la) * gw * u
        acc = dict.fromkeys(weight_exps, 0.0)
        for uu, ww in zip(u, w):
            f = _criteria_at(p, model, model.T - uu, weight_exps)
            for c, e in weight_exps.items():
                acc[c] += ww * uu ** e * f[c]
        for c in weight_exps:
            vals[c][j] = acc[c]
    return vals


def _verdict(increments: np.ndarray) -> str:
    """finite if the deepest octave increments decay geometrically."""
    tail = increments[-4:]
    if np.any(tail <= 0.0):
        return "finite"
    ratios = tail[1:] / tail[:-1]
    return "finite" if float(np.max(ratios)) < RATIO_FINITE else "divergent"


def integral_criteria_verdicts(p: Payoff, model: MarketModel,
                               theta: float) -> dict[str, str]:
    """Finiteness verdicts of the three equivalent integral criteria.

    decay: int (T-t)^(-1-theta) D(t)^2 dt;  grad: int (T-t)^(-theta)
    E|grad u|^2 dt;  hess: int (T-t)^(1-theta) E|D^2 u|^2 dt.
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
    clamped into (0, 1], on the default t grid.
    """
    grid = default_t_grid(model)
    u = model.T - grid
    c = _criteria_curves(p, model, grid)
    s_d, _ = _loglog_slope(u, np.maximum(c["decay"].D ** 2, 1e-300))
    s_g, _ = _loglog_slope(u, np.maximum(c["grad"], 1e-300))
    s_h, _ = _loglog_slope(u, np.maximum(c["hess"], 1e-300))
    clamp = lambda x: min(1.0, x)
    return {"decay": clamp(s_d), "grad": clamp(1.0 + s_g),
            "hess": clamp(2.0 + s_h)}
