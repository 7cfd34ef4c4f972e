"""Numerical laboratory for fractional smoothness of option payoffs
and the convergence of discrete-time delta hedging under geometric
Brownian motion."""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateCurveError, DegeneratePathsError,
                     ExactHedgeError, FracsmoothError, QuadratureError,
                     SimulationError)
from .model import MarketModel, child_seed, simulate_gbm
from .timenets import TimeNet, make_theta_net
from .payoffs import Payoff, delta, gamma, payoff_eval, price
from .chaos import (ChaosExpansion, besov_criterion, d12_norm,
                    decay_from_chaos, exp_call_expansion, indicator_expansion,
                    project)
from .hedging import (L2ErrorEstimate, TrackingErrorSample, l2_tracking_error,
                      tracking_error_process, tracking_error_terminal,
                      z_regularity)
from .smoothness import (DecayCurve, ThetaEstimate, conditional_l2_decay,
                         estimate_theta_sup, integral_criteria_verdicts,
                         growth_criteria_exponents)
from .weaklimit import ClockSample, clock_A, ks_distance, mixed_normal_sample
from .ratefit import RateFit, SweepResult, fit_rate, fit_summary, sweep

__all__ = [
    "__version__",
    "FracsmoothError", "ConfigError", "QuadratureError", "SimulationError",
    "DegenerateCurveError", "DegeneratePathsError", "ExactHedgeError",
    "MarketModel", "child_seed", "simulate_gbm",
    "TimeNet", "make_theta_net",
    "Payoff", "payoff_eval", "price", "delta", "gamma",
    "ChaosExpansion", "project", "indicator_expansion", "exp_call_expansion",
    "d12_norm", "besov_criterion", "decay_from_chaos",
    "TrackingErrorSample", "L2ErrorEstimate", "tracking_error_terminal",
    "tracking_error_process", "l2_tracking_error", "z_regularity",
    "DecayCurve", "ThetaEstimate", "conditional_l2_decay",
    "estimate_theta_sup", "integral_criteria_verdicts",
    "growth_criteria_exponents",
    "ClockSample", "clock_A", "mixed_normal_sample", "ks_distance",
    "RateFit", "SweepResult", "fit_rate", "sweep", "fit_summary",
]
