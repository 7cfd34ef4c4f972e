"""Outside-in tracing of fracsmooth's public functions.

``install`` replaces each function listed in ``WRAPPED`` by a timing
wrapper, matching by object identity in every ``fracsmooth.*``
namespace, so ``from .model import gaussian_increments`` bindings and
``po.delta`` attribute lookups are both caught.  Layer names are module
names.  Nothing inside the package is edited.

Every wrapped call records a span (layer, function, causing span, op
index, start, end).  Span stacks are per thread.  ``model.map_blocks`` is
wrapped so that each block run on a pool thread becomes a span of the
layer that called ``map_blocks``, with that call's span as its parent;
the caller's own thread meanwhile sits in a layer-less wait span.  A
span's self time is its duration minus the spans nested in it on its own
thread, so busy time is charged once, to the innermost layer, on
whichever thread did the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time

import numpy as np

#: public functions wrapped per layer; ``timenets`` is too cheap to measure
WRAPPED = {
    "model": ("gaussian_increments", "simulate_gbm"),
    "quadrature": ("lognormal_grid", "gauss_normal_nodes"),
    "payoffs": ("price", "delta", "gamma", "second_moment",
                "conditional_variance", "payoff_eval"),
    "hedging": ("l2_tracking_error", "tracking_error_terminal",
                "tracking_error_process", "z_regularity"),
    "smoothness": ("conditional_l2_decay", "grad_growth_curve",
                   "hessian_growth_curve", "estimate_theta_sup",
                   "integral_criteria_verdicts", "growth_criteria_exponents"),
    "chaos": ("indicator_expansion", "exp_call_expansion", "project",
              "besov_criterion", "decay_from_chaos", "d12_norm"),
    "weaklimit": ("clock_A", "mixed_normal_sample", "ks_distance"),
    "ratefit": ("sweep", "fit_rate", "sweep_to_csv", "fit_summary"),
    "cli": ("main",),
}

VALUATIONS = ("price", "delta", "gamma", "second_moment",
              "conditional_variance")
CLOSED_FORM = ("call", "put", "binary", "affine")
HEDGE_MC = ("l2_tracking_error", "tracking_error_terminal",
            "tracking_error_process")
EXPANSIONS = ("indicator_expansion", "exp_call_expansion", "project")


class Span:
    __slots__ = ("layer", "name", "parent", "op", "block", "start", "end",
                 "child", "info")

    def __init__(self, layer, name, parent, op, block):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.block = block
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _bound(sig, args, kwargs) -> dict:
    return sig.bind(*args, **kwargs).arguments


def _draws(sig, args, kwargs, result):
    return {"draws": int(np.size(result))}


def _valuation(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    return {"kind": a["p"].kind, "t": float(a["t"]),
            "points": int(np.size(result))}


def _path_steps(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    return {"path_steps": int(a["m"]) * int(a["net"].n)}


def _coeffs(sig, args, kwargs, result):
    return {"coeffs": int(result.alpha.size)}


_INFO = {("model", "gaussian_increments"): _draws}
_INFO.update({("payoffs", n): _valuation for n in VALUATIONS})
_INFO.update({("hedging", n): _path_steps for n in HEDGE_MC})
_INFO.update({("chaos", n): _coeffs for n in EXPANSIONS})


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.present: set[str] = set()
        self.info_errors = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, layer, name, parent, block, fn, args, kwargs, info=None):
        stack = self._stack()
        span = Span(layer, name, parent, self.op, block)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child += span.end - span.start
            self.spans.append(span)
        if info is not None:
            try:
                span.info = info(args, kwargs, result)
            except Exception:   # a changed signature must not fail the op
                self.info_errors += 1
        return result

    def wrap(self, layer: str, name: str, fn):
        extract = _INFO.get((layer, name))
        info = None
        if extract is not None:
            sig = inspect.signature(fn)
            info = functools.partial(extract, sig)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            return self._run(layer, name, stack[-1] if stack else None,
                             False, fn, args, kwargs, info)
        return traced

    def wrap_map_blocks(self, map_blocks):
        @functools.wraps(map_blocks)
        def traced(fn, *args, **kwargs):
            stack = self._stack()
            cause = stack[-1] if stack else None
            layer = cause.layer if cause else None
            name = cause.name if cause else None

            def block(*bargs, **bkwargs):
                return self._run(layer, name, cause, True, fn, bargs, bkwargs)
            return self._run(None, "map_blocks", cause, False, map_blocks,
                             (block,) + args, kwargs)
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every present function of ``WRAPPED`` in all namespaces."""
    originals = {}
    for layer, names in WRAPPED.items():
        try:
            mod = importlib.import_module(f"fracsmooth.{layer}")
        except ModuleNotFoundError:
            continue
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                tracer.present.add(f"{layer}.{name}")
                originals[id(fn)] = (fn, tracer.wrap(layer, name, fn))
    fn = getattr(sys.modules.get("fracsmooth.model"), "map_blocks", None)
    if callable(fn):
        tracer.present.add("model.map_blocks")
        originals[id(fn)] = (fn, tracer.wrap_map_blocks(fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "fracsmooth" and not modname.startswith("fracsmooth."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den scaled; 0.0 when the layer did no such work."""
    return scale * num / den if den else 0.0


def _boundary(span: Span, layer: str) -> bool:
    """True for a call that enters ``layer`` from outside it."""
    return not span.block and (span.parent is None
                               or span.parent.layer != layer)


def _qualified(layer: str, names=None) -> tuple:
    return tuple(f"{layer}.{n}" for n in names or WRAPPED[layer])


_VALUATIONS = _qualified("payoffs", VALUATIONS)
_EXPANSIONS = _qualified("chaos", EXPANSIONS)

#: functions each metric reads; a metric is null when one is missing
NEEDS = {
    "model.self_s": _qualified("model"),
    "model.draws": ("model.gaussian_increments",),
    "model.ns_per_draw": ("model.gaussian_increments",),
    "model.simulate_s": ("model.simulate_gbm",),
    "hedging.self_s": _qualified("hedging"),
    "hedging.path_steps": _qualified("hedging", HEDGE_MC),
    "hedging.ns_per_path_step": _qualified("hedging", HEDGE_MC)
    + ("model.map_blocks", "model.gaussian_increments", "payoffs.delta"),
    "hedging.zreg_self_s": ("hedging.z_regularity",),
    "payoffs.self_s": _qualified("payoffs"),
    **dict.fromkeys(("payoffs.calls", "payoffs.points",
                     "payoffs.closed_ns_per_point",
                     "payoffs.holder_ns_per_point",
                     "payoffs.holder_table_ms_p50",
                     "payoffs.holder_table_ms_p90", "payoffs.holder_tables",
                     "payoffs.holder_reuse"), _VALUATIONS),
    "quadrature.self_s": _qualified("quadrature"),
    "quadrature.grid_calls": ("quadrature.lognormal_grid",),
    "quadrature.grid_us_per_call": ("quadrature.lognormal_grid",),
    "smoothness.self_s": _qualified("smoothness"),
    "smoothness.verdicts_s": ("smoothness.integral_criteria_verdicts",),
    "chaos.self_s": _qualified("chaos"),
    **dict.fromkeys(("chaos.coeffs_generated", "chaos.coeff_useful_ratio",
                     "chaos.expansion_s"), _EXPANSIONS),
    "chaos.besov_self_s": ("chaos.besov_criterion",),
    "weaklimit.self_s": _qualified("weaklimit"),
    "ratefit.self_s": _qualified("ratefit"),
    "cli.self_s": ("cli.main",),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    spans = tracer.spans
    self_layer: dict[str, float] = {}
    self_name: dict[tuple, float] = {}
    for sp in spans:
        if sp.layer is None:
            continue
        st = sp.self_time
        self_layer[sp.layer] = self_layer.get(sp.layer, 0.0) + st
        key = (sp.layer, sp.name)
        self_name[key] = self_name.get(key, 0.0) + st

    def info_sum(layer, names, field):
        return sum(sp.info[field] for sp in spans
                   if sp.layer == layer and sp.name in names and sp.info
                   and _boundary(sp, layer))

    draws = sum(sp.info["draws"] for sp in spans if sp.layer == "model"
                and sp.name == "gaussian_increments" and sp.info)
    steps = info_sum("hedging", HEDGE_MC, "path_steps")
    hedge_mc_self = sum(self_name.get(("hedging", n), 0.0) for n in HEDGE_MC)

    vals = [sp for sp in spans if sp.layer == "payoffs"
            and sp.name in VALUATIONS and sp.info and _boundary(sp, "payoffs")]
    closed = [sp for sp in vals if sp.info["kind"] in CLOSED_FORM]
    holder = [sp for sp in vals if sp.info["kind"] == "power_holder"]
    closed_pts = sum(sp.info["points"] for sp in closed)
    holder_pts = sum(sp.info["points"] for sp in holder)
    holder_ms = [1e3 * sp.duration for sp in holder]

    grids = [sp for sp in spans if sp.layer == "quadrature"
             and sp.name == "lognormal_grid"]
    verdicts = [sp.duration for sp in spans if sp.layer == "smoothness"
                and sp.name == "integral_criteria_verdicts"]
    expansions = [sp for sp in spans if sp.layer == "chaos"
                  and sp.name in EXPANSIONS and sp.info]
    coeffs = sum(sp.info["coeffs"] for sp in expansions)

    out = {
        "model.self_s": self_layer.get("model", 0.0),
        "model.draws": draws,
        "model.ns_per_draw": _ratio(
            self_name.get(("model", "gaussian_increments"), 0.0), draws, 1e9),
        "model.simulate_s": sum((sp.duration for sp in spans
                                 if sp.layer == "model" and not sp.block
                                 and sp.name == "simulate_gbm"), 0.0),
        "hedging.self_s": self_layer.get("hedging", 0.0),
        "hedging.path_steps": steps,
        "hedging.ns_per_path_step": _ratio(hedge_mc_self, steps, 1e9),
        "hedging.zreg_self_s": self_name.get(("hedging", "z_regularity"), 0.0),
        "payoffs.self_s": self_layer.get("payoffs", 0.0),
        "payoffs.calls": len(vals),
        "payoffs.points": sum(sp.info["points"] for sp in vals),
        "payoffs.closed_ns_per_point": _ratio(
            sum(sp.duration for sp in closed), closed_pts, 1e9),
        "payoffs.holder_ns_per_point": _ratio(
            sum(sp.duration for sp in holder), holder_pts, 1e9),
        "payoffs.holder_table_ms_p50": (float(np.percentile(holder_ms, 50))
                                        if holder_ms else 0.0),
        "payoffs.holder_table_ms_p90": (float(np.percentile(holder_ms, 90))
                                        if holder_ms else 0.0),
        "payoffs.holder_tables": len(holder),
        "payoffs.holder_reuse": _ratio(
            len({sp.info["t"] for sp in holder}), len(holder)),
        "quadrature.self_s": self_layer.get("quadrature", 0.0),
        "quadrature.grid_calls": len(grids),
        "quadrature.grid_us_per_call": _ratio(
            sum(sp.self_time for sp in grids), len(grids), 1e6),
        "smoothness.self_s": self_layer.get("smoothness", 0.0),
        "smoothness.verdicts_s": (statistics.median(verdicts)
                                  if verdicts else 0.0),
        "chaos.self_s": self_layer.get("chaos", 0.0),
        "chaos.coeffs_generated": coeffs,
        "chaos.coeff_useful_ratio": _ratio(
            max((sp.info["coeffs"] for sp in expansions), default=0), coeffs),
        "chaos.expansion_s": sum((sp.self_time for sp in expansions), 0.0),
        "chaos.besov_self_s": self_name.get(("chaos", "besov_criterion"), 0.0),
        "weaklimit.self_s": self_layer.get("weaklimit", 0.0),
        "ratefit.self_s": self_layer.get("ratefit", 0.0),
        "cli.self_s": self_layer.get("cli", 0.0),
    }
    for metric, needs in NEEDS.items():
        if not all(n in tracer.present for n in needs):
            out[metric] = None
    return out
