"""Outside-in span recorder for smartcea.

The recorder wraps each public function of the package at every place it is
bound: the defining module and every module that imported it by name (for
example ``smartcea.study.regime_mean`` as well as
``smartcea.estimate.regime_mean``).  Patching only the defining module would
miss calls made through those name-bound imports.  Nothing in the package is
edited; the wrappers are removed when the ``installed()`` block exits.

Each call becomes a span ``[name, start, end, parent, ok, facts]`` kept in
memory.  Self time is derived afterwards: a span's duration minus the part of
it covered by its child spans.  Random variates are counted by a pass-through
proxy around every Generator that ``philox_stream`` hands out, and Dataset
constructions by a counter on ``Dataset.__init__``.

``layer_metrics`` turns the spans into per-unit numbers, restricted to the
time intervals the workload marked as units, so set-up work and calls outside
units do not leak into per-unit figures.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import inspect
import sys
import time
from typing import Callable, Iterator

import numpy as np

clock = time.perf_counter

# Span fields.
NAME, START, END, PARENT, OK, FACTS = range(6)


class CountingGenerator:
    """Pass-through proxy for a numpy Generator that counts variates drawn."""

    def __init__(self, generator, tracer: "Tracer") -> None:
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._generator, attr)
        if not callable(value):
            return value
        events = self._tracer.events["rng.draws"]

        def draw(*args, **kwargs):
            out = value(*args, **kwargs)
            events.append((clock(), int(np.size(out))))
            return out

        return draw


def _observe_fit(tracer, fn, rec, args, kwargs, result):
    response = kwargs["response"] if "response" in kwargs else args[1]
    weights = kwargs["weights"] if "weights" in kwargs else (
        args[2] if len(args) > 2 else None
    )
    rows = int(np.shape(response)[0])
    weighted = rows if weights is None else int(np.count_nonzero(np.asarray(weights) > 0))
    rec[FACTS] = (result.iterations, bool(result.converged), rows, weighted)
    return result


def _observe_tmle(tracer, fn, rec, args, kwargs, result):
    mean_ic = abs(float(np.mean(result.ic)))
    tracer.max_abs_mean_ic = max(tracer.max_abs_mean_ic, mean_ic)
    return result


def _wrap_stream(tracer, fn, rec, args, kwargs, result):
    return CountingGenerator(result, tracer)


def _observe_simulate(tracer, fn, rec, args, kwargs, result):
    rec[FACTS] = result.n
    return result


def _observe_truth(tracer, fn, rec, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rec[FACTS] = int(bound.arguments["mc_draws"])
    return result


def _observe_bootstrap(tracer, fn, rec, args, kwargs, result):
    rec[FACTS] = (result.n_replicates, result.n_degenerate)
    return result


def _observe_study(tracer, fn, rec, args, kwargs, result):
    failed = sum(int(d.failed.sum()) for d in result.draws.values())
    unreliable = sum(int(d.unreliable.sum()) for d in result.draws.values())
    rec[FACTS] = (failed, unreliable)
    return result


# (module, attribute, span name, hook).  A hook sees the finished call and
# returns the value handed back to the caller.
SPANS = (
    ("smartcea.rng", "philox_stream", "rng.philox_stream", _wrap_stream),
    ("smartcea.dgp", "simulate_smart", "dgp.simulate_smart", _observe_simulate),
    ("smartcea.dgp", "true_values", "dgp.true_values", _observe_truth),
    ("smartcea.core", "Dataset.take", "core.Dataset.take", None),
    ("smartcea.glm", "fit_logistic", "glm.fit_logistic", _observe_fit),
    ("smartcea.estimate", "estimate_g", "estimate.estimate_g", None),
    ("smartcea.estimate", "regime_mean", "estimate.regime_mean", None),
    ("smartcea.estimate", "ipw_mean", "estimate.ipw_mean", None),
    ("smartcea.estimate", "tmle_mean", "estimate.tmle_mean", _observe_tmle),
    ("smartcea.inference", "risk_difference", "inference.risk_difference", None),
    ("smartcea.inference", "wald_ci", "inference.wald_ci", None),
    ("smartcea.inference", "delta_method_ic", "inference.delta_method_ic", None),
    ("smartcea.inference", "icer", "inference.icer", None),
    ("smartcea.inference", "contrast", "inference.contrast", None),
    ("smartcea.inference", "bootstrap_ci", "inference.bootstrap_ci", _observe_bootstrap),
    ("smartcea.study", "run_study", "study.run_study", _observe_study),
    ("smartcea.cli", "main", "cli.main", None),
    ("smartcea.cli", "ingest_dataset", "cli.ingest_dataset", None),
    ("smartcea.cli", "write_csv", "cli.write_csv", None),
)

# (module, attribute, event name): calls counted as timestamped events only.
COUNTERS = (("smartcea.core", "Dataset.__init__", "core.dataset_builds"),)


def _resolve(module: str, attribute: str):
    """(owner, name, function); raises when the package no longer has it, so a
    renamed function fails the traced run instead of reading zero."""
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        raise AttributeError(f"{module}.{attribute} is gone; update perfbench/spans.py")
    return owner, leaf, vars(owner)[leaf]


def binding_sites(original) -> list[tuple[object, str]]:
    """Every (module, name) in the package bound to ``original``."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "smartcea" or mod_name.startswith("smartcea.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


class Tracer:
    """In-memory span recorder; install with ``with tracer.installed():``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.events: dict[str, list[tuple[float, int]]] = {
            "rng.draws": [],
            "core.dataset_builds": [],
        }
        self.max_abs_mean_ic = 0.0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, True, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                result = hook(self, fn, rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        events = self.events[name]

        def counting(*args, **kwargs):
            events.append((clock(), 1))
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding site of the instrumented functions; undo on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            for module, attribute, name, hook in SPANS:
                owner, leaf, original = _resolve(module, attribute)
                wrapper = self.wrap(name, original, hook)
                sites = [(owner, leaf)] if isinstance(owner, type) else binding_sites(original)
                for site, attr in sites:
                    undo.append((site, attr, original))
                    setattr(site, attr, wrapper)
            for module, attribute, name in COUNTERS:
                owner, leaf, original = _resolve(module, attribute)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self.counted(name, original))
            yield self
        finally:
            for site, attr, original in reversed(undo):
                setattr(site, attr, original)


class UnitClock:
    """Measure of the union of unit intervals up to any instant."""

    def __init__(self, units: list[tuple[float, float]]) -> None:
        units = sorted(units)
        self.starts = [a for a, _ in units]
        self.ends = [b for _, b in units]
        self.cum = [0.0]
        for a, b in units:
            self.cum.append(self.cum[-1] + (b - a))

    def covered_until(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return 0.0
        return self.cum[i] + min(t, self.ends[i]) - self.starts[i]

    def overlap(self, a: float, b: float) -> float:
        return self.covered_until(b) - self.covered_until(a)

    def contains(self, t: float) -> bool:
        i = bisect.bisect_right(self.starts, t) - 1
        return i >= 0 and t < self.ends[i]


def self_times(spans: list[list], within: UnitClock | None = None) -> list[float]:
    """Per-span self time in seconds; only time inside the units if given."""
    if within is None:
        own = [rec[END] - rec[START] for rec in spans]
    else:
        own = [within.overlap(rec[START], rec[END]) for rec in spans]
    out = list(own)
    for rec, dur in zip(spans, own):
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= dur
    return out


# Spans whose self time makes up the inference layer.
INFERENCE_SPANS = frozenset({
    "inference.risk_difference", "inference.wald_ci", "inference.delta_method_ic",
    "inference.icer", "inference.contrast",
})

# Per-layer metrics reported for every workload: name -> unit.
LAYER_METRICS = {
    "glm.fits": "count/unit",
    "glm.irls_iters": "count/unit",
    "glm.fit_ms": "ms/unit",
    "glm.fits_not_converged": "count/unit",
    "glm.fits_failed": "count/unit",
    "glm.weighted_row_share": "ratio",
    "estimate.regime_mean_calls": "count/unit",
    "estimate.tmle_calls": "count/unit",
    "estimate.tmle_ms": "ms/unit",
    "estimate.ipw_calls": "count/unit",
    "estimate.ipw_ms": "ms/unit",
    "estimate.g_calls": "count/unit",
    "estimate.g_ms": "ms/unit",
    "dgp.simulate_smart_ms": "ms/unit",
    "dgp.true_values_ms": "ms/unit",
    "rng.variates_drawn": "count/unit",
    "rng.useful_draw_ratio": "ratio",
    "rng.streams": "count/unit",
    "core.take_ms": "ms/unit",
    "core.dataset_builds": "count/unit",
    "inference.ms": "ms/unit",
    "inference.bootstrap_degenerate": "count/unit",
    "study.failed_cells": "count/unit",
    "study.unreliable_cells": "count/unit",
    "study.self_ms": "ms/unit",
    "cli.ingest_ms": "ms/unit",
    "cli.write_csv_ms": "ms/unit",
    "cli.self_ms": "ms/unit",
    "trace.units": "count",
    "trace.spans": "count/unit",
    "trace.unit_ms": "ms",
    "trace.overhead_pct": "%",
}

# Self-time metrics: metric -> span name.
_SELF_MS = {
    "glm.fit_ms": "glm.fit_logistic",
    "estimate.tmle_ms": "estimate.tmle_mean",
    "estimate.ipw_ms": "estimate.ipw_mean",
    "estimate.g_ms": "estimate.estimate_g",
    "dgp.simulate_smart_ms": "dgp.simulate_smart",
    "dgp.true_values_ms": "dgp.true_values",
    "core.take_ms": "core.Dataset.take",
    "study.self_ms": "study.run_study",
    "cli.ingest_ms": "cli.ingest_dataset",
    "cli.write_csv_ms": "cli.write_csv",
    "cli.self_ms": "cli.main",
}

# Call-count metrics: metric -> span name.
_CALLS = {
    "glm.fits": "glm.fit_logistic",
    "estimate.regime_mean_calls": "estimate.regime_mean",
    "estimate.tmle_calls": "estimate.tmle_mean",
    "estimate.ipw_calls": "estimate.ipw_mean",
    "estimate.g_calls": "estimate.estimate_g",
    "rng.streams": "rng.philox_stream",
}


def layer_metrics(tracer: Tracer, units: list[tuple[float, float]]) -> dict[str, float]:
    """Per-unit layer figures over the spans and events that fall in ``units``.

    Calls and events count when they start inside a unit; self time counts
    only the part that lies inside a unit.  The ``trace.*`` figures other
    than ``trace.units`` and ``trace.spans`` are filled in by the caller.
    """
    k = max(len(units), 1)
    within = UnitClock(units)
    spans = tracer.spans
    selfs = self_times(spans, within)
    inside = [within.contains(rec[START]) for rec in spans]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rec, own, counted in zip(spans, selfs, inside):
        self_s[rec[NAME]] = self_s.get(rec[NAME], 0.0) + own
        if counted:
            calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1

    iters = not_converged = failed_fits = rows = weighted = 0
    sim_useful = sim_drawn = 0.0
    degenerate = failed_cells = unreliable_cells = 0
    draws = tracer.events["rng.draws"]
    draw_times = [t for t, _ in draws]
    for idx, (rec, counted) in enumerate(zip(spans, inside)):
        if not counted:
            continue
        name, facts = rec[NAME], rec[FACTS]
        if name == "glm.fit_logistic":
            if not rec[OK]:
                failed_fits += 1
            elif facts is not None:
                iters += facts[0]
                not_converged += not facts[1]
                rows += facts[2]
                weighted += facts[3]
        elif name in ("dgp.simulate_smart", "dgp.true_values") and facts is not None:
            # Each draw call yields one variate per row of a stream's block;
            # the rows the caller keeps are the useful ones.
            lo = bisect.bisect_left(draw_times, rec[START])
            hi = bisect.bisect_right(draw_times, rec[END])
            span_draws = draws[lo:hi]
            streams = 0
            for child in spans[idx + 1:]:
                if child[START] > rec[END]:
                    break
                streams += child[NAME] == "rng.philox_stream"
            if span_draws and streams:
                sim_drawn += sum(size for _, size in span_draws)
                sim_useful += facts * len(span_draws) / streams
        elif name == "inference.bootstrap_ci" and facts is not None:
            degenerate += facts[1]
        elif name == "study.run_study" and facts is not None:
            failed_cells += facts[0]
            unreliable_cells += facts[1]

    drawn = sum(size for t, size in draws if within.contains(t))
    # Draws outside simulate_smart / true_values are used in full.
    useful = drawn - sim_drawn + sim_useful
    builds = sum(1 for t, _ in tracer.events["core.dataset_builds"] if within.contains(t))

    out = {name: 0.0 for name in LAYER_METRICS}
    for metric, span in _SELF_MS.items():
        out[metric] = 1000.0 * self_s.get(span, 0.0) / k
    for metric, span in _CALLS.items():
        out[metric] = calls.get(span, 0) / k
    out["inference.ms"] = 1000.0 * sum(self_s.get(s, 0.0) for s in INFERENCE_SPANS) / k
    out["glm.irls_iters"] = iters / k
    out["glm.fits_not_converged"] = not_converged / k
    out["glm.fits_failed"] = failed_fits / k
    out["glm.weighted_row_share"] = weighted / rows if rows else 0.0
    out["rng.variates_drawn"] = drawn / k
    out["rng.useful_draw_ratio"] = useful / drawn if drawn else 0.0
    out["core.dataset_builds"] = builds / k
    out["inference.bootstrap_degenerate"] = degenerate / k
    out["study.failed_cells"] = failed_cells / k
    out["study.unreliable_cells"] = unreliable_cells / k
    out["trace.units"] = float(len(units))
    out["trace.spans"] = sum(inside) / k
    return out


def self_time_table(tracer: Tracer, units: list[tuple[float, float]]) -> dict[str, dict]:
    """Calls and self milliseconds per span name, inside and outside units."""
    within = UnitClock(units)
    table: dict[str, dict] = {}
    for rec, own_in, own_all in zip(
        tracer.spans, self_times(tracer.spans, within), self_times(tracer.spans)
    ):
        row = table.setdefault(
            rec[NAME], {"calls": 0, "self_ms_in_units": 0.0, "self_ms_total": 0.0}
        )
        row["calls"] += 1
        row["self_ms_in_units"] += 1000.0 * own_in
        row["self_ms_total"] += 1000.0 * own_all
    return table
