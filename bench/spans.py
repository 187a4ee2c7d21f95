"""Spans around calls into the bcastopt layers, recorded from outside the package.

Each traced function is replaced, in every ``bcastopt`` module that holds a
reference to it, by a wrapper that records one span (name, start, end,
parent). Replacing every reference means a call is traced under whatever
name its caller uses: ``scenario`` imports ``simulate_revenue`` by name,
while ``build_catalog`` reaches ``aggregate_delay_tolerance`` as a global of
its own module. A function that no longer exists is skipped, so its
metrics read zero instead of failing the run.

Spans stay in memory and are written out once, when the run ends;
:func:`layer_metrics` turns them into per-layer totals.
"""
from __future__ import annotations

import sys
import time

# (module, function, span name). The span name's prefix is the layer.
TRACED = (
    ("cli", "main", "cli.main"),
    ("scenario", "load_spec", "scenario.load_spec"),
    ("scenario", "normalize", "scenario.normalize"),
    ("scenario", "run_sweep", "scenario.sweep"),
    ("scenario", "run_validation", "scenario.validation"),
    ("scenario", "operating_point", "scenario.operating_point"),
    ("demand", "build_catalog", "demand.build_catalog"),
    ("demand", "aggregate_delay_tolerance", "demand.tolerance"),
    ("scheduler", "smith_schedule", "scheduler.schedule"),
    ("scheduler", "suboptimal_schedule", "scheduler.schedule"),
    ("scheduler", "popularity_schedule", "scheduler.schedule"),
    ("scheduler", "optimal_schedule", "scheduler.schedule"),
    ("scheduler", "brute_force_best_order", "scheduler.brute_force"),
    ("scheduler", "smith_cost", "scheduler.cost"),
    ("scheduler", "scheduled_demand_moment", "scheduler.cost"),
    ("optimizer", "lower_bound_revenue", "optimizer.lower_bound"),
    ("optimizer", "joint_optimize", "optimizer.joint_optimize"),
    ("optimizer", "closed_form_bandwidth", "optimizer.closed_form"),
    ("optimizer", "closed_form_price", "optimizer.closed_form"),
    ("optimizer", "price_validity_floor", "optimizer.closed_form"),
    ("optimizer", "revenue_gain", "optimizer.closed_form"),
    ("optimizer", "fixed_point_residuals", "optimizer.closed_form"),
    ("payoff", "simulate_revenue", "payoff.simulate"),
)
LAYERS = ("cli", "scenario", "demand", "scheduler", "optimizer", "payoff")


def _joint_iterations(result):
    return {"optimizer.joint_optimize_iterations": getattr(result, "iterations", 0)}


def _user_trials(report):
    return {"payoff.user_trials": report.n_users * report.trials}


# Counts read from a traced function's return value.
COUNTERS = {
    "optimizer.joint_optimize": _joint_iterations,
    "payoff.simulate": _user_trials,
}


def patch(module_name: str, func_name: str, make_wrapper) -> bool:
    """Replace ``bcastopt.<module>.<func>`` by ``make_wrapper(original)`` in
    every loaded bcastopt module that references it. Returns False when the
    function does not exist."""
    module = sys.modules.get(f"bcastopt.{module_name}")
    original = getattr(module, func_name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "bcastopt" or name.startswith("bcastopt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    return True


class Tracer:
    """Span recorder. ``spans[i]`` is ``[name, start, end, parent index or -1]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self):
        for module_name, func_name, span_name in TRACED:
            patch(module_name, func_name, lambda fn, n=span_name: self._wrap(fn, n))

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced


def _outermost(spans, key):
    """Indices of spans with no ancestor sharing ``key(span)``."""
    keep = []
    for i, span in enumerate(spans):
        k, parent = key(span), span[3]
        while parent >= 0 and key(spans[parent]) != k:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def span_totals(spans) -> dict[str, float]:
    """Per-name and per-layer totals of one process's spans.

    ``<name>_s`` / ``<name>_calls`` count only spans not nested inside a
    span of the same name, so wrappers that call each other (a schedule
    built from another schedule) are not counted twice. ``<name>_self_s``
    is the span's time minus the time of its direct children. The layer
    figures ``<layer>.total_s`` / ``.self_s`` / ``.calls`` do the same per
    layer, counting a call each time the layer is entered from another one.
    """
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        self_s = end - start - child_time[i]
        out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + self_s
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
    for i in _outermost(spans, lambda s: s[0]):
        name, start, end, _ = spans[i]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + end - start
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
    for i in _outermost(spans, lambda s: s[0].split(".", 1)[0]):
        name, start, end, _ = spans[i]
        layer = name.split(".", 1)[0]
        out[f"{layer}.total_s"] = out.get(f"{layer}.total_s", 0.0) + end - start
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
    return out
