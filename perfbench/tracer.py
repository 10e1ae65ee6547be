"""Outside-in tracer: wraps the package's public functions where they are
bound, records spans and counts, and puts every original back on stop.

The package imports functions by name (``from .quadrature import
integrate``), so a function is replaced in every module that holds it, not
only where it is defined. Spans keep one stack per thread because pool
workers call ``SeriesEvaluator.at``. Spans are aggregated in memory by
(parent, name); a span's self time is its duration minus the time of the
child spans that ran on the same thread.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

import durrmeyer
from durrmeyer import analysis, cli, kernels, moments, operators, orlicz, quadrature, signals

MODULES = (durrmeyer, cli, analysis, operators, orlicz, moments, quadrature, kernels, signals)
LAYERS = ("kernels", "signals", "quadrature", "moments", "operators", "orlicz", "analysis", "cli")

# Public functions replaced wherever a module holds them, by span name.
_FUNCTIONS = {
    "kernels.partition_of_unity_residual": kernels.partition_of_unity_residual,
    "moments.discrete_absolute_moment": moments.discrete_absolute_moment,
    "moments.continuous_absolute_moment": moments.continuous_absolute_moment,
    "moments.continuous_algebraic_moment": moments.continuous_algebraic_moment,
    "moments.discrete_algebraic_moment": moments.discrete_algebraic_moment,
    "orlicz.modular": orlicz.modular,
    "orlicz.modular_distance": orlicz.modular_distance,
    "orlicz.luxemburg_norm": orlicz.luxemburg_norm,
    "analysis.quantitative_constant": analysis.quantitative_constant,
    "analysis.convergence_study": analysis.convergence_study,
    "analysis.verify_quantitative_bound": analysis.verify_quantitative_bound,
    "analysis.verify_modular_inequality": analysis.verify_modular_inequality,
    "cli.kernel-check": cli.cmd_kernel_check,
    "cli.reconstruct": cli.cmd_reconstruct,
    "cli.converge": cli.cmd_converge,
    "cli.orlicz": cli.cmd_orlicz,
}

# The three modules that call ``integrate``; each integrand is traced as
# work of the calling layer.
_INTEGRATE_SITES = (operators, orlicz, moments)

_EVALUATOR_SPANS = {
    "at": "operators.at",
    "evaluate": "operators.evaluate",
    "on_grid": "operators.on_grid",
    "prefill": "operators.prefill",
    "_compute_sample": "operators.sample",
}


class _Record:
    __slots__ = ("calls", "total", "self_time", "values", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.values = 0
        self.errors = 0


class _ThreadState:
    def __init__(self, root):
        self.root = root  # parent name of spans opened on an empty stack
        self.stack = []  # frames: [span name, child seconds]
        self.records = defaultdict(_Record)  # (parent, name) -> _Record


class Tracer:
    """Install with :meth:`start`, undo with :meth:`stop`, read :meth:`metrics`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._restore = []
        self._sample_requests = itertools.count()
        self._requests = 0
        self._stencil_terms = 0
        self._used = weakref.WeakKeyDictionary()
        self._used_finalizers = []
        self._used_total = 0
        self._grid_passes = 0
        self._grid_scales = set()
        self._client = threading.get_ident()
        self._pool_busy = []  # (start, end) of spans run by pool threads

    # -- span bookkeeping -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            root = None if threading.get_ident() == self._client else "pool"
            state = self._local.state = _ThreadState(root)
            with self._lock:
                self._states.append(state)
            return state

    def _span(self, name, fn, count_values=False):
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1][0] if stack else state.root
            frame = [name, 0.0]
            stack.append(frame)
            failed = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                elif state.root:
                    with self._lock:
                        self._pool_busy.append((start, start + elapsed))
                record = state.records[(parent, name)]
                record.calls += 1
                record.total += elapsed
                record.self_time += elapsed - frame[1]
                if failed:
                    record.errors += 1
                if count_values and args:
                    record.values += int(np.size(args[0]))

        return traced

    def _in_span(self, prefix) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._state().stack)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def start(self):
        for name, original in _FUNCTIONS.items():
            self._replace_everywhere(original, self._span(name, original))

        original_integrate = quadrature.integrate
        for site in _INTEGRATE_SITES:
            self._set(site, "integrate", self._integrate_at(site, original_integrate))

        for factory in ("bspline", "fejer", "window"):
            self._replace_everywhere(getattr(kernels, factory),
                                     self._evaluator_factory(getattr(kernels, factory),
                                                             "kernels.evaluate"))
        self._replace_everywhere(signals.builtin_signal,
                                 self._evaluator_factory(signals.builtin_signal,
                                                         "signals.evaluate"))

        evaluator = operators.SeriesEvaluator
        for method, name in _EVALUATOR_SPANS.items():
            self._set(evaluator, method, self._span(name, evaluator.__dict__[method]))
        self._set(evaluator, "sample", self._count_sample(evaluator.sample))
        self._set(evaluator, "_index_range", self._watch_stencil(evaluator._index_range))
        self._set(evaluator, "on_grid", self._watch_grid_pass(evaluator.on_grid))
        spec = operators.OperatorSpec
        self._set(spec, "__post_init__", self._span("operators.OperatorSpec", spec.__post_init__))

    def stop(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        # After n ticks the counter hands out n.
        self._requests = next(self._sample_requests)
        gc.collect()
        for finalizer in self._used_finalizers:
            finalizer()
        self._used_finalizers.clear()

    def _replace_everywhere(self, original, replacement):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _integrate_at(self, site, original):
        layer = site.__name__.rsplit(".", 1)[-1]
        integrand_name = f"{layer}.integrand"
        traced_integrate = self._span("quadrature.integrate", original)

        def integrate(f, *args, **kwargs):
            return traced_integrate(self._span(integrand_name, f, count_values=True),
                                    *args, **kwargs)

        return integrate

    def _evaluator_factory(self, factory, span_name):
        def traced_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            evaluate = self._span(span_name, made.evaluate, count_values=True)
            return dataclasses.replace(made, evaluate=evaluate)

        return traced_factory

    def _count_sample(self, sample):
        tick = self._sample_requests.__next__

        def counted(evaluator, k):
            tick()
            return sample(evaluator, k)

        return counted

    def _watch_stencil(self, index_range):
        def watched(evaluator, x):
            ks = index_range(evaluator, x)
            stack = self._state().stack
            if stack and stack[-1][0] == "operators.at":
                with self._lock:
                    self._stencil_terms += ks.size
                    intervals = self._used.get(evaluator)
                    if intervals is None:
                        intervals = self._used[evaluator] = []
                        self._used_finalizers.append(
                            weakref.finalize(evaluator, self._close_used, intervals))
                    intervals.append((int(ks[0]), int(ks[-1])))
            return ks

        return watched

    def _close_used(self, intervals):
        distinct = 0
        reach = None
        for lo, hi in sorted(intervals):
            if reach is not None and lo <= reach:
                lo = reach + 1
            if hi >= lo:
                distinct += hi - lo + 1
            reach = hi if reach is None else max(reach, hi)
        with self._lock:
            self._used_total += distinct

    def _watch_grid_pass(self, on_grid):
        """Counts grid passes made by the analysis drivers, and takes the
        time spent waiting on pool threads out of the pass's self time."""

        def watched(evaluator, points, *args, **kwargs):
            state = self._state()
            parent = state.stack[-1][0] if state.stack else state.root
            if self._in_span("analysis."):
                with self._lock:
                    self._grid_passes += 1
                    self._grid_scales.add(evaluator.spec.w)
            start = time.perf_counter()
            try:
                return on_grid(evaluator, points, *args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    busy, self._pool_busy = self._pool_busy, []
                state.records[(parent, "operators.on_grid")].self_time -= \
                    _covered(busy, start, end)

        return watched

    # -- results ----------------------------------------------------------

    def records(self) -> tuple:
        """Aggregated records keyed by span name, and the (parent, name) edges."""
        by_name = defaultdict(_Record)
        edges = {}
        for state in self._states:
            for (parent, name), record in state.records.items():
                total = by_name[name]
                total.calls += record.calls
                total.total += record.total
                total.self_time += record.self_time
                total.values += record.values
                total.errors += record.errors
                edge = edges.setdefault((parent, name), _Record())
                edge.calls += record.calls
                edge.total += record.total
        return by_name, edges

    def metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit) pairs."""
        spans, _ = self.records()
        get = spans.__getitem__
        kernel = get("kernels.evaluate")
        integrand_calls = sum(get(f"{layer}.integrand").calls
                              for layer in ("operators", "orlicz", "moments"))
        integrate = get("quadrature.integrate")
        computed = get("operators.sample").calls
        out = {
            "kernels.evaluate.calls": (kernel.calls, "count"),
            "kernels.evaluate.values": (kernel.values, "count"),
            "kernels.values_per_call": (_ratio(kernel.values, kernel.calls), "values/call"),
            "kernels.evaluate.self_s": (kernel.self_time, "s"),
            "kernels.partition_of_unity_residual.calls":
                (get("kernels.partition_of_unity_residual").calls, "count"),
            "kernels.partition_of_unity_residual.s":
                (get("kernels.partition_of_unity_residual").total, "s"),
            "signals.evaluate.calls": (get("signals.evaluate").calls, "count"),
            "signals.evaluate.values": (get("signals.evaluate").values, "count"),
            "quadrature.integrate.calls": (integrate.calls, "count"),
            "quadrature.integrate.self_s": (integrate.self_time, "s"),
            "quadrature.integrand_calls": (integrand_calls, "count"),
            "quadrature.cells_per_integral": (_ratio(integrand_calls, integrate.calls), "cells"),
            "quadrature.errors": (integrate.errors, "count"),
            "moments.discrete_absolute_moment.calls":
                (get("moments.discrete_absolute_moment").calls, "count"),
            "moments.discrete_absolute_moment.s":
                (get("moments.discrete_absolute_moment").total, "s"),
            "moments.continuous_absolute_moment.calls":
                (get("moments.continuous_absolute_moment").calls, "count"),
            "moments.continuous_absolute_moment.s":
                (get("moments.continuous_absolute_moment").total, "s"),
            "operators.sample.requests": (self._requests, "count"),
            "operators.sample.computed": (computed, "count"),
            "operators.sample.used": (self._used_total, "count"),
            "operators.sample.useful_ratio": (_ratio(self._used_total, computed), "ratio"),
            "operators.sample.self_s": (get("operators.sample").self_time, "s"),
            "operators.at.calls": (get("operators.at").calls, "count"),
            "operators.at.self_s": (get("operators.at").self_time, "s"),
            "operators.stencil_terms": (self._stencil_terms, "count"),
            "operators.on_grid.s": (get("operators.on_grid").total, "s"),
            "operators.OperatorSpec.s": (get("operators.OperatorSpec").total, "s"),
            "orlicz.modular.calls": (get("orlicz.modular").calls, "count"),
            "orlicz.modular.s": (get("orlicz.modular").total, "s"),
            "orlicz.modular.nodes": (get("orlicz.integrand").values, "count"),
            "orlicz.overflows": (get("orlicz.modular").errors, "count"),
            "orlicz.luxemburg_norm.s": (get("orlicz.luxemburg_norm").total, "s"),
            "analysis.convergence_study.s": (get("analysis.convergence_study").total, "s"),
            "analysis.verify_quantitative_bound.s":
                (get("analysis.verify_quantitative_bound").total, "s"),
            "analysis.verify_modular_inequality.calls":
                (get("analysis.verify_modular_inequality").calls, "count"),
            "analysis.verify_modular_inequality.s":
                (get("analysis.verify_modular_inequality").total, "s"),
            "analysis.quantitative_constant.calls":
                (get("analysis.quantitative_constant").calls, "count"),
            "analysis.grid_passes_per_scale":
                (_ratio(self._grid_passes, len(self._grid_scales)), "passes"),
        }
        for command in ("kernel-check", "reconstruct", "converge", "orlicz"):
            out[f"cli.{command}.s"] = (get(f"cli.{command}").total, "s")
        for layer in LAYERS:
            self_time = sum(record.self_time for name, record in spans.items()
                            if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = (self_time, "s")
        return out


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
