"""Span tracer for the benchmark's traced run.

The package is not modified: every public function and public method of
each layer module is wrapped from outside, and every module attribute in
the package bound to the original is rebound to the wrapper for the
duration of the run.  Private helpers are left alone, so renaming or
deleting them does not break the tracer.

A span is (name, start, end, parent, job).  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "dirinfo"
LAYERS = ("cli", "core", "discrete", "measures", "gaussian", "inference", "simulate")
SETUP = "setup"

# Every per-layer metric of a traced run, with its unit.  Job quantities
# are per traced job, set-up quantities per set-up.  The last four are
# measured by the runner itself.
LAYER_UNITS = {
    "cli.self_s": "s/job",
    "cli.calls": "calls/job",
    "core.self_s": "s/job",
    "core.load_panel_s": "s/job",
    "core.load_panel_bytes": "B/job",
    "core.symbolize_s": "s/job",
    "core.entropy_of_cells_s": "s/job",
    "core.entropy_of_cells_calls": "calls/job",
    "core.entropy_cache_hit_ratio": "ratio",
    "core.write_panel_s": "s/setup",
    "discrete.self_s": "s/job",
    "discrete.enumerate_joint_s": "s/job",
    "discrete.table_entries": "entries/job",
    "discrete.table_bytes": "B/job",
    "measures.self_s": "s/job",
    "measures.decompose_s": "s/job",
    "measures.measure_calls": "calls/job",
    "gaussian.self_s": "s/job",
    "gaussian.geweke_index_s": "s/job",
    "gaussian.gaussian_mi_rate_s": "s/job",
    "gaussian.prediction_variance_s": "s/job",
    "gaussian.prediction_variance_calls": "calls/job",
    "gaussian.window_final": "lags",
    "inference.self_s": "s/job",
    "inference.infer_graph_s": "s/job",
    "inference.llr_causality_s": "s/job",
    "inference.llr_coupling_s": "s/job",
    "inference.tests": "tests/job",
    "inference.edge_errors": "errors/job",
    "inference.surrogate_stats": "surrogates/job",
    "inference.s_per_surrogate.discrete": "s/surrogate",
    "inference.s_per_surrogate.var": "s/surrogate",
    "simulate.gen_s": "s/setup",
    "inference.infer_graph_threads2_speedup": "ratio",
    "trace.untraced_jobs_per_s": "jobs/s",
    "trace.traced_jobs_per_s": "jobs/s",
    "trace.overhead_frac": "ratio",
}


class Span(NamedTuple):
    layer: str
    name: str
    start: float
    end: float
    parent: int
    job: object


def _targets(module):
    """(owner, attribute, function) for each public function and public
    method defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield obj, attr, fn


class Tracer:
    """Records spans and counts while installed; single-threaded use only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = SETUP
        self.counts = defaultdict(float)
        self.windows: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(distribution) -> (distribution, cell sets asked so far); holding
        # the distribution keeps its id from being reused within the job.
        self._entropy_keys: dict[int, tuple[object, set]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, fn in _targets(module):
                qual = attr if owner is module else f"{owner.__name__}.{attr}"
                wrapper = self._wrap(layer, f"{layer}.{qual}", fn)
                if owner is module:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, key, wrapper)
                else:
                    self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def begin_job(self, job) -> None:
        self.job = job
        self._entropy_keys.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(layer, name, start, end, parent, self.job)
            if hook is not None:
                hook(self, fn, args, kwargs, result, end - start)
            return result
        return wrapper

    def self_times(self):
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics; job quantities are per traced job, set-up
        quantities are totals over the one set-up."""
        per_job = defaultdict(float)
        setup = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            if span.job == SETUP:
                setup[span.layer] += own
                setup[span.name] += own
                continue
            per_job[span.layer] += own
            per_job[span.name] += own
            calls[span.layer] += 1
            calls[span.name] += 1
        n = max(jobs, 1)

        def s(key):
            return per_job[key] / n

        def c(key):
            return calls[key] / n

        entropy_calls = calls["core.SequenceDistribution.entropy_of_cells"]
        metrics = {
            "cli.self_s": s("cli"),
            "cli.calls": c("cli.main"),
            "core.self_s": s("core"),
            "core.load_panel_s": s("core.load_panel"),
            "core.load_panel_bytes": self.counts["load_panel_bytes"] / n,
            "core.symbolize_s": s("core.symbolize"),
            "core.entropy_of_cells_s": s("core.SequenceDistribution.entropy_of_cells"),
            "core.entropy_of_cells_calls": c("core.SequenceDistribution.entropy_of_cells"),
            "core.entropy_cache_hit_ratio":
                self.counts["entropy_repeats"] / entropy_calls if entropy_calls else 0.0,
            "discrete.self_s": s("discrete"),
            "discrete.enumerate_joint_s": s("discrete.enumerate_joint"),
            "discrete.table_entries": self.counts["table_entries"] / n,
            "discrete.table_bytes": self.counts["table_bytes"] / n,
            "measures.self_s": s("measures"),
            "measures.decompose_s": s("measures.decompose"),
            "measures.measure_calls": c("measures"),
            "gaussian.self_s": s("gaussian"),
            "gaussian.geweke_index_s": s("gaussian.geweke_index"),
            "gaussian.gaussian_mi_rate_s": s("gaussian.gaussian_mi_rate"),
            "gaussian.prediction_variance_s": s("gaussian.prediction_variance"),
            "gaussian.prediction_variance_calls": c("gaussian.prediction_variance"),
            "gaussian.window_final": max(self.windows, default=0),
            "inference.self_s": s("inference"),
            "inference.infer_graph_s": s("inference.infer_graph"),
            "inference.llr_causality_s": s("inference.llr_causality"),
            "inference.llr_coupling_s": s("inference.llr_coupling"),
            "inference.tests": c("inference.llr_causality") + c("inference.llr_coupling"),
            "inference.edge_errors": self.counts["edge_errors"] / n,
            "inference.surrogate_stats": (self.counts["surrogates.discrete"]
                                          + self.counts["surrogates.var"]) / n,
            "simulate.gen_s": setup["simulate"],
            "core.write_panel_s": setup["core.write_panel"],
        }
        for family in ("discrete", "var"):
            count = self.counts[f"surrogates.{family}"]
            metrics[f"inference.s_per_surrogate.{family}"] = (
                self.counts[f"surrogate_s.{family}"] / count if count else 0.0)
        return metrics


# ---------------------------------------------------------------------------
# counters taken from the arguments and results of public calls
# ---------------------------------------------------------------------------

_FAMILIES = {"discrete_markov": "discrete", "var": "var"}


def _load_panel(tracer, fn, args, kwargs, result, seconds):
    path = args[0] if args else kwargs.get("path")
    tracer.counts["load_panel_bytes"] += os.path.getsize(path)


def _entropy_of_cells(tracer, fn, args, kwargs, result, seconds):
    dist, cells = args[0], frozenset(args[1] if len(args) > 1 else kwargs["cells"])
    _, seen = tracer._entropy_keys.setdefault(id(dist), (dist, set()))
    if cells in seen:
        tracer.counts["entropy_repeats"] += 1
    seen.add(cells)


def _enumerate_joint(tracer, fn, args, kwargs, result, seconds):
    tracer.counts["table_entries"] += result.pmf.size
    tracer.counts["table_bytes"] += result.pmf.nbytes


def _window(tracer, fn, args, kwargs, result, seconds):
    tracer.windows.append(result.horizon)


def _llr(tracer, fn, args, kwargs, result, seconds):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["calibration"] != "surrogate":
        return
    family = _FAMILIES.get(bound.arguments["family"].name, "other")
    tracer.counts[f"surrogates.{family}"] += bound.arguments["surrogates"]
    tracer.counts[f"surrogate_s.{family}"] += seconds


def _infer_graph(tracer, fn, args, kwargs, result, seconds):
    tracer.counts["edge_errors"] += len(result.errors)


_HOOKS = {
    "core.load_panel": _load_panel,
    "core.SequenceDistribution.entropy_of_cells": _entropy_of_cells,
    "discrete.enumerate_joint": _enumerate_joint,
    "gaussian.geweke_index": _window,
    "gaussian.gaussian_mi_rate": _window,
    "inference.llr_causality": _llr,
    "inference.llr_coupling": _llr,
    "inference.infer_graph": _infer_graph,
}
