"""Spans around the public functions of each cloudfilter module.

The wrappers are installed from outside the package: they replace the
module and class attributes at the call sites run_pipeline actually uses
(the pipeline module imports the normals functions and normalize_cloud by
name, filter_cloud looks filter_iteration and data_energy up in its own
module's globals, every k-NN call goes through NeighborIndex). Nothing under
src/ is edited. `uninstall` restores the originals, so untraced calls in the
same process run the unwrapped code.

A span records (name, start, end, parent). A span's self time is its
duration minus the durations of its direct children, so the self times of
one call add up to the duration of its root span.
"""

import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import cloudfilter
from cloudfilter import cloud_io, core, filtering, metrics

# Per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "cloud_io.read_s": "s",
    "cloud_io.write_s": "s",
    "cloud_io.read_mb": "MB",
    "cloud_io.write_mb": "MB",
    "core.normalize_s": "s",
    "core.index_build_s": "s",
    "core.index_builds": "count",
    "core.knn_s": "s",
    "core.knn_queries": "count",
    "core.tie_fallback_s": "s",
    "core.tie_fallback_rows": "count",
    "normals.pca_s": "s",
    "normals.orient_s": "s",
    "normals.bilateral_s": "s",
    "normals.degenerate": "count",
    "normals.components": "count",
    "filtering.iteration_s": "s",
    "filtering.support_radius_s": "s",
    "filtering.data_energy_s": "s",
    "filtering.update_self_s": "s",
    "metrics.evaluate_s": "s",
    "cli.pipeline_self_s": "s",
    "trace.overhead_s": "s",
}

# Which per-layer metric each span's self time is charged to. Every span
# maps to exactly one, so the self-time metrics of a call sum to its root.
SELF_TIME_METRIC = {
    "cli.run_pipeline": "cli.pipeline_self_s",
    "cloud_io.read_cloud": "cloud_io.read_s",
    "cloud_io.write_cloud": "cloud_io.write_s",
    "core.normalize_cloud": "core.normalize_s",
    "core.NeighborIndex": "core.index_build_s",
    "core.k_nearest_all": "core.knn_s",
    "core.kth_distances": "core.knn_s",
    "core.nearest_distances": "core.knn_s",
    "core.k_nearest": "core.tie_fallback_s",
    "normals.estimate_normals_pca": "normals.pca_s",
    "normals.orient_normals": "normals.orient_s",
    "normals.bilateral_filter_normals": "normals.bilateral_s",
    "filtering.filter_cloud": "filtering.update_self_s",
    "filtering.filter_iteration": "filtering.update_self_s",
    "filtering.resolve_support_radius": "filtering.support_radius_s",
    "filtering.data_energy": "filtering.data_energy_s",
    "metrics.evaluate": "metrics.evaluate_s",
}

# Work counts and file sizes; they must repeat exactly for a given seed.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit != "s")

# Spans that each count one unit of work.
SPAN_COUNT_METRIC = {
    "core.NeighborIndex": "core.index_builds",
    "core.k_nearest_all": "core.knn_queries",
    "core.kth_distances": "core.knn_queries",
    "core.nearest_distances": "core.knn_queries",
    "core.k_nearest": "core.tie_fallback_rows",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    facts: dict = field(default_factory=dict)  # per-layer metric -> amount


def _file_mb(function, metric):
    signature = inspect.signature(function)

    def facts(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {metric: os.path.getsize(path) / 1e6}

    return facts


def _pca_facts(args, kwargs, result):
    return {"normals.degenerate": len(result[1])}


def _orient_facts(args, kwargs, result):
    return {"normals.components": int(result[1])}


class Tracer:
    """Keeps the spans of traced calls in memory."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def _wrap(self, owner, attr, name, facts=None):
        original = getattr(owner, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        pipeline = sys.modules[cloudfilter.run_pipeline.__module__]
        index = core.NeighborIndex
        targets = [
            (pipeline, "run_pipeline", "cli.run_pipeline", None),
            (cloud_io, "read_cloud", "cloud_io.read_cloud",
             _file_mb(cloud_io.read_cloud, "cloud_io.read_mb")),
            (cloud_io, "write_cloud", "cloud_io.write_cloud",
             _file_mb(cloud_io.write_cloud, "cloud_io.write_mb")),
            (pipeline, "normalize_cloud", "core.normalize_cloud", None),
            (pipeline, "estimate_normals_pca", "normals.estimate_normals_pca", _pca_facts),
            (pipeline, "orient_normals", "normals.orient_normals", _orient_facts),
            (pipeline, "bilateral_filter_normals", "normals.bilateral_filter_normals", None),
            (pipeline, "filter_cloud", "filtering.filter_cloud", None),
            (filtering, "filter_iteration", "filtering.filter_iteration", None),
            (filtering, "resolve_support_radius", "filtering.resolve_support_radius", None),
            (filtering, "data_energy", "filtering.data_energy", None),
            (metrics, "evaluate", "metrics.evaluate", None),
            (index, "__init__", "core.NeighborIndex", None),
            (index, "k_nearest_all", "core.k_nearest_all", None),
            (index, "k_nearest", "core.k_nearest", None),
            (index, "kth_distances", "core.kth_distances", None),
            (index, "nearest_distances", "core.nearest_distances", None),
        ]
        for owner, attr, name, facts in targets:
            self._wrap(owner, attr, name, facts)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize_call(spans):
    """Per-layer values of one traced call, its per-name span counts and
    any k_nearest call made outside k_nearest_all."""
    durations = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            child[s.parent] += d

    values = {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_METRICS.items()}
    span_counts = {}
    problems = []
    iterations = []
    for s, d, c in zip(spans, durations, child):
        span_counts[s.name] = span_counts.get(s.name, 0) + 1
        values[SELF_TIME_METRIC[s.name]] += d - c
        if s.name in SPAN_COUNT_METRIC:
            values[SPAN_COUNT_METRIC[s.name]] += 1
        for metric, value in s.facts.items():
            values[metric] += value
        if s.name == "filtering.filter_iteration":
            iterations.append(d)
        elif s.name == "core.k_nearest" and (
            s.parent is None or spans[s.parent].name != "core.k_nearest_all"
        ):
            problems.append("core.k_nearest called outside k_nearest_all")
    values["filtering.iteration_s"] = statistics.median(iterations) if iterations else 0.0
    return values, span_counts, problems


def check_coverage(span_counts, values, expected, pinned):
    """Problems with one traced call's spans: a stage whose wrapper did not
    fire as often as the pipeline calls it, or a pinned count that differs."""
    problems = []
    for name, want in expected.items():
        got = span_counts.get(name, 0)
        if got != want:
            problems.append(f"span {name} fired {got} times, expected {want}")
    for name in ("core.NeighborIndex", "core.k_nearest_all"):
        if span_counts.get(name, 0) == 0:
            problems.append(f"span {name} never fired")
    for metric, (op, want) in pinned.items():
        got = values[metric]
        if not (got == want if op == "==" else got > want):
            problems.append(f"{metric} = {got}, expected {op} {want}")
    return problems
