"""One workload in one process: set up, run back-to-back run_pipeline calls
for the given number of seconds, check every output and print a JSON record
on stdout. Started by run.py, which passes the launch time as --t0 so that
setup time counts from process start.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy
from scipy.spatial import cKDTree

import cloudfilter
import tracing
import workloads
from run import THREAD_CAP_VARS


DIAGNOSTICS_HEADER = "iteration,data_energy,mean_displacement,max_displacement,nn_distance_stddev"


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
    }


def _check_diagnostics(path, t):
    """Problems with the diagnostics CSV of a call with t iterations."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"diagnostics CSV unreadable: {exc}"]
    if not lines or lines[0] != DIAGNOSTICS_HEADER:
        return ["diagnostics CSV header differs"]
    if len(lines) != t + 1:
        return [f"diagnostics CSV has {len(lines) - 1} rows, expected {t}"]
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            return [f"diagnostics CSV row {i} is not numeric"]
        if len(values) != 5 or values[0] != i or not all(map(math.isfinite, values)):
            return [f"diagnostics CSV row {i} is malformed"]
    return []


def _check_output(points, inputs):
    """(problems, sha256 of the output file) for one call; no problems when
    the call is correct."""
    config = inputs.config
    count = len(inputs.clean)
    problems = []
    if len(points) != count:
        problems.append(f"point count changed: {count} -> {len(points)}")
    if not np.all(np.isfinite(points)):
        problems.append("non-finite output points")
    try:
        with open(config.output_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return problems + [f"output file unreadable: {exc}"], None
    header = data.find(b"end_header\n") + len(b"end_header\n") if config.format == "ply-ascii" else 0
    if data.count(b"\n", header) != count:
        problems.append("output file row count differs from the point count")
    problems += _check_diagnostics(_diagnostics_path(config), config.filter_params.t)
    return problems, hashlib.sha256(data).hexdigest()


def _diagnostics_path(config):
    return config.output_path + ".diagnostics.csv"


def quality(points, clean):
    """(chamfer_to_clean, nn_cv) of an output, computed here rather than by
    the program so a change to cloudfilter.metrics cannot move them."""
    d_out, _ = cKDTree(clean).query(points)
    d_clean, _ = cKDTree(points).query(clean)
    chamfer = float(np.mean(d_out**2) + np.mean(d_clean**2))
    nn, _ = cKDTree(points).query(points, k=2)
    nn = nn[:, 1]
    return chamfer, float(nn.std() / nn.mean())


def run_loop(pipeline, inputs, seconds, traced, tracer):
    """Closed loop, one caller: the next call starts when the previous one has
    returned and been checked. A new call starts only if it is expected to
    finish within `seconds`; a traced run alternates untraced and traced
    calls and makes at least one of each."""
    modes = ("plain", "traced") if traced else ("plain",)
    calls = []
    started = time.perf_counter()
    while True:
        mode = modes[len(calls) % len(modes)]
        # a call must write its own outputs, not leave the previous call's
        for path in (inputs.config.output_path, _diagnostics_path(inputs.config)):
            if os.path.exists(path):
                os.remove(path)
        if mode == "traced":
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = pipeline.run_pipeline(inputs.config)
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - t0
        if mode == "traced":
            tracer.uninstall()
        call = {"mode": mode, "pipeline_s": duration, "problems": []}
        if error is not None:
            call["problems"].append(error)
        else:
            problems, call["sha256"] = _check_output(result[0].points, inputs)
            call["problems"] += problems
            if not problems:
                call["chamfer_to_clean"], call["nn_cv"] = quality(result[0].points, inputs.clean)
        if mode == "traced":
            call["spans"] = tracer.take()
        calls.append(call)
        longest = max(c["pipeline_s"] for c in calls)
        if len(calls) >= len(modes) and time.perf_counter() - started + longest > seconds:
            return calls


def _median(calls, key):
    values = [c[key] for c in calls if key in c]
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.prepare(args.workload, args.seed, args.workdir, args.tiny)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer()
    pipeline = sys.modules[cloudfilter.run_pipeline.__module__]
    calls = run_loop(pipeline, inputs, args.seconds, args.trace == 1, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (
        1 if sys.platform == "darwin" else 1024
    ) / 1e6

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "points": len(inputs.clean),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    plain = [c for c in calls if c["mode"] == "plain"]
    traced = [c for c in calls if c["mode"] == "traced"]
    record["pipeline_s"] = _median(plain, "pipeline_s")
    record["chamfer_to_clean"] = _median(plain + traced, "chamfer_to_clean")
    record["nn_cv"] = _median(plain + traced, "nn_cv")
    record["sha256"] = sorted({c["sha256"] for c in calls if c.get("sha256")})

    trace_problems = []
    if traced:
        layers, first_counts = [], None
        expected = workloads.expected_spans(args.workload)
        pinned = workloads.PINNED_COUNTS.get(args.workload, {})
        for call in traced:
            values, span_counts, problems = tracing.summarize_call(call["spans"])
            problems += tracing.check_coverage(span_counts, values, expected, pinned)
            counts = {m: values[m] for m in tracing.COUNT_METRICS}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                problems.append(f"counts drifted between traced calls: {counts} != {first_counts}")
            trace_problems += problems
            call["layer_self_sum_s"] = sum(values[m] for m in set(tracing.SELF_TIME_METRIC.values()))
            call["spans"] = [[s.name, s.start, s.end, s.parent] for s in call["spans"]]
            layers.append(values)
        overhead = _median(traced, "pipeline_s") - record["pipeline_s"]
        record["per_layer"] = {
            name: {
                "value": overhead if name == "trace.overhead_s"
                else first_counts[name] if name in first_counts
                else statistics.median(v[name] for v in layers),
                "unit": unit,
            }
            for name, unit in tracing.LAYER_METRICS.items()
        }
        record["traced_pipeline_s"] = _median(traced, "pipeline_s")
        record["layer_self_sum_s"] = _median(traced, "layer_self_sum_s")
    record["calls"] = calls
    record["attempted"] = len(calls)
    record["failed"] = sum(1 for c in calls if c["problems"])
    record["trace_problems"] = trace_problems
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
