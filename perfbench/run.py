"""Pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sphere-35k --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository. The workload runs in a child process
capped to one BLAS/OpenMP thread, as a closed loop of back-to-back
run_pipeline calls. Set-up is repeated in separate processes and its median
reported. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines above it are a readable report; the full record, spans included, is
written to .perfbench_out/. See README.md beside this file.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5  # set-up samples per run: SETUP_RUNS - 1 set-up-only processes + the worker
TIME_LIMIT_S = 170.0
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "chamfer_to_clean": "1",
    "nn_cv": "1",
}


class BenchError(RuntimeError):
    pass


def tail_percentile(samples):
    """(p, value) for the highest of p90/p99/p99.9 with at least ten samples
    beyond it, by nearest rank; None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(math.ceil(p / 100.0 * n) - 1, 0)]
    return None


def _child(args, extra, env, deadline):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--tiny"] if args.tiny else []),
        *extra,
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_CAP_VARS})  # one thread: never above nproc
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    for i in range(SETUP_RUNS):
        only_setup = ["--setup-only"] if i < SETUP_RUNS - 1 else []
        workdir = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            record = _child(args, ["--workdir", workdir, *only_setup], env, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    record["setup_s"] = statistics.median(setups)
    return record


def report(args, record):
    """Readable report lines and the result object for the last line."""
    plain = [c["pipeline_s"] for c in record["calls"] if c["mode"] == "plain"]
    attempted, failed = record["attempted"], record["failed"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"points={record['points']} calls={attempted}",
    ]
    samples = {
        "pipeline_s": f"median of {len(plain)} untraced calls",
        "setup_s": f"median of {len(record['setup_samples_s'])} set-ups",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "chamfer_to_clean": f"median of {attempted - failed} checked outputs",
        "nn_cv": f"median of {attempted - failed} checked outputs",
    }
    end_to_end = {name: record[name] for name in END_TO_END}
    for name, unit in END_TO_END.items():
        tail = ""
        if name in ("pipeline_s", "setup_s"):
            values = plain if name == "pipeline_s" else record["setup_samples_s"]
            pct = tail_percentile(values)
            tail = f"; p{pct[0]:g} {pct[1]:.6g} {unit}" if pct else "; no tail percentile (< 100 samples)"
        lines.append(f"  {name:<18} {end_to_end[name]:.6g} {unit:<6} {samples[name]}{tail}")
    lines.append(
        f"  {'failed_ops':<18} {failed / attempted:.6g} {'share':<6} {failed} of {attempted} calls"
    )
    if "per_layer" in record:
        lines.append(
            f"  traced pipeline_s {record['traced_pipeline_s']:.6g} s; "
            f"layer self times sum to {record['layer_self_sum_s']:.6g} s"
        )
        for name, value in record["per_layer"].items():
            lines.append(f"  {name:<28} {value['value']:.6g} {value['unit']}")
    for digest in record["sha256"]:
        lines.append(f"  output sha256 {digest}")
    env = record["environment"]
    lines.append(
        f"  env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
        f"caps={','.join(f'{k}={v}' for k, v in env['thread_caps'].items())}"
    )
    problems = [p for c in record["calls"] for p in c["problems"]] + record["trace_problems"]
    for problem in problems:
        lines.append(f"  PROBLEM {problem}")

    if args.trace:
        metrics = record["per_layer"]
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": failed == 0 and not record["trace_problems"] and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cloudfilter" / "__init__.py").is_file():
        print(f"perfbench: no cloudfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if record["attempted"] == record["failed"]:
        first = record["calls"][0]["problems"]
        print(f"perfbench: every call failed, e.g. {first}", file=sys.stderr)
        return 1
    lines, result = report(args, record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
