"""Fast self-check of the benchmark: every workload at a tiny size.

    python3 perfbench/selfcheck.py

For each workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced (twice) and checks that the result line names exactly the metrics
BENCHMARK.json lists, each with its unit, that every call was correct
(failed_ops 0) and that the traced counts repeat exactly. Exits 1 on the
first workload with a problem, after printing every problem found.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=175)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, spec):
    problems = []
    traced = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        result = run(workload, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace={trace} metrics/units {got} differ from BENCHMARK.json {want}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(
                f"trace={trace} correct={result['correct']} "
                f"failed={result['failed']} of {result['attempted']}"
            )
        if trace:
            traced.append(result["metrics"])
    counts = [{n: m["value"] for n, m in r.items() if m["unit"] in ("count", "MB")} for r in traced]
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ between runs: {counts[0]} != {counts[1]}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check(workload, spec)
        print(f"{'FAIL' if problems else 'ok  '} {workload}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
