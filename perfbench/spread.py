"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --runs 10 [--workloads bin fib] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed (seeds ``--first-seed``
onwards) for each workload, one run at a time and with ``run_seconds`` from
BENCHMARK.json.  It then prints per end-to-end metric the median, the
quartiles and the interquartile range as a share of the median next to the
metric's bound: "ok" below a third of the bound, "within bound" up to the
bound, "TOO WIDE" above it.
``--out`` writes the same figures, and every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = one_run(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else float("nan")
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
            bound = m["bound"]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {m['name']:36s} median {median:12.6g} {m['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.2%}  bound {bound:.0%} {verdict}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
