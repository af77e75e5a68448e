#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads table-closed,adapters --seeds 1-10

For every workload and metric it prints the median of the per-seed values
and the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), which is how run-to-run
spread is compared with a metric's bound in BENCHMARK.json.  Runs go one
after another, never in parallel.  ``--json FILE`` also saves every run's
result line.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    record = {"machine": {"python": platform.python_version(), "platform": platform.platform(),
                          "processor": platform.processor() or platform.machine(),
                          "cpus": os.cpu_count()},
              "seconds": args.seconds, "trace": args.trace, "runs": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            ok &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                  flush=True)
        record["runs"][workload] = results
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) < 2 or not med:
                print(f"  {workload:14s} {name:44s} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {workload:14s} {name:44s} median {med:<12.6g} iqr/median {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
