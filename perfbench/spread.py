#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload grid_fixed --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed (each seed is a fresh input set, as the
acceptance runs use), then prints per metric the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and, with
--trace 0, the metric's bound from BENCHMARK.json. A spread above a third
of its bound is marked; setup_s is exempt from the spread rule.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name) if args.trace == 0 else None
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print(f"{name:32s} median={med:<14.6g} q1={q1:<12.6g} q3={q3:<12.6g}"
              f" spread={spread:.4f}"
              + (f" bound={bound}" if bound is not None else "") + flag)


if __name__ == "__main__":
    main()
