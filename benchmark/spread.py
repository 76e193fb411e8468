#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
driver measures it: the command in BENCHMARK.json, N seeds per workload,
interquartile distance (statistics.quantiles, n=4) over the median,
printed beside the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]...

Run it from the repository root. A spread above a third of its bound
means the metric needs a longer or steadier measurement, not a wider
bound."""
import argparse
import json
import statistics
import subprocess
import sys
import time

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
worst = 0.0
for workload in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {name: [] for name in bounds}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    per_run = (time.time() - started) / args.runs
    print(f"{workload}  ({per_run:.1f} s per run)")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        spread = (q3 - q1) / median
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        flag = "" if share < 1 / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"  {name:<12} median {median:>14.4f}  spread {spread * 100:6.2f}%  "
              f"bound {bounds[name] * 100:4.1f}%{flag}")
print(f"worst spread/bound (setup_s excepted): {worst:.2f}")
