#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs perfbench/run.py --trace 0 once per seed (run_seconds from
BENCHMARK.json) and prints, per end-to-end metric, the median over the runs
and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound. A spread above a third of
the bound is flagged. Exits 1 if any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"spread: seed {seed} failed (exit {proc.returncode})")
            sys.exit(1)
        metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()),
              flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = " !" if not spread < bound / 3 else ""
        print(f"{name:40s} {med:14.6g} {spread:8.4f} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()
