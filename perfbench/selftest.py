#!/usr/bin/env python3
"""Tiny-scale self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json through perfbench/run.py at
--scale tiny, in both modes, and checks that:
  * each run exits 0 with "correct": true;
  * every metric BENCHMARK.json names for the mode is printed, with its unit,
    and nothing else (end-to-end metrics must also be non-zero);
  * the simulated end-to-end metrics replay exactly for a repeated seed, and
    change with the seed;
  * an unknown workload exits non-zero without printing a result.
Exits 1 on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Host-measured metrics; everything else is simulated and replays exactly.
HOST_MEASURED = {"sim_us_per_inv", "setup_s", "peak_rss_mib"}


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)


def check(ok, message):
    if not ok:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def result_of(proc, what):
    check(proc.returncode == 0, f"{what} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    check(result["correct"] is True, f"{what} reported correct=false")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in sections.items():
            what = f"{workload} --trace {trace}"
            metrics = result_of(run(workload, 1, trace), what)["metrics"]
            want = {m["name"]: m["unit"] for m in section}
            check(set(metrics) == set(want),
                  f"{what} printed {sorted(set(metrics) ^ set(want))} unexpectedly")
            for name, unit in want.items():
                check(metrics[name]["unit"] == unit, f"{what}: {name} has unit "
                      f"{metrics[name]['unit']}, BENCHMARK.json says {unit}")
                if trace == 0:
                    check(metrics[name]["value"] != 0, f"{what}: {name} is zero")
            if trace == 0:
                again = result_of(run(workload, 1, 0), what + " (repeat)")["metrics"]
                other = result_of(run(workload, 2, 0), what + " (seed 2)")["metrics"]
                simulated = sorted(set(want) - HOST_MEASURED)
                for name in simulated:
                    check(again[name]["value"] == metrics[name]["value"],
                          f"{what}: {name} did not replay for the same seed")
                check(any(other[n]["value"] != metrics[n]["value"] for n in simulated),
                      f"{what}: no simulated metric changed with the seed")
            print(f"selftest: ok {what} ({len(metrics)} metrics)", flush=True)
    bad = run("no_such_workload", 1, 0)
    check(bad.returncode != 0 and not bad.stdout.strip().startswith("{"),
          "an unknown workload did not fail cleanly")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
