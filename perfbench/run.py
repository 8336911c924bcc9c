#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/fwperf).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale tiny]

Builds the fwperf program and the simulator sources it links into
.bench_build/ (CMake, Release), runs one workload, and checks that its
result line carries exactly the metrics BENCHMARK.json names for the
selected mode, with their units. The last line of stdout is that result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every correctness check passed; 1 when a check failed,
the build failed or fwperf's output was malformed; 2 on bad arguments or
when the simulator sources are missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds fwperf; returns the binary's path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not (out_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(1, "cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out_dir), "--target", "fwperf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(1, "build failed")
    return out_dir / "fwperf"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace == 1 else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, expected):
    """Returns a list of problems with fwperf's result object."""
    problems = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return [f"result keys are not {sorted(keys)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} not named in BENCHMARK.json")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"metric {name} must be {{value, unit: {unit}}}, got {m}")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"metric {name} has a non-numeric value")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail(2, "--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(2, f"no simulator sources under {ROOT / 'src'}; run from a full checkout")

    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"fwperf did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(proc.returncode or 1, f"fwperf exited with status {proc.returncode} "
                                   "without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(1, f"fwperf printed a malformed result line: {e}")
    problems = validate(result, expected_metrics(args.trace))
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        fail(1, "result does not match BENCHMARK.json")
    if result["correct"] != (proc.returncode == 0):
        fail(1, "fwperf's exit status disagrees with its correct flag")
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
