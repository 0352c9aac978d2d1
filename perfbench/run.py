#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator library, the campaign
worker and the perf_bench program from source (into $CARGO_TARGET_DIR, or
.bench_build), then runs the workload. Every metric is printed with its
unit; the last line of standard output is the JSON result. Build output
goes to standard error.
Exits 0 when every correctness check passed, nonzero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ip_campaign", "cheshire_fork", "grid_knee", "dispatch_campaign")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4",
           "--target", "perf_bench", "campaign_worker"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isdir(os.path.join(root, "src", "campaign")):
        fail(f"simulator sources not found under {root}/src")
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    build(bench_dir, build_dir)

    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perf_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--worker", os.path.join(build_dir, "campaign_worker"),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"perf_bench exited {proc.returncode} without a result")
    print("\n".join(lines))
    if proc.returncode != 0 or not result.get("correct"):
        fail(f"{args.workload}: a correctness check failed "
             f"(exit {proc.returncode})")


if __name__ == "__main__":
    main()
