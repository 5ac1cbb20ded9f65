#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-predictors --seed 1 \
        --seconds 10 --trace 0

The benchmark binary is configured and built under .bench_build/perfbench
(incremental after the first run). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (whose spans go to .bench_build/perfbench/traces/).

Besides the checks the binary makes, this script compares the golden
MPKI rows it recomputed with tests/data/golden_mpki.json. The exit
status is 0 when every check passed, 1 when one failed, and 2 when the
benchmark could not run (for example outside a repository checkout).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_mpki.json")
WORKLOADS = ("paper-predictors", "replay-archive", "figure-suite")
# Wall-clock budget of one invocation after the build.
RUN_BUDGET_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "evaluator.hpp")):
        die(f"library sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def load_golden():
    try:
        with open(GOLDEN) as f:
            doc = json.load(f)
        rows = {(r["trace"], r["predictor"]): r for r in doc["rows"]}
        specs = list(dict.fromkeys(r["predictor"] for r in doc["rows"]))
        return doc["scale"], specs, rows
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read {GOLDEN}: {e}")


def check_golden(computed, fixture):
    """Returns one message per recomputed row that differs."""
    errors = []
    for row in computed:
        key = (row["trace"], row["predictor"])
        want = fixture.get(key)
        if want is None:
            errors.append(f"golden {key[0]}/{key[1]}: no fixture row")
            continue
        for field in ("instructions", "condBranches", "mispredictions"):
            if row[field] != want[field]:
                errors.append(f"golden {key[0]}/{key[1]}: {field} "
                              f"{row[field]} != fixture {want[field]}")
                break
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    scale, specs, fixture = load_golden()
    workdir = os.path.join(BUILD_DIR, "runs", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--golden-specs", ",".join(specs),
               "--golden-scale", scale]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]

    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"perfbench exited with status {proc.returncode}")
    report = json.loads(lines[-1])

    # A golden row is one of the binary's attempted evaluations.
    golden_errors = check_golden(report["golden"], fixture)
    correct = report["correct"] and not golden_errors
    for message in report["errors"] + golden_errors:
        print(f"run.py: check failed: {message}", file=sys.stderr)
    print(f"run.py: {args.workload} ran in "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"] + len(golden_errors),
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
