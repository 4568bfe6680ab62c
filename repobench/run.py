#!/usr/bin/env python3
"""Repo benchmark entry point: builds mocha_repobench from source, runs one
workload, and prints its result as the last line of standard output.

    python3 repobench/run.py --workload plan_sim|infer|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ and its
output to standard error. With --trace 1 the workload runs twice, untraced
then traced: the per-layer metrics come from the traced run, and the
difference in each end-to-end metric between the two runs is printed as the
tracing overhead. See repobench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
BINARY = os.path.join(BUILD, "mocha_repobench")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "mocha_repobench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            return False
    return True


def run_once(args, trace):
    """Runs the binary once; returns (exit code, parsed last line or None)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan_sim", "infer", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("repobench: build failed", file=sys.stderr)
        return 1

    code, result = run_once(args, 0)
    if result is None:
        return code or 1
    if args.trace:
        untraced, untraced_code = result, code
        code, result = run_once(args, 1)
        if result is None:
            return code or 1
        code = code or untraced_code
        print("tracing overhead (traced - untraced) / untraced:")
        for name, metric in untraced["metrics"].items():
            before = metric["value"]
            after = result["end_to_end"][name]["value"]
            share = (after - before) / before if before else 0.0
            print(f"  {name}: {before:.6g} -> {after:.6g} {metric['unit']}"
                  f" ({100 * share:+.2f}%)")
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))
    return code


if __name__ == "__main__":
    sys.exit(main())
