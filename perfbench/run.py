#!/usr/bin/env python3
"""Build the benchmark and run its workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs that one workload in its own process and passes
its output through: the last line is the JSON result. Without it, runs
the workloads of BENCHMARK.json (wire-steady and flash-crowd) one after
another, each in its own process, and prints every metric by name with
its unit. `--workload million` runs the 1M-client tier, which is not
part of BENCHMARK.json (see perfbench/README.md). A failed build or
correctness check exits non-zero without a result.

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR when
set, else perfbench/target; spans of a traced run go to perfbench/out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wire-steady", "flash-crowd"]
# Runs only when asked for by name.
EXTRA_WORKLOADS = ["million"]
# One run must end within 180 s; at the default 40 s the slowest takes
# under a third of it.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark crate and returns its executable's path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("perfbench: cargo reported no executable")
    return exe


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result or None)."""
    cmd = [
        exe, workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", os.path.join(HERE, "out"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    exe = build()

    if args.workload:
        lines, result = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        if result is None:
            sys.exit(f"perfbench: {args.workload} failed")
        print(json.dumps(result))
        return

    failed = False
    for workload in WORKLOADS:
        lines, result = run_one(exe, workload, args.seed, args.seconds, args.trace)
        for line in lines:
            print(f"[{workload}] {line}")
        if result is None:
            print(f"[{workload}] FAILED")
            failed = True
            continue
        print(f"[{workload}] attempted {result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"[{workload}] {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
