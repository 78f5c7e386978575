#!/usr/bin/env python3
"""Build and run the host-performance benchmark.

Usage (from the repository root):
  python3 hostbench/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace 0|1] [--out DIR]

Builds hostbench/main.exe with dune, then runs each selected workload
in its own process. Every run prints "workload metric value unit"
lines; a single-workload run ends with its JSON result line. Results
(and, for --trace 1, Chrome traces) are also written to DIR (default
.hostbench). Without --workload every workload runs in turn and the
exit code is 1 if any correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = [
    "calls-baseline",
    "calls-camouflage",
    "syscalls-smp",
    "faults-campaign",
    "lint-image",
]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "hostbench", "main.exe")
# One workload process must finish well inside the 180 s a run may take.
TIMEOUT_S = 170


def build():
    # The shared dune cache lives outside the repository; keep the build
    # inside it.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./hostbench/main.exe", "./hostbench/yardstick.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"hostbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args):
    cmd = [EXE, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: {name} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"hostbench: {name} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"hostbench: {name} printed no result line", file=sys.stderr)
        return None
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print(f"hostbench: {name} metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return None
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=".hostbench")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        print("hostbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, args.out), exist_ok=True)
    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        got = run_workload(name, args)
        if got is None:
            return 1
        lines, result = got
        if args.workload:
            print("\n".join(lines))
        else:
            print("\n".join(lines[:-1]))
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
