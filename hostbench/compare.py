#!/usr/bin/env python3
"""Compare two sets of host-benchmark results against BENCHMARK.json's bounds.

Usage: compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files `hostbench/run.py --out DIR` writes:
<workload>-s<seed>.json per untraced run and <workload>-s<seed>-traced.json
per traced run. For every (workload, end-to-end metric) with runs on both
sides it prints each side's median and quartiles, the pairs the change
won (runs paired by seed, else by order; ties count for neither) and a
verdict:

  better      the change won at least 9 in 10 pairs and the medians differ
              by more than the base's own quartile spread
  same        not worse than the base by more than the metric's bound
  worse       worse than the base by more than the bound
  unresolved  either side's quartile spread exceeds the bound, and not
              every change run beats every base run

Failed operations are compared per workload, and where both sides have
traced runs of the same seed the deterministic guest counts
(guest.insns_per_op, guest.cycles_per_op) must be identical. Exits 1 on
any `worse` row or changed guest count.
"""
import json
import os
import statistics
import sys

DETERMINISTIC = ("guest.insns_per_op", "guest.cycles_per_op")


def load(directory):
    """{(workload, trace): {seed: result}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            doc = json.load(f)
        runs.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = doc["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(base, change):
    """(base value, change value) pairs: same seed where both have it."""
    common = sorted(set(base) & set(change))
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip([base[s] for s in sorted(base)], [change[s] for s in sorted(change)]))


def verdict(base, change, better, bound):
    """base, change: {seed: value}. Returns (row fields, verdict)."""
    b, c = list(base.values()), list(change.values())
    mb, mc = statistics.median(b), statistics.median(c)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mc - mb) / mb
    (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
    spread_b, spread_c = (b3 - b1) / mb, (c3 - c1) / mc
    paired = pairs(base, change)
    wins = sum(1 for x, y in paired if sign * (y - x) < 0)
    all_better = (max(c) < min(b)) if better == "lower" else (min(c) > max(b))
    if max(spread_b, spread_c) > bound:
        v = "better" if all_better else "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif wins >= 0.9 * len(paired) and -worse_by > spread_b:
        v = "better"
    else:
        v = "same"
    row = (f"{mb:.6g} [{b1:.6g}, {b3:.6g}]", f"{mc:.6g} [{c1:.6g}, {c3:.6g}]",
           f"{100 * (mc - mb) / mb:+.1f}%", f"{wins}/{len(paired)}")
    return row, v


def main(base_dir, change_dir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(base_dir), load(change_dir)
    bad = 0
    print(f"{'workload':18} {'metric':14} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'delta':>8} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get((workload, 0), {}), change.get((workload, 0), {})
        if not b_runs or not c_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            row, v = verdict({s: r["metrics"][name]["value"] for s, r in b_runs.items()},
                             {s: r["metrics"][name]["value"] for s, r in c_runs.items()},
                             m["better"], m["bound"])
            bad += v == "worse"
            print(f"{workload:18} {name:14} {row[0]:34} {row[1]:34} {row[2]:>8} {row[3]:>6}  {v}")
        b_failed = sum(r["failed"] for r in b_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        if c_failed > b_failed:
            bad += 1
            print(f"{workload:18} failed: {b_failed} -> {c_failed}  worse")
    for (workload, trace), c_runs in sorted(change.items()):
        b_runs = base.get((workload, trace), {}) if trace == 1 else {}
        for seed in sorted(set(b_runs) & set(c_runs)):
            for name in DETERMINISTIC:
                x = b_runs[seed]["metrics"][name]["value"]
                y = c_runs[seed]["metrics"][name]["value"]
                if x != y:
                    bad += 1
                    print(f"{workload:18} {name} seed {seed}: {x} -> {y}  changed")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
