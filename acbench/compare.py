#!/usr/bin/env python3
"""Compare two sets of acbench result files, workload by workload.

    python3 acbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are directories of result files (as acbench/run.py
leaves them in .bench_out/results/) or single files. For every workload
and metric it prints each side's median and quartiles, the run-to-run
spread (interquartile range over median), the change in medians, and the
pairwise win count: within each seed, the parent's runs and the change's
runs are paired in the order they started; a pair is won by the side
whose value is better in the metric's direction, and ties count for
neither. The verdict column follows the benchmark's bounds:

  worse        the change's median is worse by more than the bound
  better       there are at least 10 pairs, the change wins at least 9
               in 10 of them, and the medians differ by more than the
               parent's interquartile range
  unresolved   a side's spread exceeds the bound, and not every change
               run beats every parent run
  same         otherwise

Per-layer metrics have no bound; they get no verdict.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

# Fewest pairs on which a "better" verdict may rest.
MIN_PAIRS = 10


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    # (workload, trace) -> [(started, seed, metrics)], oldest first
    runs = defaultdict(list)
    for name in files:
        with open(name) as f:
            doc = json.load(f)
        metrics = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        runs[(doc["workload"], doc["trace"])].append(
            (doc["started"], doc["seed"], metrics))
    for key in runs:
        runs[key].sort(key=lambda run: run[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(runs, metric):
    """seed -> the metric's values in the order the runs started."""
    out = defaultdict(list)
    for _, seed, m in runs:
        if metric in m:
            out[seed].append(m[metric])
    return out


def wins(parent, change, metric, higher_is_better):
    p, c = by_seed(parent, metric), by_seed(change, metric)
    won = pairs = 0
    for seed in p.keys() & c.keys():
        for a, b in zip(p[seed], c[seed]):
            pairs += 1
            if (b > a) if higher_is_better else (b < a):
                won += 1
    return won, pairs


def verdict(p_vals, c_vals, higher, bound):
    if bound is None:
        return ""
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    worse = (pm - cm) / pm if higher else (cm - pm) / pm
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    all_better = (min(c_vals) > max(p_vals)) if higher else (
        max(c_vals) < min(p_vals))
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "worse"
    return None  # decided by the caller, which knows the win count


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    header = ("%-6s %-28s %28s %28s %8s %7s %s"
              % ("load", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta", "wins", "verdict"))
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        names = sorted({n for _, _, m in parent[key] + change[key]
                        for n in m})
        for name in names:
            p_vals = [m[name] for _, _, m in parent[key] if name in m]
            c_vals = [m[name] for _, _, m in change[key] if name in m]
            if not p_vals or not c_vals:
                continue
            m = meta.get(name, {"better": "lower"})
            higher = m["better"] == "higher"
            bound = m.get("bound")
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            won, pairs = wins(parent[key], change[key], name, higher)
            v = verdict(p_vals, c_vals, higher, bound)
            if v is None:
                gain = (cm - pm) if higher else (pm - cm)
                v = ("better" if pairs >= MIN_PAIRS and won >= 0.9 * pairs
                     and gain > (p3 - p1) else "same")
            delta = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "n/a"
            print("%-6s %-28s %12.4g [%6.4g, %6.4g] %12.4g [%6.4g, %6.4g] "
                  "%8s %3d/%-3d %s"
                  % (workload, name, pm, p1, p3, cm, c1, c3, delta, won,
                     pairs, v))
    missing = set(parent) ^ set(change)
    for workload, trace in sorted(missing):
        print("# only one side has %s runs with trace=%d"
              % (workload, trace), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
