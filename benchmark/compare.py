#!/usr/bin/env python3
"""Parent-vs-change comparison of two benchmark result sets.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to ``benchmark/out/
results.jsonl`` (one JSON object per line), from runs of the same workloads
with the same ``--seconds``, ideally alternating parent and change. The
i-th parent run of a workload is paired with its i-th change run.

One row per (end-to-end metric, workload), read by the rule of the
choosing-metrics guide, section 8:

* ``improved`` / ``worse``: the change wins (loses) at least nine tenths of
  the pairs, ties counting for neither, and the medians differ by more than
  the parent's interquartile range;
* ``unchanged``: neither, the change's median is within the metric's bound
  (``BENCHMARK.json``) of the parent's, and the parent's own spread is
  within the bound;
* ``unresolved``: anything else, and every row with fewer than ten pairs.

Every ratio is printed with its base (the parent median and unit). The
deterministic counts of traced records (``--trace 1``) are compared
exactly and listed when they differ.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def load_bounds(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m["bound"], m["unit"]) for m in bench["end_to_end"]}


def series(records, trace):
    out = defaultdict(list)
    for r in records:
        if r.get("trace", 0) == trace:
            for name, m in r["metrics"].items():
                out[(name, r["workload"])].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """(verdict, wins, losses) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins, losses
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", wins, losses
    if losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse", wins, losses
    scale = abs(p_med)
    if -gain <= bound * scale and iqr <= bound * scale:
        return "unchanged", wins, losses
    return "unresolved", wins, losses


def compare(parent_records, change_records, bounds):
    """Rows of (metric, workload, verdict, text)."""
    rows = []
    parent, change = series(parent_records, 0), series(change_records, 0)
    for (name, workload) in sorted(set(parent) & set(change), key=lambda k: (k[1], k[0])):
        if name not in bounds:
            continue
        better, bound, unit = bounds[name]
        p, c = parent[(name, workload)], change[(name, workload)]
        n = min(len(p), len(c))
        p, c = p[:n], c[:n]
        v, wins, losses = verdict(p, c, better, bound)
        p_med, c_med = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        ratio = c_med / p_med if p_med else float("nan")
        text = (f"{workload:13s} {name:14s} {v:10s} pairs {n:2d}  "
                f"wins {wins:2d} losses {losses:2d}  "
                f"parent {p_med:.6g} [{pq[0]:.6g}, {pq[1]:.6g}]  "
                f"change {c_med:.6g} [{cq[0]:.6g}, {cq[1]:.6g}]  "
                f"ratio {ratio:.4f} of {p_med:.6g} {unit} ({better} is better, bound {bound})")
        rows.append((name, workload, v, text))
    return rows


def count_diffs(parent_records, change_records):
    out = []
    parent, change = series(parent_records, 1), series(change_records, 1)
    for key in sorted(set(parent) & set(change)):
        p, c = parent[key][-1], change[key][-1]
        if isinstance(p, int) and isinstance(c, int) and p != c:
            base = f"{(c / p):.4f} of {p}" if p else f"from {p}"
            out.append(f"{key[1]:13s} {key[0]:26s} {p} -> {c} ({base})")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    bounds = load_bounds(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    parent, change = load_records(argv[0]), load_records(argv[1])
    for _, _, _, text in compare(parent, change, bounds):
        print(text)
    if series(parent, 1) and series(change, 1):
        diffs = count_diffs(parent, change)
        print("deterministic counts (traced runs): "
              + ("these differ:" if diffs else "all equal"))
        for d in diffs:
            print("  " + d)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
