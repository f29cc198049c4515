"""Compare two sets of benchmark runs: a parent commit and a change.

Each input file holds the JSON lines that ``run.py`` appends to
``perfbench/out/results.jsonl``.  Runs are paired by workload, trace mode and
seed, in the order they were made; run the two sides alternately, switching
which one goes first, so that drifts in the machine fall on both.

For every workload and metric the report gives each side's median and
quartiles, the pairs the change won (ties count for neither) and a verdict:

* ``improved``: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's interquartile range;
* ``unresolved``: the parent's own spread is wider than the metric's bound and
  not every change run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than the
  bound (for per-layer metrics, which have no bound: the parent won nine
  tenths of the pairs and the medians differ by more than its interquartile
  range);
* ``within bound``: otherwise; a per-layer metric that is neither improved
  nor worse is ``unresolved``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median, quantiles


def _load(path):
    runs = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better: str, bound: float | None, wins: int, losses: int, pairs: int) -> str:
    """Classify one metric on one workload by the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = median(parent), median(change)
    q1, q3 = _quartiles(parent)
    iqr = q3 - q1
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * pairs and gain > iqr:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * pairs and -gain > iqr:
            return "worse"
        return "unresolved"
    if iqr > bound * abs(p_med):
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "within bound"
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "within bound"


def compare(parent_path, change_path, benchmark_path) -> int:
    bench = json.loads(benchmark_path.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent_runs, change_runs = _load(parent_path), _load(change_path)
    print(f"{'workload':12s} {'trace':5s} {'metric':28s} {'parent p50 [q1, q3]':34s} "
          f"{'change p50 [q1, q3]':34s} {'won':>7s}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        unpaired = defaultdict(list)
        for rec in change_runs[key]:
            unpaired[rec["seed"]].append(rec)
        pairs = []
        for rec in parent_runs[key]:
            if unpaired[rec["seed"]]:
                pairs.append((rec, unpaired[rec["seed"]].pop(0)))
        change_first = sum(c["started"] < p["started"] for p, c in pairs)
        print(f"# {workload} trace={trace}: {len(pairs)} pairs, change ran first in {change_first}")
        names = sorted(set(parent_runs[key][0]["result"]["metrics"]) & set(spec))
        for name in names:
            m = spec[name]
            sign = 1.0 if m["better"] == "higher" else -1.0
            p_vals = [r["result"]["metrics"][name]["value"] for r in parent_runs[key]]
            c_vals = [r["result"]["metrics"][name]["value"] for r in change_runs[key]]
            diffs = [sign * (c["result"]["metrics"][name]["value"] - p["result"]["metrics"][name]["value"])
                     for p, c in pairs]
            wins = sum(d > 0 for d in diffs)
            losses = sum(d < 0 for d in diffs)
            v = verdict(p_vals, c_vals, m["better"], m.get("bound"), wins, losses, len(pairs))
            pq, cq = _quartiles(p_vals), _quartiles(c_vals)
            print(f"{workload:12s} {trace:<5d} {name:28s} "
                  f"{median(p_vals):10.5g} [{pq[0]:9.5g}, {pq[1]:9.5g}] "
                  f"{median(c_vals):10.5g} [{cq[0]:9.5g}, {cq[1]:9.5g}] "
                  f"{wins:3d}/{len(pairs):<3d}  {v}")
    return 0
