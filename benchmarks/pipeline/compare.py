#!/usr/bin/env python3
"""Compare two benchmark records: ``compare.py A.json B.json``.

Both files are what ``run.py --out`` writes: a list of runs, one entry
appended per invocation, so a side may hold several runs of the same
seed.  For every workload and end-to-end metric the table gives both
medians, the ratio B/A (base: A), the regression bound and a verdict:

``ok``          B is not worse than A by more than the bound
``regressed``   B is worse than A by more than the bound, or B fails
                ops that A does not
``unresolved``  not regressed, but the run-to-run spread of a side is
                wider than the bound, so "unchanged" cannot be claimed
``changed``     a metric or count that is a pure function of the
                solver's result (``hpwl``, ``max_bin_util``, ``n.*``)
                differs; two runs of the same code must show none

The exit code is 1 when anything regressed, 2 when the records cannot
be compared (different seed, scale or workloads), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Tuple[dict, Dict[Key, List[float]], Dict[Key, List[float]], Dict[str, int]]:
    """stamp, end-to-end samples, per-layer samples, failed ops per
    workload of one record file."""
    with open(path) as f:
        runs = json.load(f)
    stamps = {(r["stamp"]["seed"], r["stamp"]["scale"]) for r in runs}
    if len(stamps) != 1:
        raise SystemExit(f"{path}: runs of different seed or scale: {sorted(stamps)}")
    end_to_end: Dict[Key, List[float]] = {}
    per_layer: Dict[Key, List[float]] = {}
    failed: Dict[str, int] = {}
    for run in runs:
        for record in run["records"]:
            name = record["workload"]
            failed[name] = failed.get(name, 0) + record["failed"]
            if not record["trace"]:
                for metric, m in record["end_to_end"].items():
                    end_to_end.setdefault((name, metric), []).append(m["value"])
            for metric, m in record.get("per_layer", {}).items():
                per_layer.setdefault((name, metric), []).append(m["value"])
    return runs[0]["stamp"], end_to_end, per_layer, failed


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median: the distance
    between the quartiles from four runs on, the range below that."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if not mid:
        return None
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def verdict(
    metric: str, a: List[float], b: List[float], bound: float
) -> Tuple[str, float, Optional[float]]:
    """The word, B/A, and the wider of the two sides' spreads."""
    ma, mb = statistics.median(a), statistics.median(b)
    ratio = mb / ma if ma else float("inf")
    widest = max((s for s in (spread(a), spread(b)) if s is not None), default=None)
    if metric in layers.EXACT_END_TO_END and set(a) == set(b) and len(set(a)) == 1:
        word = "ok"
    elif ratio > 1.0 + bound:
        word = "regressed"
    elif metric in layers.EXACT_END_TO_END:
        word = "changed"
    else:
        word = "unresolved" if (widest or 0.0) > bound else "ok"
    return word, ratio, widest


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    stamp_a, e2e_a, layer_a, failed_a = load(args[0])
    stamp_b, e2e_b, layer_b, failed_b = load(args[1])
    for field in ("seed", "scale"):
        if stamp_a[field] != stamp_b[field]:
            sys.stderr.write(f"cannot compare: {field} {stamp_a[field]} vs {stamp_b[field]}\n")
            return 2
    if set(e2e_a) != set(e2e_b):
        sys.stderr.write("cannot compare: the records cover different workloads or metrics\n")
        return 2

    print(f"A = {args[0]} ({stamp_a['git_commit']})   B = {args[1]} ({stamp_b['git_commit']})")
    print(f"{'workload':<10} {'metric':<14} {'A':>14} {'B':>14} {'B/A':>8} {'bound':>6} {'spread':>7}  verdict")
    tally = {"ok": 0, "regressed": 0, "unresolved": 0, "changed": 0}
    for (name, metric) in sorted(e2e_a, key=lambda k: (k[0], list(layers.END_TO_END).index(k[1]))):
        a, b = e2e_a[(name, metric)], e2e_b[(name, metric)]
        unit, bound = layers.END_TO_END[metric]
        word, ratio, widest = verdict(metric, a, b, bound)
        shown = "-" if widest is None else f"{widest:.3f}"
        print(f"{name:<10} {metric:<14} {statistics.median(a):>14.6f} {statistics.median(b):>14.6f} "
              f"{ratio:>8.4f} {bound:>6.2f} {shown:>7}  {word}  [{unit}, n={len(a)}/{len(b)}]")
        tally[word] += 1
    for name in sorted(failed_a):
        if failed_b.get(name, 0) > failed_a[name]:
            print(f"{name:<10} {'ops_failed':<14} {failed_a[name]:>14d} {failed_b[name]:>14d}"
                  f"{'':>24}  regressed")
            tally["regressed"] += 1
    for key in sorted(set(layer_a) & set(layer_b)):
        if key[1].startswith("n.") and set(layer_a[key]) != set(layer_b[key]):
            print(f"{key[0]:<10} {key[1]:<30} {layer_a[key][0]!s:>14} {layer_b[key][0]!s:>14}  changed")
            tally["changed"] += 1
    print(", ".join(f"{count} {word}" for word, count in tally.items()))
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
