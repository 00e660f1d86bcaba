"""``--compare A.json B.json``: is B no worse than A, metric by metric?

For every (end-to-end metric, workload) pair the two suite files share,
print both medians, each side's quartile distance as a share of its
median, the bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  it is not, but either side's quartile distance is wider
                than the bound, so "unchanged" cannot be claimed;
``ok``          otherwise.

Deterministic counts are compared exactly (``same`` / ``changed``): they
are a function of the generated inputs, so any difference is a change in
behaviour, not noise.  Exit code 1 if any row regressed or changed.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from bench.measure import DETERMINISTIC_COUNTS, load_spec


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)``; ``change`` > 0 means B is worse."""
    base = abs(a["median"]) or 1.0
    change = (b["median"] - a["median"]) / base
    if better == "higher":
        change = -change
    spread = max(
        (side["q3"] - side["q1"]) / (abs(side["median"]) or 1.0)
        for side in (a, b)
    )
    if change > bound:
        return "regressed", change, spread
    if spread > bound:
        return "unresolved", change, spread
    return "ok", change, spread


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
            ) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in left.get("end_to_end", {}) or \
                    name not in right.get("end_to_end", {}):
                continue
            stats_a, stats_b = left["end_to_end"][name], \
                right["end_to_end"][name]
            outcome, change, spread = verdict(
                stats_a, stats_b, metric["better"], metric["bound"]
            )
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "a": stats_a["median"], "b": stats_b["median"],
                "change": change, "spread": spread,
                "bound": metric["bound"], "verdict": outcome,
            })
        for name in DETERMINISTIC_COUNTS:
            if name not in left.get("per_layer", {}) or \
                    name not in right.get("per_layer", {}):
                continue
            count_a = left["per_layer"][name]["median"]
            count_b = right["per_layer"][name]["median"]
            rows.append({
                "metric": name, "workload": workload, "unit": "count",
                "a": count_a, "b": count_b, "change": 0.0, "spread": 0.0,
                "bound": 0.0,
                "verdict": "same" if count_a == count_b else "changed",
            })
    return rows


def compare_files(path_a: str, path_b: str, out: Any = sys.stdout) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b, load_spec())
    print(f"{'metric':24s} {'workload':16s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict", file=out)
    for row in rows:
        print(
            f"{row['metric']:24s} {row['workload']:16s} "
            f"{row['a']:12.6g} {row['b']:12.6g} "
            f"{row['change'] * 100:+8.1f}% {row['spread'] * 100:7.1f}% "
            f"{row['bound'] * 100:5.0f}%  {row['verdict']}",
            file=out,
        )
    bad = [r for r in rows if r["verdict"] in ("regressed", "changed")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(bad)} regressed/changed, "
          f"{len(unresolved)} unresolved", file=out)
    return 1 if bad else 0
