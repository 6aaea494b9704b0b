"""``compare A.json B.json``: one row per workload x end-to-end metric.

Each file is a result document written by ``--out``. A document may hold
several runs of a workload (``--repeat``); a side's value is the median
of its runs and its spread is their interquartile range as a share of
that median. Verdicts follow the choosing-metrics guide: a metric whose
run-to-run spread is wider than its bound is *unresolved*, not unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .spec import END_TO_END, WORKLOADS
from .stats import median, spread


def _values(doc: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in doc["runs"]
            if run["workload"] == workload and not run["trace"]
            and metric in run["metrics"]]


def _incorrect(doc: Dict[str, Any]) -> List[str]:
    return [f"{run['workload']} (seed {run['seed']})"
            for run in doc["runs"] if not run["correct"]]


def verdict(a: float, b: float, better: str, bound: float,
            widest_spread: Optional[float]) -> Tuple[float, str]:
    """(share by which B is worse than A, verdict)."""
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if widest_spread is not None and widest_spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "worse"
    if worse < -bound:
        return worse, "better"
    return worse, "within bound"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    status = 0
    for workload in WORKLOADS:
        for metric in END_TO_END:
            values_a = _values(doc_a, workload.name, metric.name)
            values_b = _values(doc_b, workload.name, metric.name)
            if not values_a or not values_b:
                continue
            a, b = median(values_a), median(values_b)
            spreads = [spread(v) for v in (values_a, values_b)
                       if len(v) >= 4]
            widest = max(spreads) if spreads else None
            _, word = verdict(a, b, metric.better, metric.bound, widest)
            if word == "worse":
                status = 1
            shown = f"{widest:7.3f}" if widest is not None else "    n/a"
            print(f"{workload.name:<12} {metric.name:<14} {a:12.4f} "
                  f"{b:12.4f} {b / a:7.3f} {metric.bound:6.2f} {shown}  "
                  f"{word}  ({metric.unit}, {metric.better} is better, "
                  f"base A, n={len(values_a)}/{len(values_b)})")
    for name, doc in (("A", doc_a), ("B", doc_b)):
        for run in _incorrect(doc):
            print(f"{name}: correctness check FAILED on {run}")
            status = 1
    return status
