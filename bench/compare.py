"""``python3 bench/run.py compare PARENT.json... CHANGE.json...``

Compares two sets of benchmark result files, workload by workload and
metric by metric, under the rules of ``bench/README.md``:

* each side's median and quartiles;
* the share of pairs (parent run i, change run i) the change wins, ties
  counting for neither;
* a verdict.  ``unresolved`` when either side's spread (quartile
  distance over median) is wider than the metric's bound, unless every
  change run beats every parent run (then ``better``).  ``better`` when
  the change wins at least 90% of pairs and the medians differ by more
  than the parent's quartile distance.  ``worse`` when the change median
  is worse than the parent's by more than the bound.  Else
  ``unchanged``.

Pair i should run the same seed on both sides.  Then failed points and
every count-valued per-layer metric must be identical within each pair:
counts are deterministic, so any difference is reported.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

#: a change wins a claim only on at least this share of pairs
WIN_SHARE = 0.9


def load_results(path: str) -> Dict[str, Dict[str, Any]]:
    """Workload name -> result, from a single-workload or an all-workload file."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def _quartiles(values: Sequence[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(quartiles) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Statistics and verdict for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    gain = sign * (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound:
        dominated = min(sign * c for c in change) > max(sign * p for p in parent)
        result = "better" if dominated else "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        result = "better"
    elif gain < -bound:
        result = "worse"
    else:
        result = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "won": wins / len(pairs),
            "spread": spread, "change_vs_parent": gain, "verdict": result}


def compare(parent_paths: List[str], change_paths: List[str], spec: Dict[str, Any]) -> int:
    """Print the comparison table; return 1 if anything is worse or differs."""
    parents = [load_results(p) for p in parent_paths]
    changes = [load_results(p) for p in change_paths]
    workloads = [w for w in parents[0] if all(w in r for r in parents + changes)]
    bad = False
    print(f"{'workload':<13} {'metric':<12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>5} {'spread':>7} {'delta':>7}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r[w]["metrics"][name]["value"] for r in parents]
            cv = [r[w]["metrics"][name]["value"] for r in changes]
            v = verdict(pv, cv, metric["better"], metric["bound"])
            bad |= v["verdict"] == "worse"
            print(f"{w:<13} {name:<12} {_fmt(v['parent']):>30} {_fmt(v['change']):>30} "
                  f"{v['won']:>5.0%} {v['spread']:>7.1%} {v['change_vs_parent']:>+7.1%}  "
                  f"{v['verdict']} (bound {metric['bound']:.0%})")
        pairs = [(p[w], c[w]) for p, c in zip(parents, changes)]
        failed = [(p["failed"], c["failed"]) for p, c in pairs]
        same = all(a == b for a, b in failed)
        print(f"{w:<13} failed points per pair: {'identical' if same else 'DIFFER'} {failed}")
        bad |= not same
        if all("per_layer" in p and "per_layer" in c for p, c in pairs):
            names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")
                     and m["name"] != "trace.samples"]
            differ = [n for n in names if any(p["per_layer"][n]["value"] != c["per_layer"][n]["value"]
                                              for p, c in pairs)]
            print(f"{w:<13} counts per pair: "
                  f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
            bad |= bool(differ)
    return 1 if bad else 0
