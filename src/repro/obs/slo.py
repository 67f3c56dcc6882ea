"""Declarative SLOs: pure-data objectives evaluated into scorecards.

Production systems gate on *service-level objectives* — "p99 latency
under 2 ms", "loss budget 0", "burn no more than X of the pause budget
per second" — declared as data, not buried in assert statements.  This
module gives the reproduction that layer:

* an :class:`Objective` is one bound on one metric: a ``ceiling`` or
  ``floor`` on a scalar, a ``budget`` (a ceiling that reads as an error
  budget on a counter), or a ``burn_rate`` — the maximum windowed rate
  of increase of a :class:`~repro.obs.metrics.TimeSeries`, in units per
  simulated second;
* an :class:`SLOSpec` is a named bundle of objectives.  Both are frozen
  dataclasses: a spec is declared as data next to the run it bounds
  (:func:`repro.trace.fig4_point_slo`,
  :func:`repro.experiments.resilience.adversarial_slo`), not as asserts;
* :func:`evaluate` scores a spec against any artifact-shaped document
  (``result`` / ``metrics`` / ``timeseries`` sections, or a bench
  document) and returns a structured scorecard — the thing artifacts
  carry and the bench and shape checks read.

Metric paths are dotted (``result.latency.p99_us``,
``metrics.switch.pause_time_ns``) and resolve with longest-key-first
matching, so flat registry names containing dots
(``node0.kernel.syscall_ns``) resolve the same way nested dicts do.

Like the rest of :mod:`repro.obs`, nothing here imports
:mod:`repro.sim`: evaluation is a pure function of plain dicts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["OBJECTIVE_KINDS", "SCORECARD_SCHEMA", "Objective", "SLOSpec", "evaluate"]

SCORECARD_SCHEMA = "repro.slo-scorecard/1"

#: ``ceiling``/``budget`` pass when value <= threshold (a budget is a
#: ceiling that reads as an allowance: loss budget, pause budget);
#: ``floor`` passes when value >= threshold; ``burn_rate`` bounds the
#: max windowed increase rate of a time series (units per second).
OBJECTIVE_KINDS = ("ceiling", "floor", "budget", "burn_rate")

_MISSING = object()


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declared bound on one metric."""

    name: str
    metric: str
    kind: str
    threshold: float
    #: sliding-window width for ``burn_rate`` objectives (ignored
    #: otherwise); 0 means "over the whole series"
    window_ns: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"objective {self.name!r}: kind must be one of "
                f"{OBJECTIVE_KINDS}, got {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class SLOSpec:
    """A named bundle of objectives — the declared contract of a run."""

    name: str
    objectives: Tuple[Objective, ...] = ()
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        seen = set()
        for obj in self.objectives:
            if obj.name in seen:
                raise ValueError(f"duplicate objective name {obj.name!r}")
            seen.add(obj.name)


def resolve_metric(doc: Dict[str, Any], path: str) -> Any:
    """Resolve a dotted metric path against a nested/flat document.

    At every dict level the *longest* matching key wins, so
    ``metrics.node0.kernel.syscall_ns.p99`` finds the flat registry key
    ``node0.kernel.syscall_ns`` inside the ``metrics`` section and then
    the ``p99`` field of its snapshot.  Returns ``None`` when nothing
    matches (a declared objective over absent telemetry scores as
    ``missing``, which is a violation — silence must not pass an SLO).
    """
    found = _walk(doc, path.split("."))
    return None if found is _MISSING else found


def _walk(node: Any, parts: List[str]) -> Any:
    if not parts:
        return node
    if not isinstance(node, dict):
        return _MISSING
    for i in range(len(parts), 0, -1):
        key = ".".join(parts[:i])
        if key in node:
            found = _walk(node[key], parts[i:])
            if found is not _MISSING:
                return found
    return _MISSING


def burn_rate(points: Iterable, window_ns: float = 0.0) -> float:
    """Max windowed increase rate of a sampled series, in units/second.

    ``points`` are ``[t_ns, value]`` pairs in time order.  With a window
    the rate is the largest rise between any two samples no farther
    apart than ``window_ns``, divided by the window; without one it is
    the total rise over the whole series divided by its span.  Only
    *increases* burn budget — a draining queue burns nothing.
    """
    pts = [(float(t), float(v)) for t, v in points]
    if len(pts) < 2:
        return 0.0
    if window_ns <= 0.0:
        span = pts[-1][0] - pts[0][0]
        rise = max(0.0, pts[-1][1] - pts[0][1])
        return rise * 1e9 / span if span > 0 else 0.0
    best = 0.0
    lo = 0
    for hi in range(len(pts)):
        while pts[hi][0] - pts[lo][0] > window_ns:
            lo += 1
        # farthest in-window sample back from hi: the window minimum
        # time is pts[lo]; every lo..hi pair is in-window, and the max
        # rise to hi comes from the in-window minimum value.
        for j in range(lo, hi):
            rise = pts[hi][1] - pts[j][1]
            if rise > best:
                best = rise
    return best * 1e9 / window_ns


def _score(obj: Objective, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Score one objective; returns its scorecard row."""
    raw = resolve_metric(doc, obj.metric)
    row: Dict[str, Any] = {
        "name": obj.name, "metric": obj.metric, "kind": obj.kind,
        "threshold": obj.threshold,
    }
    if obj.window_ns:
        row["window_ns"] = obj.window_ns
    if raw is None:
        row.update(value=None, ok=False, status="missing", margin=None)
        return row
    if obj.kind == "burn_rate":
        points = raw.get("points", raw) if isinstance(raw, dict) else raw
        value = burn_rate(points, obj.window_ns)
    else:
        if isinstance(raw, dict) or not isinstance(raw, (int, float)) \
                or isinstance(raw, bool):
            row.update(value=None, ok=False, status="missing", margin=None)
            return row
        value = float(raw)
    if not math.isfinite(value):
        # NaN/inf is no measurement (the serialized artifact stores it
        # as null), so it scores exactly like an absent metric
        row.update(value=None, ok=False, status="missing", margin=None)
        return row
    if obj.kind == "floor":
        ok = value >= obj.threshold
        margin = value - obj.threshold
    else:  # ceiling / budget / burn_rate all bound from above
        ok = value <= obj.threshold
        margin = obj.threshold - value
    row.update(value=value, ok=ok,
               status="ok" if ok else "violated", margin=margin)
    return row


def evaluate(spec: SLOSpec, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Score every objective of ``spec`` against ``doc``.

    ``doc`` is only read, never copied or mutated, so pass the live
    sections a spec names (``{"result": art.result, "metrics":
    art.metrics, "timeseries": art.timeseries}``) rather than
    ``art.to_dict()``, which copies every record of the run first.
    Non-finite values score as ``missing``, so the live and the
    serialized form of a run give the same scorecard.

    Returns the structured scorecard: schema-tagged, JSON-able, with one
    row per objective in declaration order and an overall verdict.  A
    missing metric is a violation — an SLO over telemetry that never
    arrived has not been met.
    """
    rows = [_score(obj, doc) for obj in spec.objectives]
    violations = [r["name"] for r in rows if not r["ok"]]
    return {
        "schema": SCORECARD_SCHEMA,
        "slo": spec.name,
        "description": spec.description,
        "ok": not violations,
        "objectives": rows,
        "violations": violations,
    }
