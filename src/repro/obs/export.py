"""Exporters: Chrome ``trace_event`` JSON and the per-run artifact.

* :func:`chrome_trace_events` converts spans + instant records — and,
  when present, message journeys and time series — into the
  Chrome/Perfetto ``trace_event`` format (load the file at
  ``chrome://tracing`` or https://ui.perfetto.dev).  Scopes such as
  ``node1.eth0`` map to process ``node1`` / thread ``eth0``; pid/tid
  integers are assigned deterministically (sorted first-appearance), so
  two runs with the same seed produce byte-identical exports.  Journeys
  export as flow events (``ph: "s"/"t"/"f"`` — the viewer draws message
  arrows hop to hop) with the journey id as the flow id; time series
  export as counter events (``ph: "C"`` — rendered as filled queue
  graphs), ordered by series name then sample time.
* :class:`RunArtifact` is the machine-readable JSON every experiment in
  the registry can write (``python -m repro.experiments fig7 --json``):
  schema-tagged, with the result dict, metrics snapshot, optional
  profiler snapshot, and (when tracing was on) the spans and instants
  (the ``records`` field).

All functions here operate on *plain dicts* (the ``to_dict`` forms), so
an artifact loaded from disk can be re-exported without live objects.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "RUN_SCHEMA",
    "RunArtifact",
    "chrome_trace_events",
    "chrome_trace_json",
    "instants_of",
    "jsonable",
    "spans_of",
    "timeseries_of",
]

#: the artifact schema, and the only one :meth:`RunArtifact.from_dict` loads
RUN_SCHEMA = "repro.run/4"
BATCH_SCHEMA = "repro.run-batch/1"


def spans_of(tracer) -> List[Dict[str, Any]]:
    """Completed spans of a tracer as export dicts (begin order)."""
    return [s.to_dict() for s in tracer.spans if s.end_ns is not None]


def instants_of(tracer) -> List[Dict[str, Any]]:
    """A tracer's instants as export dicts (append order) — the
    ``records`` of a :class:`RunArtifact`."""
    return [
        {"time": i.time, "source": i.scope, "event": i.name, "detail": dict(i.detail)}
        for i in tracer.instants
    ]


def timeseries_of(metrics) -> Dict[str, Any]:
    """All :class:`~repro.obs.metrics.TimeSeries` of a registry as export
    dicts keyed by series name (sorted — deterministic)."""
    out: Dict[str, Any] = {}
    for name, metric in sorted(metrics.items()):
        if getattr(metric, "kind", None) == "timeseries":
            out[name] = metric.as_dict()
    return out


def _split_scope(scope: str) -> Tuple[str, str]:
    """``node0.kernel`` -> (process ``node0``, thread ``kernel``)."""
    if "." in scope:
        pid, tid = scope.split(".", 1)
        return pid, tid
    return scope, "main"


def _split_series(name: str) -> Tuple[str, str]:
    """``node0.nic0.rx_buffer_depth`` -> (scope ``node0.nic0``,
    counter ``rx_buffer_depth``) — the scope half then feeds
    :func:`_split_scope` like any span scope."""
    if "." in name:
        scope, counter = name.rsplit(".", 1)
        return scope, counter
    return "metrics", name


def _scope_ids(scopes: Iterable[str]) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
    """Deterministic pid/tid integer assignment (sorted names, from 1)."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for scope in sorted(set(scopes)):
        pname, tname = _split_scope(scope)
        if pname not in pids:
            pids[pname] = len(pids) + 1
        key = (pname, tname)
        if key not in tids:
            tids[key] = len(tids) + 1
    return pids, tids


def chrome_trace_events(
    spans: Iterable[Dict[str, Any]] = (),
    records: Iterable[Dict[str, Any]] = (),
    journeys: Iterable[Dict[str, Any]] = (),
    timeseries: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from span/record export dicts.

    Spans become complete ("X") events with microsecond timestamps;
    records (instants) become instant ("i") events;
    journeys become flow-event chains ("s"/"t"/"f", flow id = journey
    id); time series become counter events ("C").  Output order is
    fixed — metadata, spans, records, flows (journey order), counters
    (sorted series name) — so exports are byte-identical across runs.
    """
    spans = list(spans)
    records = list(records)
    journeys = list(journeys)
    timeseries = dict(timeseries or {})
    scopes = [s["scope"] for s in spans] + [r["source"] for r in records]
    for j in journeys:
        scopes.extend(e["scope"] for e in j.get("events", ()))
    scopes.extend(_split_series(name)[0] for name in timeseries)
    pids, tids = _scope_ids(scopes)

    events: List[Dict[str, Any]] = []
    for pname, pid in sorted(pids.items()):
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": pname},
        })
    for (pname, tname), tid in sorted(tids.items()):
        events.append({
            "ph": "M", "pid": pids[pname], "tid": tid, "name": "thread_name",
            "args": {"name": tname},
        })
    for s in spans:
        pname, tname = _split_scope(s["scope"])
        args = dict(s.get("attrs") or {})
        args["span"] = s["id"]
        if s.get("parent") is not None:
            args["parent"] = s["parent"]
        events.append({
            "ph": "X",
            "pid": pids[pname],
            "tid": tids[(pname, tname)],
            "name": s["name"],
            "cat": s["scope"],
            "ts": round(s["start_ns"] / 1000.0, 6),
            "dur": round((s["end_ns"] - s["start_ns"]) / 1000.0, 6),
            "args": args,
        })
    for r in records:
        pname, tname = _split_scope(r["source"])
        events.append({
            "ph": "i",
            "s": "t",
            "pid": pids[pname],
            "tid": tids[(pname, tname)],
            "name": r["event"],
            "cat": r["source"],
            "ts": round(r["time"] / 1000.0, 6),
            "args": dict(r.get("detail") or {}),
        })
    for j in journeys:
        hops = list(j.get("events", ()))
        for idx, ev in enumerate(hops):
            pname, tname = _split_scope(ev["scope"])
            ph = "s" if idx == 0 else ("f" if idx == len(hops) - 1 else "t")
            args = {k: v for k, v in ev.items() if k not in ("t", "scope")}
            args["journey"] = j["key"]
            flow = {
                "ph": ph,
                "id": j["id"],
                "pid": pids[pname],
                "tid": tids[(pname, tname)],
                "name": "journey",
                "cat": "journey," + ev["hop"],
                "ts": round(ev["t"] / 1000.0, 6),
                "args": args,
            }
            if ph == "f":
                flow["bp"] = "e"  # bind the flow end to the enclosing slice
            events.append(flow)
    for name in sorted(timeseries):
        series = timeseries[name]
        scope, counter = _split_series(name)
        pname, tname = _split_scope(scope)
        for t_ns, value in series.get("points", ()):
            events.append({
                "ph": "C",
                "pid": pids[pname],
                "tid": tids[(pname, tname)],
                "name": counter,
                "cat": scope,
                "ts": round(t_ns / 1000.0, 6),
                "args": {"value": value},
            })
    return events


def chrome_trace_json(
    spans: Iterable[Dict[str, Any]] = (),
    records: Iterable[Dict[str, Any]] = (),
    journeys: Iterable[Dict[str, Any]] = (),
    timeseries: Optional[Dict[str, Any]] = None,
    indent: Optional[int] = None,
) -> str:
    """The full Chrome trace document as a JSON string (deterministic)."""
    doc = {
        "displayTimeUnit": "ns",
        "traceEvents": chrome_trace_events(spans, records, journeys, timeseries),
    }
    return json.dumps(jsonable(doc), indent=indent, sort_keys=True)


def jsonable(obj: Any) -> Any:
    """Recursively coerce ``obj`` into JSON-serializable builtins.

    Tuples become lists, dataclasses become dicts, dict keys become
    strings, non-finite floats become ``None``, and anything else falls
    back to ``repr`` — so an arbitrary experiment result dict can always
    be written to disk.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # field by field rather than ``dataclasses.asdict``: this walk
        # already rebuilds every container, so asdict's deep copy of
        # each leaf would be thrown away
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    if hasattr(obj, "as_dict"):
        return jsonable(obj.as_dict())
    return repr(obj)


@dataclasses.dataclass
class RunArtifact:
    """The machine-readable output of one experiment run."""

    experiment: str
    quick: bool = True
    result: Dict[str, Any] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    profile: Dict[str, Any] = dataclasses.field(default_factory=dict)
    spans: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    records: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    journeys: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    timeseries: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: envelope verdict of a run that checks one (``{"ok": bool,
    #: "failed": [check names]}``, see :func:`repro.trace.capture_fig4_point`)
    #: — empty otherwise
    slo: Dict[str, Any] = dataclasses.field(default_factory=dict)
    schema: str = RUN_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form of the artifact.

        A full copy of the run's records — every span, journey event
        and time-series point is rebuilt, so nothing in the returned
        dict aliases the artifact.  That costs time proportional to the
        capture; code that only *reads* a few sections (a check, a
        summary) should read the attributes directly.
        """
        return jsonable(self)

    def to_json(self) -> str:
        """Serialize the artifact (sorted keys, indent 2, deterministic)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the artifact JSON to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    # -- loading ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunArtifact":
        """Validate + rebuild an artifact from its JSON dict form."""
        if not isinstance(data, dict):
            raise ValueError(f"artifact must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != RUN_SCHEMA:
            raise ValueError(f"unknown artifact schema {schema!r} (want {RUN_SCHEMA!r})")
        if not data.get("experiment"):
            raise ValueError("artifact missing 'experiment'")
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    @classmethod
    def load(cls, path: str) -> "RunArtifact":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
