"""Span analytics: span trees, self-time, critical paths, layer budgets.

The paper's core claim is a *per-layer overhead budget* — CLIC wins
because time spent in the protocol/kernel/driver layers shrinks
(Figures 4–7).  This module turns the raw spans/instants a traced run
emits (see :mod:`repro.obs.span` and :class:`~repro.obs.RunArtifact`)
into exactly those budgets:

* :func:`span_tree` / :func:`scope_stats` — reconstruct the span forest
  from parent links and compute, per ``scope/name``, total time and
  *self* time (total minus time covered by child spans), the numbers a
  flame-graph view would show;
* :func:`critical_path` — walk one message's packet through the
  pipeline (sender syscall → CLIC → driver → NIC → wire → interrupt →
  bottom halves → CLIC → wake) and label every hop with the layer that
  owns it — the one derivation of the Figure 7 breakdown, which
  :func:`repro.analysis.fig7_timeline` regroups into the paper's
  stages;
* :meth:`CriticalPath.layer_ns` / :meth:`CriticalPath.layer_shares` —
  fold a critical path into the per-layer budget (user/CLIC/kernel/
  driver/NIC/wire) the paper argues about;
* :func:`journey_waterfall` / :func:`explain_outliers` /
  :func:`journey_latency_summary` — the per-message view: turn a
  :class:`~repro.obs.journey.Journey` export dict into a waterfall of
  per-hop latencies (telescoping, so segments sum exactly to the
  end-to-end latency) and name the dominant hop — and whether loss /
  retransmission was involved — for the p99/p99.9 journeys of a run.

Everything operates on the *plain dict* export forms (``Span.to_dict``
/ ``Journey.to_dict`` / instant-record dicts), so a
:class:`~repro.obs.RunArtifact` loaded from disk can be analyzed
without live simulator objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .journey import HOP_CHAIN


def _format_table(headers, rows, title=None):
    """Deferred import of :func:`repro.analysis.tables.format_table`.

    :mod:`repro.analysis` builds on top of :mod:`repro.obs`, so this
    module must not import it at module scope (circular import).
    """
    from ..analysis.tables import format_table

    return format_table(headers, rows, title=title)


__all__ = [
    "LAYERS",
    "CriticalPath",
    "PathSegment",
    "ScopeStat",
    "SpanNode",
    "critical_path",
    "explain_outliers",
    "journey_latency_summary",
    "journey_waterfall",
    "outlier_report",
    "scope_stats",
    "span_tree",
    "summary_table",
    "waterfall_table",
]

#: the layers of the paper's overhead budget, top of the stack first
LAYERS = ("user", "clic", "kernel", "driver", "nic", "wire")


# ---------------------------------------------------------------------------
# span forest reconstruction and self-time accounting
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One span plus its children, rebuilt from exported parent links."""

    span: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration_ns(self) -> float:
        """Wall (simulated) duration of the span."""
        return self.span["end_ns"] - self.span["start_ns"]

    @property
    def self_ns(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(self.duration_ns - sum(c.duration_ns for c in self.children), 0.0)


def span_tree(spans: Iterable[Dict[str, Any]]) -> Tuple[List[SpanNode], Dict[int, SpanNode]]:
    """Rebuild the span forest from export dicts.

    Returns ``(roots, by_id)``: the root nodes in begin order and an
    id -> node index.  A span whose parent id is unknown (filtered out
    upstream, or ``None``) becomes a root.
    """
    by_id: Dict[int, SpanNode] = {}
    roots: List[SpanNode] = []
    nodes = [SpanNode(dict(s)) for s in spans]
    for node in nodes:
        by_id[node.span["id"]] = node
    for node in nodes:
        parent = node.span.get("parent")
        if parent is not None and parent in by_id:
            by_id[parent].children.append(node)
        else:
            roots.append(node)
    return roots, by_id


@dataclass
class ScopeStat:
    """Aggregated timing of every span sharing one ``scope/name``."""

    scope: str
    name: str
    count: int
    total_ns: float
    self_ns: float

    @property
    def key(self) -> str:
        """The ``scope/name`` label used in summary tables."""
        return f"{self.scope}/{self.name}"


def scope_stats(spans: Iterable[Dict[str, Any]]) -> List[ScopeStat]:
    """Per-``scope/name`` totals and self-times, sorted by self-time.

    Self-time is the span's duration minus the duration of its direct
    children — the flame-graph notion of "time spent *here*".
    """
    _, by_id = span_tree(spans)
    agg: Dict[Tuple[str, str], ScopeStat] = {}
    for node in by_id.values():
        key = (node.span["scope"], node.span["name"])
        stat = agg.get(key)
        if stat is None:
            stat = agg[key] = ScopeStat(key[0], key[1], 0, 0.0, 0.0)
        stat.count += 1
        stat.total_ns += node.duration_ns
        stat.self_ns += node.self_ns
    return sorted(agg.values(), key=lambda s: (-s.self_ns, s.key))


def summary_table(spans: Iterable[Dict[str, Any]], top: int = 15,
                  title: str = "Top scopes by self time") -> str:
    """Render the top-N :func:`scope_stats` rows as a text table.

    The bar column scales each scope's self-time against the largest,
    so the report reads like a one-column flame graph.
    """
    stats = scope_stats(spans)[:top]
    if not stats:
        return f"{title}\n(no completed spans)"
    peak = max(s.self_ns for s in stats) or 1.0
    rows = [
        (s.key, s.count, round(s.total_ns / 1000, 2), round(s.self_ns / 1000, 2),
         "#" * max(int(round(s.self_ns / peak * 24)), 1))
        for s in stats
    ]
    return _format_table(["scope/name", "n", "total us", "self us", "self"],
                         rows, title=title)


# ---------------------------------------------------------------------------
# critical-path extraction and layer attribution
# ---------------------------------------------------------------------------

@dataclass
class PathSegment:
    """One hop of a message's critical path, owned by a single layer."""

    name: str
    layer: str
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        """Length of the hop in simulated nanoseconds."""
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        """Length of the hop in microseconds."""
        return self.duration_ns / 1000.0


@dataclass
class CriticalPath:
    """The gap-free chain of hops a packet's latency decomposes into."""

    packet_id: int
    segments: List[PathSegment]
    #: the receiver ran CLIC_MODULE straight from the interrupt handler
    #: (Figure 8(b)) instead of through the bottom halves
    direct: bool = False

    @property
    def total_ns(self) -> float:
        """End-to-end time covered by the path."""
        return self.segments[-1].end_ns - self.segments[0].start_ns

    @property
    def total_us(self) -> float:
        """End-to-end time in microseconds."""
        return self.total_ns / 1000.0

    def layer_ns(self) -> Dict[str, float]:
        """Time attributed to each layer (every layer present, ns)."""
        out = {layer: 0.0 for layer in LAYERS}
        for seg in self.segments:
            out[seg.layer] += seg.duration_ns
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Fraction of the end-to-end time owned by each layer."""
        total = self.total_ns or 1.0
        return {layer: ns / total for layer, ns in self.layer_ns().items()}


def _first_span(spans: Sequence[Dict[str, Any]], *, scope: Optional[str] = None,
                scope_prefix: Optional[str] = None, name: Optional[str] = None,
                after_ns: Optional[float] = None,
                **attrs: Any) -> Optional[Dict[str, Any]]:
    for s in spans:
        if scope is not None and s["scope"] != scope:
            continue
        if scope_prefix is not None and not s["scope"].startswith(scope_prefix):
            continue
        if name is not None and s["name"] != name:
            continue
        if after_ns is not None and s["start_ns"] < after_ns:
            continue
        if attrs and not all((s.get("attrs") or {}).get(k) == v for k, v in attrs.items()):
            continue
        return s
    return None


def _first_instant(instants: Sequence[Dict[str, Any]], event: str, *,
                   source_prefix: Optional[str] = None,
                   **detail: Any) -> Optional[Dict[str, Any]]:
    for r in instants:
        if r["event"] != event:
            continue
        if source_prefix is not None and not r["source"].startswith(source_prefix):
            continue
        if detail and not all((r.get("detail") or {}).get(k) == v for k, v in detail.items()):
            continue
        return r
    return None


def critical_path(spans: Sequence[Dict[str, Any]], instants: Sequence[Dict[str, Any]],
                  packet_id: int, sender: str, receiver: str) -> CriticalPath:
    """Extract one packet's layer-labeled critical path.

    ``spans``/``instants`` are the export-dict forms (e.g. the ``spans``
    and ``records`` of a :class:`~repro.obs.RunArtifact`); ``sender``
    and ``receiver`` are node-name prefixes (``node0``, ``node1``).
    The chain ends at the receiver's wake (the end of its ``blocked``
    span) — the same window Figure 7 plots — so
    :func:`repro.analysis.fig7_timeline` regroups it losslessly.

    Both receive paths are supported: the stock bottom-half path and
    the Figure 8(b) direct dispatch, where the bottom-half hop is empty
    and dropped.  The receiver's ``irq`` span says which one ran
    (:attr:`CriticalPath.direct`).  Raises :class:`ValueError` when the
    trace lacks an anchor for ``packet_id``.
    """
    sys_span = _first_span(spans, scope=f"{sender}.kernel", name="syscall",
                           label="clic_send")
    clic_tx = _first_span(spans, scope=f"{sender}.clic", name="clic_send")
    drv_tx = _first_instant(instants, "driver_tx", pkt=packet_id)
    drv_rx = _first_instant(instants, "driver_rx", pkt=packet_id)
    clic_rx = _first_span(spans, scope=f"{receiver}.clic", name="clic_rx",
                          pkt=packet_id)
    mod_rx = _first_instant(instants, "module_rx", source_prefix=receiver,
                            pkt=packet_id)
    missing = [label for label, found in [
        ("sender syscall span", sys_span), ("clic_send span", clic_tx),
        ("driver_tx", drv_tx), ("driver_rx", drv_rx), ("clic_rx span", clic_rx),
        ("module_rx", mod_rx),
    ] if found is None]
    if missing:
        raise ValueError(f"trace incomplete for packet {packet_id}: missing {missing}")

    nic_tx = _first_span(spans, scope_prefix=f"{sender}.nic", name="nic_tx",
                         after_ns=sys_span["start_ns"])
    nic_rx = _first_span(spans, scope_prefix=f"{receiver}.nic", name="nic_rx",
                         after_ns=drv_tx["time"])
    # The interrupt that drained this frame: the latest receiver irq span
    # opening at or before the frame's driver_rx (coalescing may batch).
    irq_candidates = [
        s for s in spans
        if s["name"] == "irq" and s["scope"].startswith(receiver)
        and s["start_ns"] <= drv_rx["time"]
    ]
    if nic_tx is None or nic_rx is None or not irq_candidates:
        raise ValueError(
            f"trace incomplete for packet {packet_id}: missing NIC/irq spans")
    irq = max(irq_candidates, key=lambda s: s["start_ns"])
    rx_frame = _first_span(spans, scope=irq["scope"], name="rx_frame",
                           after_ns=irq["start_ns"], pkt=packet_id)
    # The wake that delivered it: the first receiver ``blocked`` span to
    # end once CLIC_MODULE started on the frame.
    wakes = [
        s for s in spans
        if s["name"] == "blocked" and s["scope"].startswith(receiver)
        and s["end_ns"] >= clic_rx["start_ns"]
    ]
    if not wakes:
        raise ValueError(f"trace incomplete for packet {packet_id}: missing wake")
    wake_ns = min(wakes, key=lambda s: s["end_ns"])["end_ns"]

    segments = [
        PathSegment("syscall entry", "kernel",
                    sys_span["start_ns"], clic_tx["start_ns"]),
        PathSegment("CLIC_MODULE tx + copy", "clic",
                    clic_tx["start_ns"], clic_tx["end_ns"]),
        PathSegment("driver tx call", "driver", clic_tx["end_ns"], drv_tx["time"]),
        PathSegment("NIC DMA + serialize", "nic", drv_tx["time"], nic_tx["end_ns"]),
        PathSegment("flight + switch", "wire", nic_tx["end_ns"], nic_rx["start_ns"]),
        PathSegment("NIC rx buffer", "nic", nic_rx["start_ns"], nic_rx["end_ns"]),
        PathSegment("interrupt coalescing", "nic", nic_rx["end_ns"], irq["start_ns"]),
        PathSegment("irq entry", "driver", irq["start_ns"],
                    rx_frame["start_ns"] if rx_frame is not None else drv_rx["time"]),
        PathSegment("NIC->system copy", "driver",
                    rx_frame["start_ns"] if rx_frame is not None else drv_rx["time"],
                    drv_rx["time"]),
        PathSegment("bottom halves", "kernel", drv_rx["time"], clic_rx["start_ns"]),
        PathSegment("CLIC_MODULE rx + demux", "clic",
                    clic_rx["start_ns"], mod_rx["time"]),
        PathSegment("CLIC_MODULE copy to user", "clic",
                    mod_rx["time"], clic_rx["end_ns"]),
        PathSegment("wake + reschedule", "kernel", clic_rx["end_ns"], wake_ns),
    ]
    # Zero-length hops (e.g. a driver_tx instant coinciding with the span
    # edge) carry no information; out-of-order edges mean the trace was
    # not the single-packet exchange this extraction is defined for.
    for seg in segments:
        if seg.duration_ns < 0:
            raise ValueError(
                f"non-causal hop {seg.name!r} for packet {packet_id} "
                f"({seg.start_ns} -> {seg.end_ns})")
    return CriticalPath(packet_id, [s for s in segments if s.duration_ns > 0.0]
                        or segments[:1],
                        direct=bool((irq.get("attrs") or {}).get("direct")))


# ---------------------------------------------------------------------------
# message journeys: waterfalls, latency summaries, outlier explanation
# ---------------------------------------------------------------------------

def _exact_percentile(sorted_vals: Sequence[float], p: float) -> float:
    """Exact (nearest-rank) percentile of an ascending-sorted sequence."""
    if not sorted_vals:
        return 0.0
    rank = math.ceil(p / 100.0 * len(sorted_vals))
    rank = min(max(rank, 1), len(sorted_vals))
    return sorted_vals[rank - 1]


def journey_waterfall(journey: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-hop latency segments of a delivered journey.

    Follows the *delivering fragment* — the packet whose reassembly
    completed the message — through :data:`~repro.obs.journey.HOP_CHAIN`,
    anchoring each hop at its last matching event at or before delivery
    (so for a retransmitted fragment, the copy that actually arrived).
    Segment durations telescope between consecutive anchors; because
    ``send`` anchors at ``start_ns`` and ``deliver`` at ``end_ns``, they
    sum *exactly* to the end-to-end latency.  A duplicate arrival can
    make an individual segment negative; the sum still telescopes.
    """
    if not journey.get("delivered"):
        raise ValueError(f"journey {journey.get('id')} not delivered")
    events = journey["events"]
    deliver_ev = None
    for ev in events:
        if ev["hop"] == "deliver":
            deliver_ev = ev
    if deliver_ev is None:
        raise ValueError(f"journey {journey.get('id')} has no deliver event")
    pkt = deliver_ev.get("pkt")
    end_ns = journey["end_ns"]
    segments: List[Dict[str, Any]] = []
    prev = journey["start_ns"]
    for hop in HOP_CHAIN:
        anchor = None
        for ev in events:
            if ev["hop"] != hop or ev["t"] > end_ns:
                continue
            ev_pkt = ev.get("pkt")
            if ev_pkt is not None and pkt is not None and ev_pkt != pkt:
                continue
            anchor = ev
        if anchor is None:
            continue  # hop not instrumented / skipped on this path
        segments.append({
            "hop": hop,
            "scope": anchor["scope"],
            "t_ns": anchor["t"],
            "dur_ns": anchor["t"] - prev,
        })
        prev = anchor["t"]
    return segments


def journey_latency_summary(journeys: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """p50/p99/p99.9 (exact, nearest-rank) latency summary of a run's
    journeys, plus delivery and retransmission counts."""
    journeys = list(journeys)
    delivered = [j for j in journeys if j.get("delivered")]
    lats = sorted(j["end_ns"] - j["start_ns"] for j in delivered)
    return {
        "messages": len(journeys),
        "delivered": len(delivered),
        "retransmitted": sum(1 for j in delivered if j.get("retransmits")),
        "p50_us": _exact_percentile(lats, 50.0) / 1000.0,
        "p99_us": _exact_percentile(lats, 99.0) / 1000.0,
        "p999_us": _exact_percentile(lats, 99.9) / 1000.0,
        "min_us": (lats[0] / 1000.0) if lats else 0.0,
        "max_us": (lats[-1] / 1000.0) if lats else 0.0,
        "mean_us": (sum(lats) / len(lats) / 1000.0) if lats else 0.0,
    }


def explain_outliers(journeys: Sequence[Dict[str, Any]],
                     top: int = 5) -> List[Dict[str, Any]]:
    """Explain the ``top`` slowest delivered journeys of a run.

    Each explanation names the dominant hop (the largest waterfall
    segment), its share of the end-to-end latency, the percentile band
    the journey sits in (``p99.9`` / ``p99`` / ``p<99``, exact
    nearest-rank thresholds over the whole run), and whether loss drove
    it there (retransmit count + kinds).  Ties break on journey id, so
    the report is deterministic under a fixed seed.
    """
    delivered = [j for j in journeys if j.get("delivered")]
    lats = sorted(j["end_ns"] - j["start_ns"] for j in delivered)
    p99 = _exact_percentile(lats, 99.0)
    p999 = _exact_percentile(lats, 99.9)
    ranked = sorted(delivered,
                    key=lambda j: (-(j["end_ns"] - j["start_ns"]), j["id"]))
    out: List[Dict[str, Any]] = []
    for j in ranked[:top]:
        lat = j["end_ns"] - j["start_ns"]
        segments = journey_waterfall(j)
        dominant = max(segments, key=lambda s: s["dur_ns"]) if segments else None
        kinds = sorted({r["kind"] for r in j.get("retransmits", ())})
        out.append({
            "id": j["id"],
            "key": j["key"],
            "latency_us": lat / 1000.0,
            "band": "p99.9" if lat >= p999 else ("p99" if lat >= p99 else "p<99"),
            "dominant_hop": dominant["hop"] if dominant else None,
            "dominant_us": (dominant["dur_ns"] / 1000.0) if dominant else 0.0,
            "dominant_share": (dominant["dur_ns"] / lat) if dominant and lat else 0.0,
            "retransmits": len(j.get("retransmits", ())),
            "retransmit_kinds": kinds,
            "fragments": j.get("fragments", 0),
        })
    return out


def waterfall_table(journey: Dict[str, Any]) -> str:
    """Render one journey's waterfall as a human-readable table."""
    segments = journey_waterfall(journey)
    total = journey["end_ns"] - journey["start_ns"]
    rows = [
        (seg["hop"], seg["scope"], round(seg["t_ns"] / 1000.0, 3),
         round(seg["dur_ns"] / 1000.0, 3),
         round(seg["dur_ns"] / total * 100.0, 1) if total else 0.0)
        for seg in segments
    ]
    rows.append(("TOTAL", "", round(journey["end_ns"] / 1000.0, 3),
                 round(total / 1000.0, 3), 100.0))
    title = (f"Journey #{journey['id']} {journey['key']} "
             f"({journey['nbytes']} B, {journey.get('fragments', 0)} fragments, "
             f"{len(journey.get('retransmits', ()))} retransmits)")
    return _format_table(["hop", "scope", "t us", "dur us", "%"], rows,
                         title=title)


def outlier_report(journeys: Sequence[Dict[str, Any]], top: int = 5) -> str:
    """Render :func:`explain_outliers` as a human-readable table."""
    rows = [
        (o["id"], o["key"], round(o["latency_us"], 3), o["band"],
         o["dominant_hop"] or "-", round(o["dominant_us"], 3),
         f"{o['dominant_share'] * 100.0:.1f}%",
         o["retransmits"], ",".join(o["retransmit_kinds"]) or "-")
        for o in explain_outliers(journeys, top=top)
    ]
    return _format_table(
        ["journey", "key", "us", "band", "dominant hop", "hop us", "share",
         "retx", "kinds"],
        rows, title=f"Top {len(rows)} slowest journeys")
