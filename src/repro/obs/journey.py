"""Per-message causal tracing: journeys as a view of the tracer's hops.

The paper's argument is a per-hop latency budget (Figure 7), but flat
spans cannot answer "why was *this* message slow".  A *journey* follows
one message through its full lifecycle — send call →
``fragment_plan()`` fragments → tx queue → DMA/txpump → wire → switch
egress → rx IRQ → BH → reassembly → deliver — so each delivered
message yields a waterfall of per-hop latencies
(:func:`repro.obs.analyze.journey_waterfall`), and each retransmission
is a child of the original transmission (the CLIC module records each
retransmission's reason, ``"fast"``, ``"partial_ack"`` or ``"rto"``,
when the reliability layer hands it the packets).

Journeys are not recorded as such.  The instrumented components (CLIC
module, driver, NIC, link, switch) append *hop records* to the run's
one :class:`~repro.obs.span.Tracer` (:meth:`~repro.obs.span.Tracer.hop`)
while ``tracer.hop_log`` is a list::

    cluster.tracer.hop_log = []

and :func:`journeys_of` derives the journeys from those records at
export.  Each site checks ``hop_log is not None`` inline, so the
disabled default costs one attribute load per hop site and schedules
**zero** simulation events — a run with hops recorded is
simulated-time bit-identical to the same run without (the ``journey``
gate scenario in ``tests/perf/test_gates.py`` enforces this).

Like the rest of :mod:`repro.obs`, this module imports nothing from
:mod:`repro.sim`: packets are duck-typed by their identity fields
(``src_node``, ``msg_id``, ``packet_id``), so the derivation never
touches — let alone mutates — protocol state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["HOP_CHAIN", "journeys_of"]

#: canonical hop order of one fragment's life, send call to delivery
HOP_CHAIN = (
    "send",        # user's send syscall reached the protocol module
    "fragment",    # fragment_plan() piece registered with the window
    "tx_queue",    # module handed the fragment to the (stock) driver
    "nic_dma",     # NIC bus-master DMA pulled the bytes across PCI
    "wire",        # frame fully serialized onto the sender's link
    "switch",      # switch forwarded the frame to its egress queue
    "nic_rx",      # frame fully arrived in the receiver NIC's buffer
    "irq",         # driver drained the frame in interrupt context
    "bh",          # protocol module entered (bottom-half or direct)
    "reassembly",  # fragment folded into the partial message
    "deliver",     # message complete (ready for / in user memory)
)


def journeys_of(records: Iterable[Tuple[float, str, str, Any, Dict[str, Any]]]
                ) -> List[Dict[str, Any]]:
    """Every journey of a run's hop records ``(t, hop, scope, payload,
    detail)``, as plain export dicts in ``send`` order.

    * a ``send`` record opens a journey; its detail carries
      ``src_node``, ``msg_id``, ``port``, ``dst`` and ``nbytes``, and
      journey ids count the ``send`` records from 1;
    * any other record joins the journey of its packet's ``(src_node,
      msg_id)``; a payload without that identity is unwrapped once
      through ``.payload`` (the NIC offload marker).  Records whose
      packet has no identity (acks, TCP segments) or no open journey are
      dropped;
    * a packet's first ``tx_queue`` is its anchor; a later one is a
      retransmission child: it gets ``parent`` (the anchor's index) and
      the ``kind`` of that packet's latest ``retx`` record (``"unknown"``
      without one), and is listed in ``retransmits``.  A ``retx`` record
      feeds that kind only and is no event;
    * ``deliver`` sets ``delivered`` and ``end_ns``.

    Each event is ``{"i", "t", "hop", "scope", "pkt"?, "parent"?,
    ...detail}``, ``i`` its index in the journey.  The result shares no
    dict with the records.
    """
    journeys: Dict[Tuple[int, int], Dict[str, Any]] = {}
    opened = 0
    #: packet_id -> index of its first tx_queue event
    first_tx: Dict[int, int] = {}
    #: packet_id -> kind of its latest retx record
    retx_kind: Dict[int, str] = {}
    for t, hop, scope, pkt, detail in records:
        if hop == "send":
            opened += 1
            src, msg_id = detail["src_node"], detail["msg_id"]
            journeys[(src, msg_id)] = {
                "id": opened,
                "key": f"{src}:{msg_id}",
                "src_node": src,
                "dst_node": detail["dst"],
                "port": detail["port"],
                "msg_id": msg_id,
                "nbytes": detail["nbytes"],
                "start_ns": t,
                "end_ns": None,
                "delivered": False,
                "fragments": 0,
                "retransmits": [],
                "events": [{"i": 0, "t": t, "hop": hop, "scope": scope,
                            "dst": detail["dst"], "nbytes": detail["nbytes"]}],
            }
            continue
        msg_id = getattr(pkt, "msg_id", None)
        src = None if msg_id is None else getattr(pkt, "src_node", None)
        if src is None:
            pkt = getattr(pkt, "payload", None)
            msg_id = getattr(pkt, "msg_id", None)
            src = None if msg_id is None else getattr(pkt, "src_node", None)
        journey = journeys.get((src, msg_id)) if src is not None else None
        if journey is None:
            continue
        pkt_id = getattr(pkt, "packet_id", None)
        if hop == "retx":
            retx_kind[pkt_id] = detail["kind"]
            continue
        events = journey["events"]
        i = len(events)
        event: Dict[str, Any] = {"i": i, "t": t, "hop": hop, "scope": scope}
        if pkt_id is not None:
            event["pkt"] = pkt_id
        kind = None
        if hop == "tx_queue":
            parent = first_tx.setdefault(pkt_id, i)
            if parent != i:
                event["parent"] = parent
                kind = retx_kind.get(pkt_id, "unknown")
                journey["retransmits"].append(
                    {"pkt": pkt_id, "kind": kind, "t": t, "parent": parent})
        event.update(detail)
        if kind is not None:
            event["kind"] = kind
        events.append(event)
        if hop == "fragment":
            journey["fragments"] += 1
        elif hop == "deliver":
            journey["delivered"] = True
            journey["end_ns"] = t
    return list(journeys.values())
