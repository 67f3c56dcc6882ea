"""Per-message causal tracing: journeys, hops, retransmit genealogy.

The paper's argument is a per-hop latency budget (Figure 7), but flat
spans cannot answer "why was *this* message slow".  A
:class:`JourneyRecorder` follows every message through its full
lifecycle — send call → ``fragment_plan()`` fragments → tx queue →
DMA/txpump → wire → switch egress → rx IRQ → BH → reassembly →
deliver — as causally-linked events sharing a *journey id*, so each
delivered message yields a waterfall of per-hop latencies
(:func:`repro.obs.analyze.journey_waterfall`), and each retransmission
is recorded as a child of the original transmission (the CLIC module
notes each retransmission's reason, ``"fast"``, ``"partial_ack"`` or
``"rto"``, when the reliability layer hands it the packets).

Enablement is one attribute on the cluster's tracer::

    cluster.tracer.journeys = JourneyRecorder(cluster.env)

Instrumented components (CLIC module, driver, NIC, switch) check
``tracer.journeys is not None`` inline, so the disabled default costs
one attribute load per hop site and schedules **zero** simulation
events — a run with journeys on is simulated-time bit-identical to the
same run with journeys off (the ``journey`` gate scenario in
``tests/perf/test_gates.py`` enforces this).

Recording is the per-frame cost, export is paid once: each event is
stored as a compact tuple ``(t, hop, scope, pkt_id, parent, detail)``
and :meth:`Journey.to_dict` builds its plain dict only at export.

Like the rest of :mod:`repro.obs`, this module imports nothing from
:mod:`repro.sim`: ``env`` is duck-typed (only ``.now`` is used) and
packets are duck-typed by their identity fields (``src_node``,
``msg_id``, ``packet_id``), so the recorder never touches — let alone
mutates — protocol state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Journey", "JourneyRecorder"]

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


def packet_key(payload: Any) -> Optional[Tuple[int, int]]:
    """The journey key ``(src_node, msg_id)`` of a packet-like payload.

    Returns ``None`` for payloads without message identity (acks, TCP
    segments, fuzzing junk) — those never join a journey.
    """
    msg_id = getattr(payload, "msg_id", None)
    if msg_id is None:
        return None
    src = getattr(payload, "src_node", None)
    if src is None:
        return None
    return (src, msg_id)


class Journey:
    """One message's causally-linked event chain."""

    __slots__ = ("journey_id", "src_node", "dst_node", "port", "msg_id",
                 "nbytes", "start_ns", "end_ns", "delivered", "fragments",
                 "events", "retransmits")

    def __init__(self, journey_id: int, src_node: int, dst_node: int,
                 port: int, msg_id: int, nbytes: int, start_ns: float):
        self.journey_id = journey_id
        self.src_node = src_node
        self.dst_node = dst_node
        self.port = port
        self.msg_id = msg_id
        self.nbytes = nbytes
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.delivered = False
        self.fragments = 0
        #: causally-ordered event records ``(t, hop, scope, pkt_id,
        #: parent, detail)``, exported as ``{"i", "t", "hop", "scope",
        #: "pkt"?, "parent"?, ...detail}`` — ``parent`` is the
        #: in-journey index of the originating event (retransmit
        #: genealogy), ``i`` the record's own index.
        self.events: List[Tuple[float, str, str, Optional[int], Optional[int],
                                Dict[str, Any]]] = []
        #: summary of retransmissions: ``{"pkt", "kind", "t", "parent"}``
        self.retransmits: List[Dict[str, Any]] = []

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict export form (see :class:`~repro.obs.RunArtifact`).

        Each event record becomes its dict here, once."""
        events = []
        for i, (t, hop, scope, pkt_id, parent, detail) in enumerate(self.events):
            ev: Dict[str, Any] = {"i": i, "t": t, "hop": hop, "scope": scope}
            if pkt_id is not None:
                ev["pkt"] = pkt_id
            if parent is not None:
                ev["parent"] = parent
            ev.update(detail)
            events.append(ev)
        return {
            "id": self.journey_id,
            "key": f"{self.src_node}:{self.msg_id}",
            "src_node": self.src_node,
            "dst_node": self.dst_node,
            "port": self.port,
            "msg_id": self.msg_id,
            "nbytes": self.nbytes,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "delivered": self.delivered,
            "fragments": self.fragments,
            "retransmits": [dict(r) for r in self.retransmits],
            "events": events,
        }

    def __repr__(self) -> str:
        state = "delivered" if self.delivered else "open"
        return (f"<Journey #{self.journey_id} {self.src_node}->{self.dst_node} "
                f"msg={self.msg_id} {self.nbytes}B {state} "
                f"events={len(self.events)}>")


class JourneyRecorder:
    """Collects journeys for one simulation run.

    Journey ids and event indexes are assigned in simulated-event order
    from per-recorder counters, so two same-seed runs produce
    byte-identical journey exports (nothing process-global to reset).
    The recorder observes only: it never schedules events, never sleeps,
    and never mutates packets.
    """

    def __init__(self, env: Any):
        self.env = env
        #: journeys by key, insertion (begin) order
        self._journeys: Dict[Tuple[int, int], Journey] = {}
        self._next_id = 1
        #: packet_id -> (journey, index of its first tx_queue event)
        self._pkt_tx: Dict[int, Tuple[Journey, Optional[int]]] = {}
        #: packet_id -> kind of the most recent retransmit decision
        self._retx_kind: Dict[int, str] = {}

    # -- lifecycle (called from the CLIC module) -------------------------
    def begin(self, src_node: int, msg_id: int, dst_node: int, port: int,
              nbytes: int, scope: str) -> Journey:
        """Open a journey at the send call; records the ``send`` event."""
        journey = Journey(self._next_id, src_node, dst_node, port, nbytes=nbytes,
                          msg_id=msg_id, start_ns=self.env.now)
        self._next_id += 1
        self._journeys[(src_node, msg_id)] = journey
        self._event(journey, "send", scope, dst=dst_node, nbytes=nbytes)
        return journey

    def fragment(self, pkt: Any, scope: str) -> None:
        """One ``fragment_plan()`` piece entered the send window."""
        journey = self._journeys.get(packet_key(pkt))
        if journey is None:
            return
        journey.fragments += 1
        self._event(journey, "fragment", scope, pkt_id=pkt.packet_id,
                    seq=pkt.seq, offset=pkt.frag_offset, nbytes=pkt.frag_bytes)
        self._pkt_tx[pkt.packet_id] = (journey, None)

    def tx(self, pkt: Any, scope: str, accepted: bool) -> None:
        """A transmission attempt of ``pkt`` reached the driver.

        The first attempt anchors the fragment's transmission; every
        later attempt is a retransmission and is linked as a *child* of
        the original (``parent`` = the first ``tx_queue`` event index,
        ``kind`` = the reliability layer's reason, noted by
        :meth:`note_retransmit`).
        """
        journey = self._journeys.get(packet_key(pkt))
        if journey is None:
            return
        pkt_id = pkt.packet_id
        entry = self._pkt_tx.get(pkt_id)
        first_tx = entry[1] if entry is not None else None
        if first_tx is None:
            i = self._event(journey, "tx_queue", scope, pkt_id=pkt_id,
                            seq=pkt.seq, accepted=accepted)
            self._pkt_tx[pkt_id] = (journey, i)
            return
        kind = self._retx_kind.get(pkt_id, "unknown")
        self._event(journey, "tx_queue", scope, pkt_id=pkt_id,
                    parent=first_tx, seq=pkt.seq, accepted=accepted, kind=kind)
        journey.retransmits.append(
            {"pkt": pkt_id, "kind": kind, "t": self.env.now, "parent": first_tx})

    def hop(self, payload: Any, hop: str, scope: str, **detail: Any) -> None:
        """Record a generic hop for the packet carried by ``payload``.

        ``payload`` may be the packet itself or a wrapper with a
        ``.payload`` attribute (NIC fragmentation-offload markers);
        payloads without message identity are ignored.  Called per frame
        per hop, so :func:`packet_key` and :meth:`_event` are inlined.
        """
        pkt = payload
        msg_id = getattr(pkt, "msg_id", None)
        src = None if msg_id is None else getattr(pkt, "src_node", None)
        if src is None:
            pkt = getattr(payload, "payload", None)
            if pkt is None:
                return
            msg_id = getattr(pkt, "msg_id", None)
            if msg_id is None:
                return
            src = getattr(pkt, "src_node", None)
            if src is None:
                return
        journey = self._journeys.get((src, msg_id))
        if journey is None:
            return
        journey.events.append((self.env.now, hop, scope,
                               getattr(pkt, "packet_id", None), None, detail))

    def deliver(self, pkt: Any, scope: str, **detail: Any) -> None:
        """The message completed reassembly: close the journey."""
        journey = self._journeys.get(packet_key(pkt))
        if journey is None:
            return
        self._event(journey, "deliver", scope,
                    pkt_id=getattr(pkt, "packet_id", None), **detail)
        journey.delivered = True
        journey.end_ns = self.env.now

    def note_retransmit(self, pkt: Any, kind: str) -> None:
        """Reliability-layer decision: ``pkt`` will be re-emitted
        (``kind`` is ``"fast"``, ``"partial_ack"`` or ``"rto"``); the
        next ``tx`` of the packet becomes a genealogy child with this
        kind."""
        pkt_id = getattr(pkt, "packet_id", None)
        if pkt_id is not None:
            self._retx_kind[pkt_id] = kind

    # -- internals -------------------------------------------------------
    def _event(self, journey: Journey, hop: str, scope: str,
               pkt_id: Optional[int] = None, parent: Optional[int] = None,
               **detail: Any) -> int:
        """Append one event record; returns its in-journey index."""
        events = journey.events
        events.append((self.env.now, hop, scope, pkt_id, parent, detail))
        return len(events) - 1

    # -- queries ---------------------------------------------------------
    @property
    def journeys(self) -> List[Journey]:
        """Every journey in begin order."""
        return list(self._journeys.values())

    def get(self, src_node: int, msg_id: int) -> Optional[Journey]:
        """The journey of message ``msg_id`` from ``src_node``."""
        return self._journeys.get((src_node, msg_id))

    def delivered(self) -> List[Journey]:
        """Completed journeys in begin order."""
        return [j for j in self._journeys.values() if j.delivered]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Every journey as its plain-dict export form."""
        return [j.to_dict() for j in self._journeys.values()]

    def __len__(self) -> int:
        return len(self._journeys)

    def __repr__(self) -> str:
        done = sum(1 for j in self._journeys.values() if j.delivered)
        return f"<JourneyRecorder {len(self._journeys)} journeys ({done} delivered)>"
