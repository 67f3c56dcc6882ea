"""Channel-event recording for the invariant harness.

:class:`ProbeRecorder` implements the
:class:`~repro.protocols.reliability.ChannelProbe` observer interface
and keeps, per sender/receiver channel, an *ordered* event log plus the
compact aggregates the invariant checker consumes.  The recorder never
touches channel or simulation state — a run with and without it is
bit-identical (the probe contract).

Logs are plain lists of plain tuples so a finished run can be reduced
to a JSON-able :mod:`record <repro.validate.invariants>` and so unit
tests can fabricate logs directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..protocols.reliability import ChannelProbe, OrderedReceiver, WindowedSender

__all__ = ["ProbeRecorder", "SenderLog", "ReceiverLog"]


class SenderLog:
    """Ordered event log of one :class:`WindowedSender`."""

    def __init__(self, sender: WindowedSender):
        self.sender = sender
        self.name = sender.name
        #: ordered events, each a tuple whose head is the event kind:
        #: ("register", seq) / ("ack", base_before, cum) / ("rtt", seq,
        #: rtt_ns) / ("retx", kind, [seqs]) / ("timeout", before_ns,
        #: after_ns, max_ns) / ("fail", reason)
        self.events: List[Tuple[Any, ...]] = []
        self.registered = 0
        #: highest concurrent occupancy vs. the window bound at that time
        self.max_in_flight = 0
        #: ``(in_flight, window)`` snapshots where occupancy exceeded the
        #: window — must stay empty
        self.window_violations: List[Tuple[int, int]] = []

    def on_register(self, seq: int) -> None:
        """Log one packet registration and audit window occupancy."""
        self.events.append(("register", seq))
        self.registered += 1
        in_flight = self.sender.in_flight
        self.max_in_flight = max(self.max_in_flight, in_flight)
        if in_flight > self.sender.window:
            self.window_violations.append((in_flight, self.sender.window))

    def final_state(self) -> Dict[str, Any]:
        """JSON-able end-of-run snapshot of the live sender."""
        s = self.sender
        return {
            "name": self.name,
            "next_seq": s.next_seq,
            "base": s.base,
            # counted over the sender's runs, so the catalog's
            # ``next_seq == base + in_flight`` checks that they cover
            # exactly the window
            "in_flight": sum(1 for _ in s.unacked()),
            "failed": s.failed,
            "registered": self.registered,
            "max_in_flight": self.max_in_flight,
            "window_violations": [list(v) for v in self.window_violations],
            "events": [list(e) for e in self.events],
        }


class ReceiverLog:
    """Ordered event log of one :class:`OrderedReceiver`."""

    def __init__(self, receiver: OrderedReceiver):
        self.receiver = receiver
        self.name = receiver.name
        self.delivered = 0
        #: sequence numbers in application-delivery order — the
        #: exactly-once / in-order invariants audit this directly
        self.delivered_seqs: List[int] = []
        #: cumulative-ack values in emission order
        self.acks_emitted: List[int] = []

    def final_state(self) -> Dict[str, Any]:
        """JSON-able end-of-run snapshot of the live receiver."""
        return {
            "name": self.name,
            "expected": self.receiver.expected,
            "delivered": self.delivered,
            "delivered_seqs": list(self.delivered_seqs),
            "max_stash": self.receiver.max_stash,
            "stash_limit": self.receiver.stash_limit,
            "acks_emitted": list(self.acks_emitted),
        }


class ProbeRecorder(ChannelProbe):
    """Record every channel event of every sender/receiver built while
    this probe is installed (see
    :func:`~repro.protocols.reliability.install_channel_probe`)."""

    def __init__(self) -> None:
        self.sender_logs: Dict[int, SenderLog] = {}
        self.receiver_logs: Dict[int, ReceiverLog] = {}

    # -- lookup ----------------------------------------------------------
    def for_sender(self, sender: WindowedSender) -> Optional[SenderLog]:
        """The log recorded for ``sender``, or None if unobserved."""
        return self.sender_logs.get(id(sender))

    def for_receiver(self, receiver: OrderedReceiver) -> Optional[ReceiverLog]:
        """The log recorded for ``receiver``, or None if unobserved."""
        return self.receiver_logs.get(id(receiver))

    # -- ChannelProbe ----------------------------------------------------
    def on_sender(self, sender: WindowedSender) -> None:
        """Open a log for a newly constructed sender."""
        self.sender_logs[id(sender)] = SenderLog(sender)

    def on_receiver(self, receiver: OrderedReceiver) -> None:
        """Open a log for a newly constructed receiver."""
        self.receiver_logs[id(receiver)] = ReceiverLog(receiver)

    def on_register(self, sender: WindowedSender, seq: int) -> None:
        """Record ``("register", seq)``."""
        self.sender_logs[id(sender)].on_register(seq)

    def on_ack_applied(self, sender: WindowedSender, base_before: int, cum: int) -> None:
        """Record ``("ack", base_before, cum)``."""
        self.sender_logs[id(sender)].events.append(("ack", base_before, cum))

    def on_rtt_sample(self, sender: WindowedSender, seq: int, rtt_ns: float) -> None:
        """Record ``("rtt", seq, rtt_ns)``."""
        self.sender_logs[id(sender)].events.append(("rtt", seq, rtt_ns))

    def on_retransmit(self, sender: WindowedSender, seqs: List[int], kind: str) -> None:
        """Record ``("retx", kind, seqs)`` — kind is "fast" or "rto"."""
        self.sender_logs[id(sender)].events.append(("retx", kind, list(seqs)))

    def on_timeout(self, sender: WindowedSender, rto_before_ns: float,
                   rto_after_ns: float) -> None:
        """Record ``("timeout", before, after, cap)`` with the estimator cap."""
        max_ns = sender.rto.max_ns if sender.rto is not None else rto_before_ns
        self.sender_logs[id(sender)].events.append(
            ("timeout", rto_before_ns, rto_after_ns, max_ns)
        )

    def on_fail(self, sender: WindowedSender, reason: str) -> None:
        """Record ``("fail", reason)`` — the channel gave up."""
        self.sender_logs[id(sender)].events.append(("fail", reason))

    def on_deliver(self, receiver: OrderedReceiver, seq: int) -> None:
        """Record one delivery (and its sequence) to the upper layer."""
        log = self.receiver_logs[id(receiver)]
        log.delivered += 1
        log.delivered_seqs.append(seq)

    def on_ack_emitted(self, receiver: OrderedReceiver, cum: int) -> None:
        """Record the cumulative-ack value the receiver emitted."""
        self.receiver_logs[id(receiver)].acks_emitted.append(cum)
