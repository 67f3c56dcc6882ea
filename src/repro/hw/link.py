"""Point-to-point Gigabit Ethernet links.

A full-duplex link is two independent :class:`Channel`\\ s, one per
direction.  Each channel serializes frames at the line rate
(including preamble, CRC padding and inter-frame gap) and delivers them
to its sink after the propagation delay.  Fault injection (loss, burst
loss, outages, jitter, duplication, congestion — see
:mod:`repro.faults`) exercises the protocols' reliability machinery.

Counter semantics: ``frames_offered``/``bytes_offered`` count everything
serialized onto the wire (one per transmit, however many copies result);
``frames``/``bytes`` count what is actually *delivered* to the sink —
every copy; ``frames_lost``/``bytes_lost`` count drops from loss
models and outages; ``frames_duplicated``/``bytes_duplicated`` count the
*extra* copies a duplication fault produced.  Offered + duplicated =
delivered + lost, always.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..config import LinkParams
from ..sim import Environment, Server
from .nic.frames import Frame, frame_time_ns

if TYPE_CHECKING:
    from ..faults import ChannelFaults

__all__ = ["Channel"]


class Channel(Server):
    """One direction of a link: serialize, propagate, deliver.

    The wire is an exclusive :class:`~repro.sim.Server`: one frame
    serializes at a time, the others wait in FIFO order.
    """

    def __init__(
        self,
        env: Environment,
        params: LinkParams,
        name: str = "chan",
        faults: Optional[ChannelFaults] = None,
        tracer=None,
    ):
        super().__init__(env)
        self.params = params
        self.name = name
        self._sink: Optional[Callable[[Frame], None]] = None
        self.counters = Counter()
        #: optional :class:`repro.obs.Tracer`; only its hop records are
        #: written (wire drop / duplicate hops)
        self.tracer = tracer
        self.faults = faults

    @property
    def idle(self) -> bool:
        """True when nothing is serializing or queued for the wire.

        The flow-mode engine consults this before advancing a train (or
        an express ack) analytically past the wire: any in-progress or
        queued transmission forces the exact contended path so ordering
        can never invert.  (A frame only queues behind a holder, so an
        idle wire has no holder.)
        """
        return self._holder is None

    def connect(self, sink: Callable[[Frame], None]) -> None:
        """Attach the receiving endpoint (called once per channel)."""
        if self._sink is not None:
            raise RuntimeError(f"channel {self.name} already connected")
        self._sink = sink

    def transmit(self, frame: Frame) -> Generator:
        """Serialize ``frame`` onto the wire (the caller waits for that),
        then deliver it to the sink after propagation.

        A frame is ``k = train_frames`` equal-size frames (``k > 1`` is
        a flow-mode train) and holds the wire ``1/k`` of their summed
        serialization time: cut-through timing, because the slower
        upstream stage (host PCI DMA) paces the train and the wire
        overlaps it; holding it ``k`` frame times would stack latency
        the pipelined packet model does not have.  (Utilization
        under-reports by (k-1)/k per train — a documented flow-mode
        approximation.)
        """
        if self._sink is None:
            raise RuntimeError(f"channel {self.name} has no sink")
        duration = frame_time_ns(frame, self.params) / frame.train_frames
        faults = self.faults
        if faults is not None and faults.has_congestion:
            # Congestion collapses effective bandwidth: the wire is held
            # for a multiple of the healthy serialization time, so every
            # queued successor is pushed out too (the spike cascades).
            duration *= faults.congestion_factor(self.env.now)
        yield from self.hold(duration)
        k = frame.train_frames
        self.counters["frames_offered"] += k
        self.counters["bytes_offered"] += frame.payload_bytes
        if faults is None or k > 1:
            # A flow-mode train only formed because the controller proved
            # both directions quiet over its horizon (no stochastic
            # models, no outage/congestion window), so its verdict is
            # DELIVER with no extras: it skips the per-frame draw.
            self.counters["frames"] += k
            self.counters["bytes"] += frame.payload_bytes
            self.env.tail_hop(self.params.propagation_ns, partial(self._sink, frame))
            return
        decision = faults.decide(self.env.now)
        if decision.dropped:
            self.counters["frames_lost"] += 1
            self.counters["bytes_lost"] += frame.payload_bytes
            tracer = self.tracer
            if tracer is not None and tracer.hop_log is not None:
                tracer.hop(frame.payload, "wire_drop", "wire", link=self.name,
                           reason=decision.verdict.value)
            return
        delay = self.params.propagation_ns + decision.extra_delay_ns
        if faults.has_congestion:
            delay += faults.congestion_latency_ns(self.env.now)
        if decision.copies > 1:
            self.counters["frames_duplicated"] += decision.copies - 1
            self.counters["bytes_duplicated"] += frame.payload_bytes * (decision.copies - 1)
            tracer = self.tracer
            if tracer is not None and tracer.hop_log is not None:
                tracer.hop(frame.payload, "wire_dup", "wire", link=self.name,
                           copies=decision.copies)
        for _ in range(decision.copies):
            self.counters["frames"] += 1
            self.counters["bytes"] += frame.payload_bytes
            self.env.tail_hop(delay, partial(self._sink, frame))
