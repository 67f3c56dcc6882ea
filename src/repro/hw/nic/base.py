"""The network interface card.

Models an SMC9462TX / 3C996-T-class Gigabit Ethernet adapter:

* **tx**: the driver posts descriptors into a bounded tx ring; the NIC's
  transmit pump DMAs the bytes across PCI as *bus master* (directly from
  user pages when the descriptor is scatter/gather — the paper's 0-copy
  path #2 — or from kernel staging memory otherwise), charges firmware
  per-frame processing, and serializes the frame onto the link;
* **rx**: arriving frames occupy bounded on-card buffer slots (overflow
  drops are counted — this is what the protocols' reliability layer must
  survive); the coalescer asserts the host IRQ; by default the *driver*
  then moves each frame to host memory across PCI inside the interrupt
  context — exactly the 15 µs receive stage of the paper's Figure 7(a);
* **push mode** (``rx_deliver="push"``): the NIC itself DMAs arriving
  frames straight to pre-posted host buffers and invokes a host callback
  per frame — the modified-driver behaviour GAMMA relies on and the
  completion-queue behaviour VIA relies on;
* optional **fragmentation offload** (paper §2, declined for CLIC to
  preserve driver portability; implemented here as the paper's
  future-work option): descriptors larger than the MTU are split into
  MTU-sized frames by NIC firmware, and received fragments of one packet
  are reassembled on-card before being handed to the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Generator, List, Optional

from typing import TYPE_CHECKING

from ...config import LinkParams, NicParams
from ...obs import MetricsRegistry, Tracer
from ...sim import Environment, Store
from ...sim.core import URGENT
from ..pci import PciBus

if TYPE_CHECKING:  # pragma: no cover - import cycle: link.py needs frames.py
    from ..link import Channel
from .frames import EtherType, Frame, MacAddress, split_train
from .interrupts import InterruptCoalescer

__all__ = ["TxDescriptor", "Nic"]

_desc_ids = itertools.count(1)


@dataclass(slots=True)
class TxDescriptor:
    """One transmit request handed to the NIC by the driver."""

    dst: MacAddress
    ethertype: int
    payload_bytes: int
    payload: Any = None
    #: scatter/gather straight from user memory (0-copy) vs kernel staging
    from_user_memory: bool = False
    desc_id: int = field(default_factory=lambda: next(_desc_ids))
    #: flow-mode batch width: this descriptor stands for ``k`` equal-size
    #: frames (``payload_bytes`` is the train total; see repro.sim.flowmode)
    train_frames: int = 1


class Nic:
    """A Gigabit Ethernet adapter on one node's PCI bus."""

    def __init__(
        self,
        env: Environment,
        params: NicParams,
        link_params: LinkParams,
        pci: PciBus,
        mac: MacAddress,
        name: str = "nic",
        rx_deliver: str = "irq-pull",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if rx_deliver not in ("irq-pull", "push"):
            raise ValueError(f"unknown rx_deliver mode {rx_deliver!r}")
        self.env = env
        self.params = params
        self.link_params = link_params
        self.pci = pci
        self.mac = mac
        self.name = name
        self.rx_deliver = rx_deliver
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = self.metrics.tallies(name)
        self.tracer = tracer if tracer is not None else Tracer(env)
        #: PCI counter labels of the per-frame DMAs
        self._tx_label = f"{name}.tx"
        self._rx_label = f"{name}.rx"
        #: frames waiting on-card for the driver (high-water via gauge)
        self._rx_depth_gauge = self.metrics.gauge(f"{name}.rx_buffer_depth")

        self._tx_ring: Store = Store(env, capacity=params.tx_ring_slots, name=f"{name}.txring")
        self._rx_buffer: List[Frame] = []  # bounded by rx_ring_slots
        #: rx-buffer occupancy in *frame* units (a flow-mode train entry
        #: occupies ``train_frames`` ring descriptors) — equals
        #: ``len(_rx_buffer)`` whenever no train is buffered
        self._rx_occ = 0
        #: ring descriptors claimed by frames still in rx processing
        #: (admitted, not yet in ``_rx_buffer``) — coincident arrivals
        #: (duplicated/jittered frames) must not overshoot the ring
        self._rx_claimed = 0
        #: highest rx-buffer occupancy ever observed (overrun accounting)
        self.rx_buffer_peak = 0
        self._rx_peak_gauge = None  # registered on first use
        self._tx_channel: Optional["Channel"] = None

        #: host-side IRQ trampoline, installed by the driver
        self.irq_callback: Optional[Callable[[], None]] = None
        #: push-mode per-frame host callback (GAMMA/VIA)
        self.push_callback: Optional[Callable[[Frame], None]] = None

        self.coalescer = InterruptCoalescer(env, params, self._assert_irq, name=f"{name}.coalesce")
        #: on-card tx FIFO: decouples host-side DMA from wire serialization
        self._tx_fifo: Store = Store(env, capacity=params.tx_fifo_frames, name=f"{name}.txfifo")
        env.spawn(self._tx_pump(), name=f"{name}.txpump")
        env.spawn(self._wire_pump(), name=f"{name}.wirepump")

        # On-NIC reassembly state for fragmentation offload.
        self._reassembly: dict = {}
        #: NIC-resident collective engine (lazily built; None until the
        #: MPI layer opts in — the rx fast path stays a None check)
        self._collective = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def collective_engine(self):
        """The on-card collective engine, built on first use."""
        if self._collective is None:
            from .collective import CollectiveEngine

            self._collective = CollectiveEngine(self)
        return self._collective

    def attach_tx(self, channel: "Channel") -> None:
        """Connect the NIC's transmit side to a link channel."""
        if self._tx_channel is not None:
            raise RuntimeError(f"{self.name} tx already attached")
        self._tx_channel = channel

    def receive_frame(self, frame: Frame) -> None:
        """Link-side entry point: a frame has fully arrived (channel sink)."""
        k = frame.train_frames
        self.counters["rx_frames"] += k
        self.counters["rx_bytes"] += frame.payload_bytes
        per_payload = frame.payload_bytes // k
        if per_payload > self.params.effective_mtu():
            # Jumbo interoperability (paper §2: "both communicating
            # computers have to use Jumbo frames"): an oversized frame is
            # dropped by a standard-MTU receiver.
            self.counters["rx_oversize_drops"] += k
            if self.tracer.hop_log is not None:
                self.tracer.hop(frame.payload, "nic_drop", self.name, reason="oversize")
            return
        if self._collective is not None and self._collective.match(frame):
            # Collective frames are combined/forwarded on-card: they
            # never take a ring slot, never feed the coalescer, and
            # never raise an IRQ — the host only sees the completion.
            self._collective.on_frame(frame)
            return
        if k > 1 and self._rx_occ + self._rx_claimed + k > self.params.rx_ring_slots:
            # Mid-flight ring shortfall: the train cannot occupy k slots
            # as one unit, so materialize it and admit frame by frame —
            # partial admission and per-frame drops stay exact.
            for sub in split_train(frame):
                self._admit(sub)
            return
        self._admit(frame)

    def _admit(self, frame: Frame) -> None:
        """Ring admission for one (possibly train) frame; counts drops."""
        k = frame.train_frames
        tracer = self.tracer
        if self._rx_occ + self._rx_claimed + k > self.params.rx_ring_slots:
            self.counters["rx_drops"] += k
            if tracer.hop_log is not None:
                tracer.hop(frame.payload, "nic_drop", self.name, reason="overflow")
            return
        if tracer.hop_log is not None:
            tracer.hop(frame.payload, "nic_rx", self.name,
                       nbytes=frame.payload_bytes)
        self._rx_claimed += k  # hardware claims the descriptor(s) at arrival
        if self.rx_deliver == "push":
            self.env.spawn(self._rx_push(frame), name=f"{self.name}.rx")
        elif self.env._tail():
            # ``_rx_begin`` (which opens the span) runs where a process
            # spawned now would start: admission ends a timer callback
            # (a split train admits its frames in order), so that
            # zero-delay URGENT start entry would pop next with nothing
            # run before it (the guard of Environment.tail_hop).
            self._rx_begin(frame)
        else:
            self.env.call_later(0, partial(self._rx_begin, frame), URGENT)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def tx_ring_space(self) -> int:
        """Free descriptor slots (the driver checks before posting)."""
        return self.params.tx_ring_slots - len(self._tx_ring.items)

    def try_post_tx(self, desc: TxDescriptor) -> bool:
        """Post a descriptor if the ring has room; False when full.

        The *driver* indicates to the protocol module whether the send is
        possible right now (paper §3.1) — when not, CLIC stages the data
        in system memory and retries later.
        """
        if self.tx_ring_space() <= 0:
            self.counters["tx_ring_full"] += 1
            return False
        self._effective_mtu_check(desc)
        self._tx_ring.put_nowait(desc)
        return True

    def post_tx(self, desc: TxDescriptor):
        """Blocking post: event that triggers once the descriptor is queued."""
        self._effective_mtu_check(desc)
        return self._tx_ring.put(desc)

    def _effective_mtu_check(self, desc: TxDescriptor) -> None:
        mtu = self.params.effective_mtu()
        # A train is k equal-size frames: the MTU bound applies to each
        # constituent frame, not the batch total.
        nbytes = desc.payload_bytes // desc.train_frames
        if nbytes > mtu and not self.params.supports_fragmentation:
            raise ValueError(
                f"descriptor of {desc.payload_bytes} B exceeds MTU {mtu} and "
                f"{self.name} has no fragmentation offload — the protocol "
                "module must fragment in software"
            )

    def _tx_pump(self) -> Generator:
        """Serve the tx ring.  A descriptor is ``k = train_frames`` equal
        frames (``k > 1``: a flow-mode train): one DMA burst of ``k``
        setups, ``k`` frames of firmware time and one FIFO entry, equal
        to ``k`` per-frame passes.  A train whose hop the flow
        controller proves clear takes the analytic lane instead."""
        while True:
            desc: TxDescriptor = yield self._tx_ring.get()
            span = self.tracer.begin(self.name, "nic_tx", nbytes=desc.payload_bytes)
            k = desc.train_frames
            if k > 1:
                flow = self.env.flow
                route = (flow.hop_route(self, desc.dst)
                         if flow is not None else None)
                if route is not None and not self._tx_fifo.items and route.hop_clear():
                    # Analytic lane, a fork because it schedules
                    # differently: pay the *head* frame's DMA inline (the
                    # PCI grant paces back-to-back trains as k per-frame
                    # transfers would) and hold the bus for the other k-1
                    # in the background, so utilization and cadence stay
                    # exact while the head lands at the cut-through time;
                    # the receive side drains the k frames fully
                    # simulated, overlapping that DMA as the packets would.
                    per_frame = desc.payload_bytes // k
                    yield from self.pci.dma(per_frame, priority=2,
                                            label=self._tx_label)
                    self.env.spawn(
                        self.pci.dma(desc.payload_bytes - per_frame,
                                     priority=2, label=self._tx_label,
                                     transactions=k - 1),
                        name=f"{self.name}.txdma",
                    )
                    yield self.env.timeout(self.params.frame_processing_ns)
                    frame = Frame(
                        src=self.mac,
                        dst=desc.dst,
                        ethertype=desc.ethertype,
                        payload_bytes=desc.payload_bytes,
                        payload=desc.payload,
                        train_frames=k,
                    )
                    if desc.from_user_memory:
                        self.counters["tx_zero_copy"] += k
                    self.counters["tx_frames"] += k
                    self.counters["tx_bytes"] += desc.payload_bytes
                    route.carry(frame)
                    span.end(frames=k, analytic=True)
                    continue
            # Bus-master DMA: fetch the payload (plus headers) across PCI.
            yield from self.pci.dma(desc.payload_bytes, priority=2,
                                    label=self._tx_label, transactions=k)
            if self.tracer.hop_log is not None:
                self.tracer.hop(desc.payload, "nic_dma", self.name,
                                nbytes=desc.payload_bytes)
            mtu = self.params.effective_mtu()
            if k > 1 or desc.payload_bytes <= mtu:
                # One frame, or one train of k frames (never split).
                pieces = [(desc.payload_bytes, desc.payload, True)]
            else:
                # Fragmentation offload: firmware splits into MTU frames.
                pieces = []
                remaining = desc.payload_bytes
                while remaining > 0:
                    take = min(mtu, remaining)
                    remaining -= take
                    pieces.append((take, desc.payload, remaining == 0))
                self.counters["tx_offload_fragmented"] += 1
            for nbytes, payload, last in pieces:
                yield self.env.timeout(self.params.frame_processing_ns * k)
                frame = Frame(
                    src=self.mac,
                    dst=desc.dst,
                    ethertype=desc.ethertype,
                    payload_bytes=nbytes,
                    payload=payload,
                    train_frames=k,
                )
                if len(pieces) > 1:
                    frame.payload = _FragmentMarker(desc.desc_id, payload, last=last)
                yield self._tx_fifo.put(frame)
            if desc.from_user_memory:
                self.counters["tx_zero_copy"] += k
            span.end(frames=k * len(pieces))

    def _wire_pump(self) -> Generator:
        """Drain the on-card FIFO onto the wire (overlaps host DMA)."""
        while True:
            frame = yield self._tx_fifo.get()
            yield from self._tx_channel.transmit(frame)
            if self.tracer.hop_log is not None:
                self.tracer.hop(frame.payload, "wire", self.name,
                                nbytes=frame.payload_bytes)
            self.counters["tx_frames"] += frame.train_frames
            self.counters["tx_bytes"] += frame.payload_bytes

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _rx_reassemble(self, frame: Frame, span) -> Optional[Frame]:
        """Firmware fragment handling once a frame is processed on-card:
        the frame to hand up, or ``None`` when it was absorbed into a
        partial reassembly.

        A received frame is never rewritten: a duplication fault delivers
        the same ``Frame`` object more than once, and every copy must
        reach the NIC as it left the wire.  A fragment goes up as a
        fresh frame.
        """
        marker = frame.payload
        if not isinstance(marker, _FragmentMarker):
            return frame
        if self.params.supports_fragmentation:
            # On-NIC reassembly: accumulate, deliver once complete.
            acc = self._reassembly.setdefault(marker.desc_id, [0])
            acc[0] += frame.payload_bytes
            if not marker.last:
                self._rx_claimed -= 1  # fragment consumed on-card
                span.end(reassembling=True)
                return None
            nbytes = acc[0]
            del self._reassembly[marker.desc_id]
            self.counters["rx_offload_reassembled"] += 1
        else:
            # Fragments but no offload on this side: hand up as-is; the
            # protocol module deals with it (interop corner, counted).
            nbytes = frame.payload_bytes
            self.counters["rx_fragment_no_offload"] += 1
        return Frame(src=frame.src, dst=frame.dst, ethertype=frame.ethertype,
                     payload_bytes=nbytes, payload=marker.payload)

    def _rx_push(self, frame: Frame) -> Generator:
        """Push mode: process on-card, then DMA to host and call back."""
        span = self.tracer.begin(self.name, "nic_rx", nbytes=frame.payload_bytes)
        k = frame.train_frames
        yield self.env.timeout(self.params.frame_processing_ns * k)
        frame = self._rx_reassemble(frame, span)
        if frame is None:
            return
        # NIC pushes straight to host memory, then tells the host.
        yield from self.pci.dma(frame.payload_bytes, priority=2, label=f"{self.name}.rxpush")
        self._rx_claimed -= k  # descriptor recycled after the push
        if self.push_callback is not None:
            self.push_callback(frame)
        span.end(pushed=True)

    def _rx_begin(self, frame: Frame) -> None:
        """irq-pull mode, first half: start on-card processing."""
        # Begun outside any process, the span takes a stack of its own
        # (no parent, no children), keyed by a fresh object: unique per
        # admission even when a duplicated frame arrives twice at once.
        span = self.tracer.begin(self.name, "nic_rx", owner=object(),
                                 nbytes=frame.payload_bytes)
        self.env.call_later(self.params.frame_processing_ns * frame.train_frames,
                            partial(self._rx_buffer_frame, frame, span))

    def _rx_buffer_frame(self, frame: Frame, span) -> None:
        """irq-pull mode, second half: park the frame for the driver and
        feed the interrupt coalescer."""
        frame = self._rx_reassemble(frame, span)
        if frame is None:
            return
        k = frame.train_frames
        self._rx_claimed -= k  # claimed -> buffered
        self._rx_occ += k
        self._rx_buffer.append(frame)
        self._rx_depth_gauge.set(self._rx_occ)
        # Receiver-overrun accounting: the high-water mark the bounded-
        # memory invariant audits against ``rx_ring_slots``.
        if self._rx_occ > self.rx_buffer_peak:
            self.rx_buffer_peak = self._rx_occ
            if self._rx_peak_gauge is None:
                self._rx_peak_gauge = self.metrics.gauge(f"{self.name}.rx_buffer_peak")
            self._rx_peak_gauge.set(self.rx_buffer_peak)
        span.end()
        self.coalescer.note_frame(k)

    def _assert_irq(self) -> None:
        self.counters["irqs_asserted"] += 1
        if self.irq_callback is None:
            raise RuntimeError(f"{self.name}: IRQ asserted but no driver installed")
        self.irq_callback()

    # -- driver-facing rx services (irq-pull mode) -------------------------
    def rx_pending(self) -> int:
        """Ring entries waiting on-card for the driver (a train is one)."""
        return len(self._rx_buffer)

    def rx_headroom(self) -> int:
        """Free rx descriptors right now (flow-mode admission check)."""
        return self.params.rx_ring_slots - self._rx_occ - self._rx_claimed

    def peek_rx(self) -> Optional[Frame]:
        """The oldest pending rx frame without removing it (or None)."""
        return self._rx_buffer[0] if self._rx_buffer else None

    def dma_frame_to_host(self) -> Generator:
        """Driver-side: move the oldest pending frame to host memory.

        Charges the PCI transfer (one burst of ``train_frames``
        descriptor setups for a flow-mode train); the *caller* (the
        driver, in interrupt context) stays busy for its own per-frame
        costs.  Returns the :class:`Frame`.
        """
        if not self._rx_buffer:
            raise RuntimeError(f"{self.name}: no pending rx frame")
        frame = self._rx_buffer.pop(0)
        self._rx_occ -= frame.train_frames
        self._rx_depth_gauge.set(self._rx_occ)
        yield from self.pci.dma(frame.payload_bytes, priority=2,
                                label=self._rx_label,
                                transactions=frame.train_frames)
        return frame

    def irq_service_done(self) -> None:
        """Driver-side: drain finished; re-arm coalescing for the frames
        still pending (``_rx_occ`` counts a train as its ``k`` frames)."""
        self.coalescer.service_done(self._rx_occ)


@dataclass
class _FragmentMarker:
    """Payload wrapper for NIC-offload fragments on the wire."""

    desc_id: int
    payload: Any
    last: bool = False
