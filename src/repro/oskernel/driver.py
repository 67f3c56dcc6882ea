"""The vendor NIC driver — deliberately *unmodified*.

CLIC's distinguishing design constraint (§1, §5): the protocol must work
with stock drivers, unlike GAMMA which patches them.  The driver model
therefore only does what a 2003 vendor driver does:

* **transmit** — fill a ring descriptor from an ``SK_BUFF`` (possibly
  scatter/gather over user pages) and tell the protocol module whether
  the send was accepted (ring full -> CLIC stages in system memory);
* **receive** — in interrupt context, allocate an ``sk_buff``, keep the
  CPU captive while the frame's bytes cross PCI into system memory, then
  hand the buffer to the registered protocol through the bottom halves.

The Figure 8(b) *direct dispatch* variant (kernel flag
``direct_rx_dispatch``) models the paper's proposed improvement: the
driver calls the protocol module in-line from the handler, skipping the
sk_buff staging and the bottom-half hop.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import DriverParams
from ..hw.cpu import PRIO_IRQ, PRIO_KERNEL
from ..hw.nic import MacAddress, Nic, TxDescriptor
from .kernel import Kernel
from .skbuff import SYSTEM_MEMORY, SkBuff

__all__ = ["VendorDriver"]


def _pkt_id(payload) -> Optional[int]:
    return getattr(payload, "packet_id", None)


class VendorDriver:
    """Stock driver for one NIC on one node."""

    def __init__(self, kernel: Kernel, nic: Nic, params: DriverParams, name: str = "eth0"):
        self.kernel = kernel
        self.nic = nic
        self.params = params
        self.name = name
        self.counters = kernel.metrics.tallies(name)
        self._irq_frames = None  # frames per interrupt, registered on first use
        #: shares the kernel's tracer so driver spans nest with kernel ones
        self.tracer = kernel.tracer
        if nic.rx_deliver == "irq-pull":
            nic.irq_callback = self._on_irq

    # ------------------------------------------------------------------
    # transmit
    # ------------------------------------------------------------------
    def transmit(self, skb: SkBuff, dst: MacAddress, ethertype: int) -> Generator:
        """Try to hand ``skb`` to the NIC; returns True if accepted.

        Runs in the caller's (kernel) context; charges the driver's tx
        entry cost either way — a full ring is discovered *inside* the
        driver (§3.1: "the driver ... finishes indicating to _MODULE if
        it is possible or not to send the data").
        """
        # A flow-mode train skb carries a batch payload (anything with a
        # ``frames`` count): charge k driver-entry costs in one CPU
        # slice and post one k-wide descriptor.
        train_frames = getattr(skb.payload, "frames", 1)
        yield from self.kernel.cpu.execute(
            self.params.tx_call_ns * train_frames, PRIO_KERNEL, label="drv_tx"
        )
        nbytes = skb.total_bytes()
        desc = TxDescriptor(
            dst=dst,
            ethertype=ethertype,
            payload_bytes=nbytes,
            payload=skb.payload,
            from_user_memory=skb.is_zero_copy,
            train_frames=train_frames,
        )
        accepted = self.nic.try_post_tx(desc)
        if accepted:
            self.counters["tx_accepted"] += train_frames
            if self.tracer.enabled:
                self.tracer.instant(self.name, "driver_tx",
                                    pkt=_pkt_id(skb.payload), nbytes=nbytes)
        else:
            self.counters["tx_ring_busy"] += 1
        return accepted

    # ------------------------------------------------------------------
    # receive (interrupt context)
    # ------------------------------------------------------------------
    def _on_irq(self) -> None:
        self.kernel.irq.raise_irq(self._irq_handler, label=f"{self.name}.rx")

    def _irq_handler(self) -> Generator:
        env = self.kernel.env
        cpu = self.kernel.cpu
        direct = self.kernel.params.direct_rx_dispatch
        self.counters["rx_irqs"] += 1
        irq_span = self.tracer.begin(self.name, "irq", direct=direct)
        yield from cpu.execute(self.params.irq_overhead_ns, PRIO_IRQ, label="drv_irq")
        drained = 0
        while self.nic.rx_pending() and drained < self.params.rx_budget_per_irq:
            k = self.nic.peek_rx().train_frames
            if drained + k > self.params.rx_budget_per_irq:
                # A train drains whole or not at all; leave it pending and
                # let ``service_done`` schedule the next IRQ round.
                break
            t0 = env.now
            frame_span = self.tracer.begin(self.name, "rx_frame")
            if not direct:
                # Stock path: allocate the sk_buff (a train charges its k
                # per-frame costs in one CPU slice); the bytes then move
                # NIC -> system memory with the CPU captive, and the
                # protocol work is deferred to a bottom half.  Figure
                # 8(b) skips the staging: the DMA lands where the module
                # directs (user memory if a receiver waits) and the
                # module runs in-line from the handler.
                yield from cpu.execute(self.params.rx_per_frame_ns * k, PRIO_IRQ, label="drv_rx_skb")
            frame = yield from cpu.occupy(self.nic.dma_frame_to_host(), PRIO_IRQ, label="drv_rx_dma")
            if self.tracer.hop_log is not None:
                self.tracer.hop(frame.payload, "irq", self.name, direct=direct)
            skb = SkBuff(
                payload_bytes=frame.payload_bytes,
                fragments=[(SYSTEM_MEMORY, frame.payload_bytes)] if frame.payload_bytes else [],
                payload=frame.payload,
                direct_delivery=direct,
            )
            if self.tracer.enabled:
                pkt = _pkt_id(frame.payload)
                frame_span.end(pkt=pkt, nbytes=frame.payload_bytes)
                self.tracer.instant(self.name, "driver_rx",
                                    pkt=pkt, t0=t0, nbytes=frame.payload_bytes)
            if direct:
                yield from self.kernel.direct_rx(frame.ethertype, skb)
            else:
                self.kernel.deliver_rx(frame.ethertype, skb, in_irq_context=True)
            drained += k
        self.counters["rx_frames"] += drained
        irq_span.end(drained=drained)
        if self._irq_frames is None:
            self._irq_frames = self.kernel.metrics.histogram(f"{self.name}.irq_frames")
        self._irq_frames.record(drained)
        self.nic.irq_service_done()
