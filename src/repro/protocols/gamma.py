"""GAMMA-style active ports (comparator, §3.2 / §5).

GAMMA (Genoa Active Message MAchine) is the closest rival in the paper's
conclusions: slightly better latency (9.5–32 µs) and bandwidth
(768–824 Mb/s) than CLIC, bought by *modifying the NIC driver*:

* **lightweight traps** instead of full syscalls — and crucially, no
  scheduler pass on the way back to user mode (§3.2(a));
* receive handled **entirely in the interrupt handler** of the patched
  driver, which lands data straight in the destination user buffer —
  no ``sk_buff`` staging, no bottom-half hop, no extra copy;
* no kernel-level retransmission machinery (the original relied on the
  LAN being loss-free; our model does the same and counts any overflow
  drops as message loss — see the fault-injection tests).

The cost of this speed is exactly what the paper says CLIC refuses to
pay: the stack is tied to specific NICs/drivers.  In the simulator this
shows up as the NIC running in ``push`` receive mode, which a stock
driver does not support.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..config import GammaParams
from ..hw.cpu import PRIO_IRQ, PRIO_KERNEL
from ..hw.nic import EtherType, Frame, TxDescriptor
from ..oskernel import SkBuff, UserProcess
from ..sim import Event
from .headers import GammaPacket, Reassembly, fragment_plan, reassembled

__all__ = ["GammaLayer", "GammaPort", "GammaMessage"]

_msg_ids = itertools.count(1)


@dataclass
class GammaMessage:
    src_node: int
    port: int
    nbytes: int
    msg_id: int
    payload: Any = None


class GammaPort:
    """An active port: arrival state + at most one blocked receiver."""

    def __init__(self) -> None:
        self.ready: List[GammaMessage] = []
        self.waiters: List[Event] = []


class GammaLayer:
    """GAMMA engine for one node (requires push-mode NICs)."""

    def __init__(self, node):
        self.node = node
        self.env = node.env
        self.params: GammaParams = node.cfg.gamma
        self.kernel = node.kernel
        self.counters = Counter()
        self._ports: Dict[int, GammaPort] = {}
        self._assembling: Dict[Tuple[int, int], Reassembly] = {}
        nic = node.nics[0]
        if nic.rx_deliver != "push":
            raise RuntimeError(
                "GAMMA needs its modified driver (build the cluster with "
                "protocols=('gamma',) so NICs run in push mode)"
            )
        nic.push_callback = self._on_push

    def port(self, number: int) -> GammaPort:
        """The active port's state record (created on first use)."""
        state = self._ports.get(number)
        if state is None:
            state = self._ports[number] = GammaPort()
        return state

    def max_fragment(self) -> int:
        """User bytes per frame: MTU minus the GAMMA header."""
        return self.node.mtu() - self.params.header_bytes

    # -- send -------------------------------------------------------------
    def send(self, dst_node: int, port: int, nbytes: int, payload: Any = None) -> Generator:
        """Lightweight-trap send; fragments pulled 0-copy from user memory."""

        def body() -> Generator:
            msg_id = next(_msg_ids)
            frag_max = self.max_fragment()
            nic = self.node.nics[0]
            for offset, frag in fragment_plan(nbytes, frag_max):
                yield from self.kernel.cpu.execute(
                    self.params.port_tx_ns, PRIO_KERNEL, label="gamma_tx"
                )
                pkt = GammaPacket(
                    src_node=self.node.node_id,
                    dst_node=dst_node,
                    port=port,
                    msg_id=msg_id,
                    frag_offset=offset,
                    frag_bytes=frag,
                    msg_bytes=nbytes,
                    payload=payload,
                )
                desc = TxDescriptor(
                    dst=self.node.mac_of(dst_node, 0),
                    ethertype=EtherType.GAMMA,
                    payload_bytes=self.params.header_bytes + frag,
                    payload=pkt,
                    from_user_memory=True,
                )
                yield nic.post_tx(desc)  # blocking on ring space
            self.counters["msgs_sent"] += 1
            self.counters["bytes_sent"] += nbytes
            return msg_id

        result = yield from self.kernel.lightweight_call(body(), label="gamma_send")
        return result

    # -- receive (interrupt context, modified driver) -------------------------
    def _on_push(self, frame: Frame) -> None:
        self.kernel.irq.raise_irq(lambda frame=frame: self._rx_handler(frame), label="gamma.rx")

    def _rx_handler(self, frame: Frame) -> Generator:
        pkt: GammaPacket = frame.payload
        yield from self.kernel.cpu.execute(self.params.port_rx_ns, PRIO_IRQ, label="gamma_rx")
        # Data was DMA'd directly into the destination user buffer by the
        # patched driver: no further copy.
        key = (pkt.src_node, pkt.msg_id)
        acc = self._assembling.get(key)
        if acc is None:
            acc = self._assembling[key] = Reassembly(msg_bytes=pkt.msg_bytes, payload=pkt.payload)
        acc.received += pkt.frag_bytes
        if not reassembled(acc, pkt):
            return
        del self._assembling[key]
        msg = GammaMessage(
            src_node=pkt.src_node,
            port=pkt.port,
            nbytes=pkt.msg_bytes,
            msg_id=pkt.msg_id,
            payload=acc.payload,
        )
        self.counters["msgs_rx"] += 1
        state = self.port(pkt.port)
        if state.waiters:
            state.waiters.pop(0).succeed(msg)
        else:
            state.ready.append(msg)

    # -- recv -------------------------------------------------------------
    def recv(self, port: int) -> Generator:
        """Blocking receive on an active port (lightweight trap + wait)."""

        def body() -> Generator:
            state = self.port(port)
            if state.ready:
                return state.ready.pop(0)
            event = self.env.event()
            state.waiters.append(event)
            msg = yield event  # GAMMA wake path skips the full scheduler
            return msg

        msg = yield from self.kernel.lightweight_call(body(), label="gamma_recv")
        return msg
