"""UDP — unreliable datagrams over IP.

Included because the paper positions VIA's reliability situation as
"similar to that of UDP/IP" (§3.2(a)), and because the PVM daemon path
historically used UDP between daemons.  Datagrams larger than the MTU
exercise the IP fragmentation/reassembly machinery.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ...config import TcpIpParams
from ...hw.cpu import PRIO_KERNEL, PRIO_SOFTIRQ
from ...sim import Event
from .ip import IpDatagram, IpLayer

__all__ = ["UdpLayer", "UdpDatagramMsg"]

UDP_HEADER_BYTES = 8
_udp_ids = itertools.count(1)


@dataclass
class UdpDatagramMsg:
    """A UDP message as seen by the application."""

    src_node: int
    port: int
    nbytes: int
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_udp_ids))


class UdpLayer:
    """Per-node UDP: sendto/recvfrom with no delivery guarantees."""

    def __init__(self, node, params: TcpIpParams, ip: IpLayer):
        self.node = node
        self.params = params
        self.ip = ip
        self.counters = Counter()
        self._ports: Dict[int, List[UdpDatagramMsg]] = {}
        self._waiters: Dict[int, List[Event]] = {}

    # -- send (kernel context) ---------------------------------------------------
    def sendto(self, dst_node: int, port: int, nbytes: int, payload: Any = None) -> Generator:
        """Kernel-side datagram transmit (copy, checksum, IP)."""
        kernel = self.node.kernel
        yield from kernel.copy_user_to_system(nbytes)
        cost = (
            self.params.per_segment_tx_ns
            + nbytes * self.params.checksum_ns_per_byte
        )
        yield from kernel.cpu.execute(cost, PRIO_KERNEL, label="udp_tx")
        msg = UdpDatagramMsg(src_node=self.node.node_id, port=port, nbytes=nbytes, payload=payload)
        dgram = IpDatagram(
            src_node=self.node.node_id,
            dst_node=dst_node,
            protocol="udp",
            data_bytes=nbytes + UDP_HEADER_BYTES,
            datagram_id=msg.packet_id,
            payload=msg,
        )
        yield from self.ip.tx(dgram)
        self.counters["datagrams_tx"] += 1

    # -- receive (softirq context) --------------------------------------------------
    def on_datagram(self, msg: UdpDatagramMsg) -> Generator:
        """Softirq-side receive: demux to port queue or waiter."""
        kernel = self.node.kernel
        cost = (
            self.params.per_segment_rx_ns
            + msg.nbytes * self.params.checksum_ns_per_byte
        )
        yield from kernel.cpu.execute(cost, PRIO_SOFTIRQ, label="udp_rx")
        self.counters["datagrams_rx"] += 1
        waiters = self._waiters.get(msg.port)
        if waiters:
            waiters.pop(0).succeed(msg)
            return
        self._ports.setdefault(msg.port, []).append(msg)

    # -- recv (kernel context) ------------------------------------------------------
    def recvfrom(self, port: int, block: bool = True) -> Generator:
        """Kernel-side receive; blocks unless ``block=False``."""
        kernel = self.node.kernel
        queue = self._ports.get(port, [])
        if queue:
            msg = queue.pop(0)
            yield from kernel.copy_system_to_user(msg.nbytes)
            return msg
        if not block:
            return None
        event = self.node.env.event()
        self._waiters.setdefault(port, []).append(event)
        msg = yield from kernel.block_on(event, label=f"udp_recv:{port}")
        yield from kernel.copy_system_to_user(msg.nbytes)
        return msg
