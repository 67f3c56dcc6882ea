"""IP layer.

The paper's point (§3.1) is that in a single-switch cluster the IP layer
buys nothing — no routing is needed — yet costs header bytes and stack
traversal on every packet.  We model it faithfully anyway, because the
TCP/IP baseline must pay for it: a 20-byte header per packet (on top of
14 B Ethernet).  TCP segments to the MSS itself, so no datagram ever
exceeds the MTU and the layer neither fragments nor reassembles; an
oversized datagram is a programming error.

Per-packet CPU costs of the combined stack traversal live in
:class:`~repro.config.TcpIpParams` and are charged by the TCP layer;
this module charges the transmission mechanics (SK_BUFF fill + driver
call).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator

from ...config import TcpIpParams
from ...hw.nic import EtherType
from ...oskernel import SkBuff
from ...sim import Store

__all__ = ["IpLayer", "IpDatagram"]

_dgram_ids = itertools.count(1)


@dataclass
class IpDatagram:
    """An IP packet on the wire."""

    src_node: int
    dst_node: int
    protocol: str  # "tcp"
    data_bytes: int
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_dgram_ids))


class IpLayer:
    """Per-node IP transmit mechanics.  Receive needs none: the stack
    hands a datagram's payload straight to TCP."""

    def __init__(self, node, params: TcpIpParams):
        self.node = node
        self.params = params
        self._backlog: Store = Store(node.env, name=f"{node.name}.ip.backlog")
        node.env.spawn(self._backlog_pump(), name=f"{node.name}.ip.pump")

    def mtu_payload(self) -> int:
        """IP payload bytes per frame (MTU minus the IP header)."""
        return self.node.mtu() - self.params.ip_header_bytes

    # -- transmit -------------------------------------------------------------
    def tx(self, dgram: IpDatagram) -> Generator:
        """Send one datagram; it must fit the MTU.

        The payload is assumed to already sit in kernel memory (the
        socket layer copied it there); the caller has charged its own
        per-packet protocol costs.
        """
        limit = self.mtu_payload()
        if dgram.data_bytes > limit:
            raise ValueError(
                f"IP datagram of {dgram.data_bytes} B exceeds the "
                f"{limit} B MTU payload (no fragmentation)")
        skb = SkBuff.for_system_payload(dgram.data_bytes, payload=dgram)
        skb.push_header("ip", self.params.ip_header_bytes)
        driver = self.node.drivers[0]
        mac = self.node.mac_of(dgram.dst_node, 0)
        accepted = yield from driver.transmit(skb, mac, EtherType.IPV4)
        if not accepted:
            self._backlog.put_nowait((skb, mac))

    def _backlog_pump(self) -> Generator:
        while True:
            skb, mac = yield self._backlog.get()
            while True:
                accepted = yield from self.node.drivers[0].transmit(skb, mac, EtherType.IPV4)
                if accepted:
                    break
                yield self.node.env.timeout(5_000.0)
