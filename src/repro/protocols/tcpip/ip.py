"""IP layer.

The paper's point (§3.1) is that in a single-switch cluster the IP layer
buys nothing — no routing is needed — yet costs header bytes and stack
traversal on every packet.  We model it faithfully anyway, because the
TCP/IP baseline must pay for it:

* 20-byte header per packet (on top of 14 B Ethernet),
* fragmentation of datagrams larger than the MTU (TCP avoids it by
  segmenting to the MSS itself),
* reassembly on receive.

Per-packet CPU costs of the combined stack traversal live in
:class:`~repro.config.TcpIpParams` and are charged by the TCP layer;
this module charges the transmission mechanics (SK_BUFF fill + driver
call).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from ...config import TcpIpParams
from ...hw.nic import EtherType
from ...oskernel import SkBuff
from ...sim import Store

__all__ = ["IpLayer", "IpDatagram"]

_dgram_ids = itertools.count(1)


@dataclass
class IpDatagram:
    """An IP packet (possibly a fragment) on the wire."""

    src_node: int
    dst_node: int
    protocol: str  # "tcp"
    data_bytes: int
    datagram_id: int
    frag_offset: int = 0
    more_fragments: bool = False
    total_bytes: int = 0
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_dgram_ids))


class IpLayer:
    """Per-node IP tx/rx mechanics."""

    def __init__(self, node, params: TcpIpParams):
        self.node = node
        self.params = params
        self.counters = Counter()
        self._backlog: Store = Store(node.env, name=f"{node.name}.ip.backlog")
        node.env.process(self._backlog_pump(), name=f"{node.name}.ip.pump")
        self._reassembly: Dict[Tuple[int, int], list] = {}

    def mtu_payload(self) -> int:
        """IP payload bytes per frame (MTU minus the IP header)."""
        return self.node.mtu() - self.params.ip_header_bytes

    # -- transmit -------------------------------------------------------------
    def tx(self, dgram: IpDatagram) -> Generator:
        """Send a datagram, fragmenting to the MTU if needed.

        The payload is assumed to already sit in kernel memory (the
        socket layer copied it there); the caller has charged its own
        per-packet protocol costs.
        """
        limit = self.mtu_payload()
        if dgram.data_bytes <= limit:
            yield from self._tx_one(dgram)
            return
        offset = 0
        total = dgram.data_bytes
        while offset < total:
            take = min(limit, total - offset)
            frag = IpDatagram(
                src_node=dgram.src_node,
                dst_node=dgram.dst_node,
                protocol=dgram.protocol,
                data_bytes=take,
                datagram_id=dgram.datagram_id,
                frag_offset=offset,
                more_fragments=(offset + take) < total,
                total_bytes=total,
                payload=dgram.payload,
            )
            self.counters["fragments_tx"] += 1
            yield from self._tx_one(frag)
            offset += take

    def _tx_one(self, dgram: IpDatagram) -> Generator:
        skb = SkBuff.for_system_payload(dgram.data_bytes, payload=dgram)
        skb.push_header("ip", self.params.ip_header_bytes)
        driver = self.node.drivers[0]
        mac = self.node.mac_of(dgram.dst_node, 0)
        accepted = yield from driver.transmit(skb, mac, EtherType.IPV4)
        if accepted:
            self.counters["datagrams_tx"] += 1
        else:
            self._backlog.put((skb, mac))
            self.counters["datagrams_backlogged"] += 1

    def _backlog_pump(self) -> Generator:
        while True:
            skb, mac = yield self._backlog.get()
            while True:
                accepted = yield from self.node.drivers[0].transmit(skb, mac, EtherType.IPV4)
                if accepted:
                    break
                yield self.node.env.timeout(5_000.0)

    # -- receive ----------------------------------------------------------------
    def rx(self, dgram: IpDatagram) -> Optional[IpDatagram]:
        """Reassembly: returns the complete datagram or ``None`` (more
        fragments outstanding).  Unfragmented datagrams pass through."""
        if dgram.total_bytes == 0:
            self.counters["datagrams_rx"] += 1
            return dgram
        key = (dgram.src_node, dgram.datagram_id)
        acc = self._reassembly.setdefault(key, [0])
        acc[0] += dgram.data_bytes
        self.counters["fragments_rx"] += 1
        if acc[0] < dgram.total_bytes:
            return None
        del self._reassembly[key]
        self.counters["datagrams_rx"] += 1
        return IpDatagram(
            src_node=dgram.src_node,
            dst_node=dgram.dst_node,
            protocol=dgram.protocol,
            data_bytes=dgram.total_bytes,
            datagram_id=dgram.datagram_id,
            payload=dgram.payload,
        )
