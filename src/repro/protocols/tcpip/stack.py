"""The assembled TCP/IP stack of one node.

Registers itself for the IPv4 ethertype; received buffers flow (in
bottom-half context, exactly like CLIC's receive path — the two stacks
differ above the driver, not below) through IP reassembly and are
demuxed to TCP connections.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...hw.nic import EtherType
from ...oskernel import SkBuff, UserProcess
from .ip import IpDatagram, IpLayer
from .sockets import TcpSocket
from .tcp import TcpConnection, TcpLayer

__all__ = ["TcpIpStack"]


class TcpIpStack:
    """IP + TCP for one node."""

    def __init__(self, node):
        self.node = node
        self.params = node.cfg.tcp
        #: tracing scope of this stack, e.g. ``node0.tcpip``
        self.scope = f"{node.name}.tcpip"
        self.tracer = node.kernel.tracer
        self.counters = node.kernel.metrics.tallies(self.scope)
        self.ip = IpLayer(node, self.params)
        self.tcp = TcpLayer(node, self.params, self.ip)
        node.kernel.register_protocol(EtherType.IPV4, self._rx_entry)

    # -- socket factories ------------------------------------------------------
    @staticmethod
    def connect_pair(proc_a: UserProcess, proc_b: UserProcess) -> tuple:
        """Create both ends of a TCP connection between two processes."""
        stack_a = proc_a.node.tcp
        stack_b = proc_b.node.tcp
        conn_a = stack_a.tcp.connect(proc_b.node.node_id)
        conn_b = stack_b.tcp.connect(proc_a.node.node_id, conn_id=conn_a.conn_id)
        return TcpSocket(proc_a, conn_a), TcpSocket(proc_b, conn_b)

    # -- receive entry (bottom-half context) -------------------------------------
    def _rx_entry(self, skb: SkBuff) -> Generator:
        with self.tracer.begin(self.scope, "tcpip_rx") as span:
            dgram: IpDatagram = skb.payload
            if dgram.protocol == "tcp":
                span.annotate(kind="tcp")
                yield from self.tcp.dispatch(dgram.payload)
            else:
                self.counters["unknown_ip_protocol"] += 1
