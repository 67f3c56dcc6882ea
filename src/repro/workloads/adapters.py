"""Transport adapters: one uniform ``send(n)``/``recv(n)`` face per stack.

The workloads (ping-pong, stream, sweeps) and the MPI/PVM layers talk to
all five transports through this interface, so every figure's curves are
produced by *identical* measurement code — only the protocol under test
changes, exactly like running the same NetPIPE binary over different
libraries.
"""

from __future__ import annotations

import itertools
from typing import Generator, Tuple

from ..protocols.clic import ClicEndpoint

__all__ = [
    "clic_pair",
    "tcp_pair",
    "gamma_pair",
    "via_pair",
    "ClicAdapter",
    "TcpAdapter",
    "GammaAdapter",
    "ViaAdapter",
]

_ports = itertools.count(100)


class ClicAdapter:
    """CLIC endpoint with the uniform adapter face."""

    def __init__(self, proc, peer_node_id: int, port: int):
        self.ep = ClicEndpoint(proc, port)
        self.peer = peer_node_id

    def send(self, nbytes: int) -> Generator:
        """Send ``nbytes`` to the peer over CLIC."""
        yield from self.ep.send(self.peer, nbytes)

    def recv(self, nbytes: int) -> Generator:
        """Receive and size-check one message."""
        msg = yield from self.ep.recv()
        if msg.nbytes != nbytes:
            raise AssertionError(f"expected {nbytes} B, got {msg.nbytes} B")
        return msg


class TcpAdapter:
    """TCP socket adapter; 0-byte exchanges ride a 1-byte probe (a TCP
    stream has no zero-length message concept)."""

    def __init__(self, sock):
        self.sock = sock

    def send(self, nbytes: int) -> Generator:
        """Send ``nbytes`` on the stream (0 rides a 1-byte probe)."""
        yield from self.sock.send(max(nbytes, 1))

    def recv(self, nbytes: int) -> Generator:
        """Receive exactly ``nbytes`` from the stream."""
        got = yield from self.sock.recv(max(nbytes, 1))
        return got


class GammaAdapter:
    """GAMMA active-port adapter."""

    def __init__(self, proc, peer_node_id: int, port: int):
        self.layer = proc.node.gamma
        self.proc = proc
        self.peer = peer_node_id
        self.port = port

    def send(self, nbytes: int) -> Generator:
        """Send ``nbytes`` to the peer's active port."""
        yield from self.layer.send(self.peer, self.port, nbytes)

    def recv(self, nbytes: int) -> Generator:
        """Receive and size-check one message."""
        msg = yield from self.layer.recv(self.port)
        if msg.nbytes != nbytes:
            raise AssertionError(f"expected {nbytes} B, got {msg.nbytes} B")
        return msg


class ViaAdapter:
    """VIA virtual-interface adapter (polling receive)."""

    def __init__(self, proc, peer_node_id: int, vi):
        self.proc = proc
        self.peer = peer_node_id
        self.vi = vi

    def send(self, nbytes: int) -> Generator:
        """Send ``nbytes`` through the virtual interface."""
        yield from self.vi.send(self.peer, nbytes)

    def recv(self, nbytes: int) -> Generator:
        """Poll the completion queue for one message."""
        msg = yield from self.vi.recv()
        if msg.nbytes != nbytes:
            raise AssertionError(f"expected {nbytes} B, got {msg.nbytes} B")
        return msg


# -- pair factories (the ``setup`` argument of the workloads) ---------------
def clic_pair():
    """CLIC endpoints on a fresh port for both processes."""
    bound_port = next(_ports)

    def setup(proc_a, proc_b) -> Tuple[ClicAdapter, ClicAdapter]:
        return (
            ClicAdapter(proc_a, proc_b.node.node_id, bound_port),
            ClicAdapter(proc_b, proc_a.node.node_id, bound_port),
        )

    return setup


def tcp_pair():
    """A connected TCP socket pair."""

    def setup(proc_a, proc_b) -> Tuple[TcpAdapter, TcpAdapter]:
        from ..protocols.tcpip import TcpIpStack

        sock_a, sock_b = TcpIpStack.connect_pair(proc_a, proc_b)
        return TcpAdapter(sock_a), TcpAdapter(sock_b)

    return setup


def gamma_pair():
    """GAMMA active ports on both processes."""
    bound_port = next(_ports)

    def setup(proc_a, proc_b) -> Tuple[GammaAdapter, GammaAdapter]:
        return (
            GammaAdapter(proc_a, proc_b.node.node_id, bound_port),
            GammaAdapter(proc_b, proc_a.node.node_id, bound_port),
        )

    return setup


def via_pair():
    """A connected pair of virtual interfaces (same VI id both ends)."""

    def setup(proc_a, proc_b) -> Tuple[ViaAdapter, ViaAdapter]:
        vi_a = proc_a.node.via.create_vi()
        vi_b = proc_b.node.via.create_vi(vi_a.vi_id)
        return (
            ViaAdapter(proc_a, proc_b.node.node_id, vi_a),
            ViaAdapter(proc_b, proc_a.node.node_id, vi_b),
        )

    return setup
