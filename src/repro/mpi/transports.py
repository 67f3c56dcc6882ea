"""MPI transport bindings.

Figure 6 compares MPI-over-CLIC against MPI-over-TCP (and PVM): the same
middleware mapped onto two different message layers.  §5: "MPI and PVM
point-to-point communication functions can be easily mapped to reliable
point-to-point communications provided by the CLIC layer."  These
bindings are that mapping:

* :class:`ClicTransport` — one CLIC port per (world, rank); the CLIC
  module's tag/src matching implements MPI envelope matching directly.
* :class:`TcpTransport` — a full mesh of TCP connections; every message
  is framed as a fixed-size envelope plus payload on the pair's stream
  (per-pair in-order matching, as MPICH's ch_p4 did).  The stream
  carries only byte counts, so each pair also queues the envelopes of
  its messages in stream order beside it, and the receive sizes posted
  for them: the n-th message and the n-th receive on a pair must agree
  in size, checked by whichever of the two comes second.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional, Tuple

from ..protocols.clic import ClicEndpoint

__all__ = ["ClicTransport", "TcpTransport", "Envelope"]

_world_ports = itertools.count(1000)

#: MPI envelope: communicator id, source, tag, length (modeled bytes).
ENVELOPE_BYTES = 24


@dataclass
class Envelope:
    source: int
    tag: int
    nbytes: int


class ClicTransport:
    """MPI rank endpoint over the CLIC module."""

    def __init__(self, proc, rank: int, rank_to_node: Dict[int, int], world_port: int):
        self.proc = proc
        self.rank = rank
        self.rank_to_node = rank_to_node
        self.ep = ClicEndpoint(proc, world_port)

    def send(self, dest_rank: int, nbytes: int, tag: int, payload=None) -> Generator:
        """Send ``nbytes`` (+envelope) to a rank through CLIC."""
        yield from self.ep.send(
            self.rank_to_node[dest_rank], nbytes + ENVELOPE_BYTES, tag=tag, payload=payload
        )

    def recv(self, source_rank: Optional[int], tag: Optional[int], nbytes: int) -> Generator:
        """Receive a message; returns (Envelope, payload).  CLIC's
        matching finds the message, so ``nbytes`` is not needed."""
        src_node = None if source_rank is None else self.rank_to_node[source_rank]
        msg = yield from self.ep.recv(tag=tag, src=src_node)
        env = Envelope(source=msg.src_node, tag=msg.tag, nbytes=msg.nbytes - ENVELOPE_BYTES)
        return env, msg.payload


class TcpTransport:
    """MPI rank endpoint over a mesh of TCP sockets."""

    def __init__(self, proc, rank: int):
        self.proc = proc
        self.rank = rank
        #: peer rank -> connected socket
        self.sockets: Dict[int, object] = {}
        #: peer rank -> (envelopes of its messages to us, sizes we posted
        #: for them), each in stream order and not yet received
        self._inbox: Dict[int, Tuple[Deque[Envelope], Deque[int]]] = {}
        #: peer rank -> that peer's inbox entry for our messages
        self._outbox: Dict[int, Tuple[Deque[Envelope], Deque[int]]] = {}

    def connect(self, peer: "TcpTransport", socket) -> None:
        """Attach the connected socket to ``peer``'s rank."""
        self.sockets[peer.rank] = socket
        self._outbox[peer.rank] = peer._inbox.setdefault(self.rank, (deque(), deque()))

    def send(self, dest_rank: int, nbytes: int, tag: int, payload=None) -> Generator:
        """Send ``nbytes`` (+envelope) on the pair's stream."""
        sock = self.sockets[dest_rank]
        envelopes, posted = self._outbox[dest_rank]
        if len(envelopes) < len(posted):
            _check_size(dest_rank, posted[len(envelopes)], nbytes)
        envelopes.append(Envelope(source=self.rank, tag=tag, nbytes=nbytes))
        # Envelope + payload on the stream (one send call: MPICH batched
        # the header into the same writev).
        yield from sock.send(nbytes + ENVELOPE_BYTES)

    def recv(self, source_rank: Optional[int], tag: Optional[int], nbytes: int) -> Generator:
        """Read the next ``nbytes`` message (+envelope) from the pair's
        stream; returns (Envelope, payload).  The stream matches per pair
        in order (as ch_p4 did): the next message must carry ``tag``
        (``None`` takes any), and there is no wildcard source."""
        if source_rank is None:
            raise NotImplementedError(
                "ANY_SOURCE requires a receive progress engine; the TCP "
                "binding (like ch_p4) matches per-pair in order — use the "
                "CLIC transport for wildcard receives"
            )
        envelopes, posted = self._inbox[source_rank]
        if len(posted) < len(envelopes):
            _check_size(self.rank, nbytes, envelopes[len(posted)].nbytes)
        posted.append(nbytes)
        yield from self.sockets[source_rank].recv(nbytes + ENVELOPE_BYTES)
        posted.popleft()
        env = envelopes.popleft()
        if tag is not None and env.tag != tag:
            raise AssertionError(
                f"rank {self.rank}: posted tag {tag} but the next message "
                f"from rank {source_rank} has tag {env.tag}"
            )
        return env, None


def _check_size(rank: int, posted: int, sent: int) -> None:
    """A receive of ``posted`` bytes cannot take a ``sent``-byte message:
    the stream would hand it a cut or a run-on message, or wait forever
    for bytes nobody sends."""
    if posted != sent:
        raise AssertionError(f"rank {rank}: posted {posted} B but received {sent} B")


def fresh_world_port() -> int:
    """Allocate a CLIC port number for a new MPI world."""
    return next(_world_ports)
