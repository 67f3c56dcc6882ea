"""Wire-format definitions for the simulated protocol stacks.

Packets are Python dataclasses riding inside :class:`~repro.hw.nic.Frame`
payloads; their *sizes* (what the paper cares about) are accounted
explicitly:

* CLIC: 14 B Ethernet level-1 header + **12 B CLIC header** that encodes
  the packet class ("an MPI packet, an internal packet, a kernel function
  packet, etc." — §3.1) — nothing else.  No IP, no routing.
* TCP/IP: 14 B Ethernet + 20 B IP + 20 B TCP.

The CLIC header fields here are a faithful superset of what 12 bytes can
encode (type, port, sequence, fragment accounting); Python object fields
that exist only for simulation bookkeeping (``packet_id``, ``payload``)
carry no modeled bytes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Any, Iterator, Optional, Tuple

__all__ = [
    "ClicPacketType",
    "ClicPacket",
    "ClicTrain",
    "ClicAck",
    "ClicCollective",
    "COLLECTIVE_OPS",
    "TcpSegment",
    "GammaPacket",
    "ViaPacket",
    "fragment_plan",
    "Reassembly",
    "reassembled",
]

_packet_ids = itertools.count(1)


def fragment_plan(nbytes: int, frag_max: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(frag_offset, frag_bytes)`` for one ``nbytes`` message.

    The single source of truth for software fragmentation: every
    protocol module (CLIC send/broadcast, GAMMA, VIA) splits messages
    with this plan.  Fragments are contiguous, in offset order, each at
    most ``frag_max`` user bytes; a zero-byte message still yields one
    (empty) fragment so that "a message" is never zero packets on the
    wire.
    """
    if nbytes < 0:
        raise ValueError(f"negative message size (got {nbytes!r})")
    if frag_max <= 0:
        raise ValueError(f"fragment capacity must be positive (got {frag_max!r})")
    offset = 0
    while True:
        frag = min(frag_max, nbytes - offset)
        yield offset, frag
        offset += frag
        if offset >= nbytes:
            return


@dataclass
class Reassembly:
    """A message being put back together from its fragments."""

    msg_bytes: int
    received: int = field(default=0, init=False)
    payload: Any = None


def reassembled(partial: Any, pkt: Any) -> bool:
    """The completion rule of every protocol module: ``partial`` (any
    record with ``received`` and ``msg_bytes``) holds its whole message
    once ``pkt`` landed; a zero-byte message completes on its last
    (empty) fragment."""
    return partial.received >= partial.msg_bytes and (
        partial.msg_bytes != 0 or pkt.is_last_fragment)


class ClicPacketType(Enum):
    """The packet classes the 2-byte CLIC type field distinguishes."""

    DATA = "data"
    MPI = "mpi"  # data carrying an MPI envelope
    REMOTE_WRITE = "remote_write"
    ACK = "ack"
    INTERNAL = "internal"
    KERNEL_FN = "kernel_fn"
    BCAST = "bcast"


@dataclass
class ClicPacket:
    """One CLIC packet (one Ethernet frame's worth)."""

    ptype: ClicPacketType
    src_node: int
    dst_node: int
    port: int
    msg_id: int
    seq: int  # per (src,dst) channel sequence number
    frag_offset: int  # byte offset of this fragment in its message
    frag_bytes: int  # payload bytes in this fragment
    msg_bytes: int  # total message size
    tag: int = 0
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def is_last_fragment(self) -> bool:
        return self.frag_offset + self.frag_bytes >= self.msg_bytes


class ClicTrain:
    """A batch of consecutive, equal-size CLIC fragments (flow mode): a
    head fragment and a count.

    Carries no modeled bytes of its own: a train is ``frames`` ordinary
    frames that happen to advance through the pipeline as one
    analytically batched unit (see :mod:`repro.sim.flowmode`).  Every
    fragment is a full ``frag_bytes`` fragment of the head's message —
    the short tail fragment always travels alone — so per-frame wire
    math divides evenly.

    Only the head is a :class:`ClicPacket`; fragment ``i`` is implied
    (its ``seq``, ``frag_offset`` and ``packet_id`` step from the head's
    by ``i``, ``i * frag_bytes`` and ``i``) and indexing builds it on
    demand, for the few paths that need one fragment: a hop that splits
    the train back into per-packet frames, a retransmission, an
    out-of-order arrival.  Construction reserves the ``frames - 1``
    packet ids the fragments take, so every id is the one eager
    building would have drawn.
    """

    __slots__ = ("head", "frames")

    def __init__(self, head: ClicPacket, frames: int):
        self.head = head
        self.frames = frames
        deque(islice(_packet_ids, frames - 1), maxlen=0)

    def __len__(self) -> int:
        return self.frames

    def __getitem__(self, i: int) -> ClicPacket:
        if not 0 <= i < self.frames:
            raise IndexError(f"fragment {i} of a {self.frames}-fragment train")
        head = self.head
        if i == 0:
            return head
        return ClicPacket(head.ptype, head.src_node, head.dst_node, head.port,
                          head.msg_id, head.seq + i,
                          head.frag_offset + i * head.frag_bytes, head.frag_bytes,
                          head.msg_bytes, head.tag, head.payload, head.packet_id + i)

    def __iter__(self) -> Iterator[ClicPacket]:
        return map(self.__getitem__, range(self.frames))


@dataclass
class ClicAck:
    """Cumulative acknowledgment (an INTERNAL packet)."""

    src_node: int
    dst_node: int
    cumulative_seq: int  # all seq < this are acknowledged
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: modeled bytes of ack info riding after the CLIC header
    WIRE_BYTES = 8


#: collective operations the NIC engine understands
COLLECTIVE_OPS = ("barrier", "bcast", "allreduce")


@dataclass
class ClicCollective:
    """One hop of a NIC-resident collective (combined/forwarded on-card).

    Quadrics/Myrinet-style: the NIC recognizes this header, runs the
    combine/forward step in firmware, and never raises an IRQ or crosses
    the syscall/BH boundary — only the final completion touches the host
    (a DMA'd completion word).  ``phase`` is ``"up"`` while contributions
    combine toward the root of the binomial tree and ``"down"`` for the
    release/data broadcast; data ops fragment to the MTU, so ``nbytes``
    is the op's total payload and ``frag_bytes`` this frame's share.
    """

    op: str               # one of COLLECTIVE_OPS
    phase: str            # "up" (combine) | "down" (release/data)
    coll_id: int          # per-engine post counter (same program order on
                          # every rank, so ids agree cluster-wide)
    root: int             # root *rank* of the binomial tree
    src_rank: int
    nbytes: int = 0       # total op payload (0 for barrier)
    frag_bytes: int = 0   # this fragment's payload share
    contributions: int = 1  # ranks folded into this (sub)tree so far
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: modeled bytes of collective header riding after the Ethernet header
    WIRE_BYTES = 16


@dataclass
class TcpSegment:
    """One TCP segment (simplified: byte-stream with segment seq)."""

    src_node: int
    dst_node: int
    conn_id: int
    seq: int  # segment index within the connection
    data_bytes: int
    is_ack: bool = False
    ack_seq: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))


@dataclass
class GammaPacket:
    """GAMMA active-port packet (comparator model)."""

    src_node: int
    dst_node: int
    port: int
    msg_id: int
    frag_offset: int
    frag_bytes: int
    msg_bytes: int
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def is_last_fragment(self) -> bool:
        return self.frag_offset + self.frag_bytes >= self.msg_bytes


@dataclass
class ViaPacket:
    """VIA packet: delivered to a VI's receive queue, unreliable."""

    src_node: int
    dst_node: int
    vi_id: int
    msg_id: int
    frag_offset: int
    frag_bytes: int
    msg_bytes: int
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def is_last_fragment(self) -> bool:
        return self.frag_offset + self.frag_bytes >= self.msg_bytes
