"""Ethernet frames and addressing.

CLIC rides directly on level-1 Ethernet (the paper, Section 3.1): a
14-byte MAC header (6 dst + 6 src + 2 ethertype) and nothing else below
the protocol's own header.  Frames here carry *virtual* payloads — a
byte count plus a reference to the protocol packet object — so simulated
gigabytes cost nothing to "move" in Python while byte accounting stays
exact (tested by conservation invariants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...config import LinkParams

__all__ = [
    "MacAddress",
    "BROADCAST",
    "EtherType",
    "Frame",
    "wire_bytes",
    "frame_time_ns",
    "split_train",
]


@dataclass(frozen=True, order=True)
class MacAddress:
    """A MAC address, condensed to an integer node/port id."""

    value: int

    def __str__(self) -> str:
        if self.value == 0xFFFFFFFFFFFF:
            return "ff:ff:ff:ff:ff:ff"
        return f"02:00:00:00:{(self.value >> 8) & 0xFF:02x}:{self.value & 0xFF:02x}"

    @property
    def is_broadcast(self) -> bool:
        return self.value == 0xFFFFFFFFFFFF


BROADCAST = MacAddress(0xFFFFFFFFFFFF)


class EtherType:
    """Ethertype values used by the simulated stacks."""

    IPV4 = 0x0800
    CLIC = 0x6007  # experimental range; the protocol's own type
    GAMMA = 0x6008
    VIA = 0x6009


@dataclass(slots=True)
class Frame:
    """One Ethernet frame on the wire.

    ``payload_bytes`` counts everything above the MAC header (protocol
    headers + user data); MAC header, CRC, preamble and IFG are added by
    :func:`wire_bytes` / :func:`frame_time_ns`.

    ``train_frames`` is the flow-mode batch width: ``1`` for an ordinary
    frame, ``k`` when this object stands for ``k`` equal-size back-to-back
    frames advancing as one analytic batch (``payload_bytes`` is then the
    train *total*; every hop computes per-frame costs from
    ``payload_bytes / train_frames`` and multiplies back — see
    :mod:`repro.sim.flowmode`).
    """

    src: MacAddress
    dst: MacAddress
    ethertype: int
    payload_bytes: int
    payload: Any = None
    #: frames represented by this object (> 1 only for flow-mode trains)
    train_frames: int = 1

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("negative payload")

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast


def wire_bytes(frame: Frame, link: LinkParams) -> int:
    """Total bytes the frame occupies on the wire (incl. preamble + IFG).

    For a flow-mode train this is the exact sum over the batch: ``k``
    times the wire bytes of one constituent frame (the per-frame payload
    divides evenly by construction), so serialization time is identical
    to sending the ``k`` frames back to back.
    """
    k = frame.train_frames
    per_payload = frame.payload_bytes // k
    mac_frame = link.mac_header_bytes + per_payload + link.crc_bytes
    mac_frame = max(mac_frame, link.min_frame_bytes)
    return (link.preamble_bytes + mac_frame + link.ifg_bytes) * k


def frame_time_ns(frame: Frame, link: LinkParams) -> float:
    """Serialization time of the frame at the link rate."""
    return wire_bytes(frame, link) * 8 / link.rate_bps * 1e9


def split_train(frame: Frame) -> list:
    """Materialize a train back into its constituent per-packet frames.

    The fallback boundary of the flow-mode fast path: a hop that cannot
    keep the batch together (rx-ring shortfall, mid-flight blackout)
    splits the train and continues exact per-frame simulation.  The
    train's payload is duck-typed — any iterable of its packets
    (:class:`repro.protocols.headers.ClicTrain`, which builds each
    fragment as it is read) works; each packet gets its own frame with
    an equal share of the payload bytes.
    """
    k = frame.train_frames
    if k <= 1:
        return [frame]
    per_payload = frame.payload_bytes // k
    return [
        Frame(src=frame.src, dst=frame.dst, ethertype=frame.ethertype,
              payload_bytes=per_payload, payload=packet)
        for packet in frame.payload
    ]
