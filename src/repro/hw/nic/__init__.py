"""Gigabit Ethernet NIC model."""

from .base import Nic, TxDescriptor
from .frames import BROADCAST, EtherType, Frame, MacAddress, frame_time_ns, wire_bytes
from .interrupts import InterruptCoalescer

__all__ = [
    "BROADCAST",
    "EtherType",
    "Frame",
    "InterruptCoalescer",
    "MacAddress",
    "Nic",
    "TxDescriptor",
    "frame_time_ns",
    "wire_bytes",
]
