"""Hardware substrate: CPU, memory, PCI, NIC, link, switch."""

from .cpu import PRIO_IRQ, PRIO_KERNEL, PRIO_SOFTIRQ, PRIO_USER, Cpu
from .fabric import Fabric
from .link import Channel
from .memory import MemoryBus
from .pci import PciBus
from .switch import Switch, SwitchPort

__all__ = [
    "Channel",
    "Cpu",
    "Fabric",
    "MemoryBus",
    "PciBus",
    "PRIO_IRQ",
    "PRIO_KERNEL",
    "PRIO_SOFTIRQ",
    "PRIO_USER",
    "Switch",
    "SwitchPort",
]
