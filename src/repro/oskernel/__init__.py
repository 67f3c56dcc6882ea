"""Operating-system substrate: kernel, interrupts, driver, buffers, processes."""

from .driver import VendorDriver
from .interrupts import BottomHalves, IrqController
from .kernel import Kernel
from .process import UserProcess
from .skbuff import NIC_MEMORY, SYSTEM_MEMORY, USER_MEMORY, SkBuff

__all__ = [
    "BottomHalves",
    "IrqController",
    "Kernel",
    "NIC_MEMORY",
    "SkBuff",
    "SYSTEM_MEMORY",
    "USER_MEMORY",
    "UserProcess",
    "VendorDriver",
]
