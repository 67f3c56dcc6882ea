"""Operating-system substrate: kernel, interrupts, driver, buffers, processes."""

from .. import _lazy_exports
from .driver import VendorDriver
from .interrupts import BottomHalves, IrqController
from .kernel import Kernel
from .process import UserProcess
from .skbuff import NIC_MEMORY, SYSTEM_MEMORY, USER_MEMORY, SkBuff

#: the bounded buffer pool, imported when first used
_LAZY = {"membuf": ("BufferPool", "PoolExhausted")}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "BottomHalves",
    "BufferPool",
    "IrqController",
    "Kernel",
    "NIC_MEMORY",
    "PoolExhausted",
    "SkBuff",
    "SYSTEM_MEMORY",
    "USER_MEMORY",
    "UserProcess",
    "VendorDriver",
]
