"""Main-memory subsystem.

Models the cost of CPU-driven copies (the "1-copy" in the paper's
vocabulary).  The bus is an exclusive :class:`~repro.sim.Server` served
FIFO.  A CPU memcpy is charged *on the CPU* (the processor is busy
moving the bytes — this is the very resource drain the paper's 0-copy
work removes) while also holding the memory bus: the copy claims the
bus, runs a preemptible ``cpu.execute`` and releases it.  NIC DMA is
timed on the PCI bus, the slower segment in this machine.
"""

from __future__ import annotations

from collections import Counter
from typing import Generator

from ..config import MemoryParams
from ..sim import Environment, Server

__all__ = ["MemoryBus"]


class MemoryBus(Server):
    """Shared memory bandwidth.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Bandwidth/setup costs.
    """

    def __init__(self, env: Environment, params: MemoryParams, name: str = "mem"):
        super().__init__(env)
        self.params = params
        self.name = name
        self.counters = Counter()

    def copy_time(self, nbytes: int, setups: int = 1) -> float:
        """Time for ``setups`` back-to-back CPU memcpys totalling ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative copy size")
        if setups < 1:
            raise ValueError("setups must be >= 1")
        return self.params.copy_setup_ns * setups + nbytes / self.params.copy_bw_Bps * 1e9

    def cpu_copy(self, cpu, nbytes: int, priority: int, label: str = "memcpy",
                 setups: int = 1) -> Generator:
        """Copy ``nbytes`` using the CPU (charges CPU time + bus occupancy).

        ``setups`` counts the per-copy setup costs charged in one bus
        hold: 1 normally, ``k`` when a flow-mode train batches ``k``
        fragment copies back to back.
        """
        duration = self.copy_time(nbytes, setups)
        yield from self.acquire()
        yield from cpu.execute(duration, priority, label=label)
        self.release()
        self.counters["cpu_copies"] += setups
        self.counters["cpu_copy_bytes"] += nbytes
