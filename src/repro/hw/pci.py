"""PCI bus model.

Section 2 of the paper singles out the 33 MHz / 32-bit PCI bus as the
emerging bottleneck of the gigabit-era communication path: theoretical
133 MB/s, real DMA efficiency well below that, and "delays of
microseconds" per transaction (PCI 2.1 arbitration).  Every byte that
moves between host memory and the NIC crosses this bus exactly once per
copy — which is why copy-count is the paper's central design axis.

The bus is an exclusive :class:`~repro.sim.Server` whose priority
classes play the PCI arbiter: a doorbell write beats NIC DMA, which
beats a polling read.  A DMA transfer holds it for
``transaction_setup + bytes / effective_bw``.  Host programmed I/O
(doorbell writes, polling reads across the bus, as in the VIA
discussion of Section 3.2(b)) are modeled as small transactions too.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Generator, Tuple

from ..config import PciParams
from ..sim import Environment, Server

__all__ = ["PciBus"]


class PciBus(Server):
    """A 33 MHz / 32-bit PCI bus shared by all devices on a node."""

    def __init__(self, env: Environment, params: PciParams, name: str = "pci"):
        super().__init__(env)
        self.params = params
        self.name = name
        self.counters = Counter()
        #: DMA label -> its two counter names, formatted once per label
        self._dma_counters: Dict[str, Tuple[str, str]] = {}

    def transfer_time(self, nbytes: int, transactions: int = 1) -> float:
        """Bus-held time for ``transactions`` DMA setups moving ``nbytes``.

        A flow-mode train burst charges ``transactions`` descriptor
        setups plus the batch bytes in one bus hold — the exact sum of
        the per-frame transactions it replaces.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if transactions < 1:
            raise ValueError("transactions must be >= 1")
        return (
            self.params.transaction_setup_ns * transactions
            + nbytes / self.params.effective_bw_Bps * 1e9
        )

    def dma(self, nbytes: int, priority: int = 5, label: str = "dma",
            transactions: int = 1) -> Generator:
        """Perform a bus-master DMA burst of ``nbytes``.

        ``transactions`` counts the descriptor setups charged (and
        tallied) for the burst: 1 for an ordinary frame, ``k`` when a
        flow-mode train moves ``k`` frames' bytes in one bus hold.
        """
        yield from self.hold(self.transfer_time(nbytes, transactions), priority)
        names = self._dma_counters.get(label)
        if names is None:
            names = self._dma_counters[label] = (f"{label}_transactions", f"{label}_bytes")
        self.counters[names[0]] += transactions
        self.counters[names[1]] += nbytes

    def pio(self, priority: int = 0, label: str = "pio") -> Generator:
        """One programmed-I/O access (doorbell write / status read)."""
        yield from self.hold(self.params.transaction_setup_ns, priority)
        self.counters[f"{label}_accesses"] += 1
