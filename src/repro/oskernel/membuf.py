"""Bounded kernel buffer pools.

CLIC stages outgoing data in system memory when the NIC cannot accept it
immediately, and parks received packets in system memory until a process
asks for them (§3.1).  TCP likewise owns socket send/receive buffers.
All of these are finite: a producer faster than its consumer must
eventually block (or, for the NIC rx ring, drop).  :class:`BufferPool`
provides the blocking byte-count accounting.
"""

from __future__ import annotations

from collections import Counter
from typing import Generator, List, Tuple

from ..sim import Environment, Event

__all__ = ["BufferPool", "PoolExhausted"]


class PoolExhausted(Exception):
    """Raised by :meth:`BufferPool.take` when ``block=False`` and no room."""


class BufferPool:
    """A byte-counted pool with blocking allocation.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity_bytes:
        Pool size; ``float('inf')`` disables accounting (still counted).
    """

    def __init__(self, env: Environment, capacity_bytes: float, name: str = "pool"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity_bytes
        self.name = name
        self.in_use = 0.0
        self.counters = Counter()
        self._waiters: List[Tuple[float, Event]] = []

    @property
    def available(self) -> float:
        return self.capacity - self.in_use

    def try_take(self, nbytes: float) -> bool:
        """Non-blocking allocation; True on success."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        if nbytes > self.capacity:
            raise ValueError(
                f"allocation of {nbytes} B can never fit pool {self.name} "
                f"({self.capacity} B)"
            )
        if self._waiters or nbytes > self.available:
            self.counters["alloc_denied"] += 1
            return False
        self.in_use += nbytes
        self.counters["allocs"] += 1
        self.counters["alloc_bytes"] += nbytes
        return True

    def take(self, nbytes: float) -> Generator:
        """Blocking allocation: a generator the caller ``yield from``-s."""
        if self.try_take(nbytes):
            return
        event = self.env.event()
        self._waiters.append((nbytes, event))
        self.counters["alloc_waits"] += 1
        yield event
        # The releaser granted us the bytes before waking us.

    def give(self, nbytes: float) -> None:
        """Return ``nbytes`` to the pool, waking eligible waiters in order."""
        if nbytes < 0:
            raise ValueError("negative free")
        self.in_use -= nbytes
        if self.in_use < -1e-9:
            raise RuntimeError(f"pool {self.name} freed more than allocated")
        self.counters["frees"] += 1
        while self._waiters:
            want, event = self._waiters[0]
            if want > self.available:
                break
            self._waiters.pop(0)
            self.in_use += want
            self.counters["allocs"] += 1
            self.counters["alloc_bytes"] += want
            event.succeed()

    def utilization(self) -> float:
        """Fraction of the pool currently allocated."""
        return self.in_use / self.capacity if self.capacity != float("inf") else 0.0
