"""User processes.

A :class:`UserProcess` is an application context on a node: it owns a
PID, computes at user priority (preempted by all kernel activity — so
interrupt load visibly eats application throughput, the Section 2
effect), and invokes protocol APIs which internally enter the kernel.

CLIC explicitly supports multiprogramming — several processes using the
network at once, protection between them, and communication between
processes on the *same* node (§5) — so processes are first-class here
rather than an afterthought.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Generator, Optional

from ..hw.cpu import PRIO_USER, Cpu
from ..sim import Environment, Process

__all__ = ["UserProcess"]

_pids = itertools.count(1)


class UserProcess:
    """An application process bound to one node."""

    def __init__(self, node, name: str = ""):
        self.node = node
        self.pid = next(_pids)
        self.name = name or f"pid{self.pid}"
        self.counters = Counter()
        self._main: Optional[Process] = None

    @property
    def env(self) -> Environment:
        return self.node.env

    @property
    def cpu(self) -> Cpu:
        return self.node.cpu

    def compute(self, duration_ns: float) -> Generator:
        """Burn application CPU time (preemptible by kernel work)."""
        self.counters["compute_ns"] += duration_ns
        yield from self.cpu.execute(duration_ns, PRIO_USER, label=f"user.{self.name}")

    def run(self, body: Callable[["UserProcess"], Generator]) -> Process:
        """Start the process main: ``body(self)`` as a simulation process."""
        if self._main is not None:
            raise RuntimeError(f"{self.name} already running")
        self._main = self.env.process(body(self), name=f"{self.node.name}.{self.name}")
        return self._main

    @property
    def main(self) -> Optional[Process]:
        return self._main

    def __repr__(self) -> str:
        return f"<UserProcess {self.name} on {self.node.name}>"
