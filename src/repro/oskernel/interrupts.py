"""Interrupt dispatch and bottom halves.

The receive path the paper measures (Figure 7a / Figure 8a) is:

    NIC asserts IRQ  ->  kernel IRQ entry  ->  driver handler (moves data
    NIC->system memory, CPU captive)  ->  IRQ exit  ->  *bottom half*
    runs later at softirq priority  ->  CLIC_MODULE / IP stack processes
    the packet.

The bottom-half hop adds both CPU cost and scheduling latency; Figure 8b
proposes (and :attr:`~repro.config.KernelParams.direct_rx_dispatch`
enables) calling the protocol module directly from the handler.

Priorities map to :mod:`repro.hw.cpu` levels: handlers run at IRQ
priority (preempting everything), bottom halves at SOFTIRQ priority
(preempted by new interrupts but beating syscall bodies and user code —
which is how interrupt storms starve applications, the Section 2
effect).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Generator, Optional

from ..config import KernelParams
from ..hw.cpu import PRIO_IRQ, PRIO_SOFTIRQ, Cpu
from ..obs import MetricsRegistry
from ..sim import Environment, Store

__all__ = ["IrqController", "BottomHalves"]


class BottomHalves:
    """The deferred-work queue (Linux 2.4 bottom halves / softirqs)."""

    def __init__(self, env: Environment, cpu: Cpu, params: KernelParams, name: str = "bh",
                 metrics: Optional[MetricsRegistry] = None):
        self.env = env
        self.cpu = cpu
        self.params = params
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = self.metrics.tallies(name)
        #: live queue depth (+ high-water mark) of deferred work
        self._depth_gauge = self.metrics.gauge(f"{name}.queue_depth")
        self._queue: Store = Store(env, name=f"{name}.queue")
        env.spawn(self._worker(), name=f"{name}.worker")

    def schedule(self, work: Callable[[], Generator]) -> None:
        """Queue ``work`` (a generator factory) to run in softirq context."""
        self.counters["scheduled"] += 1
        self._queue.put_nowait(work)
        self._depth_gauge.set(len(self._queue.items))

    def pending(self) -> int:
        """Number of queued, not-yet-run bottom halves."""
        return len(self._queue.items)

    def _worker(self) -> Generator:
        while True:
            work = yield self._queue.get()
            self._depth_gauge.set(len(self._queue.items))
            yield from self.cpu.execute(
                self.params.bottom_half_dispatch_ns, PRIO_SOFTIRQ, label="bh_dispatch"
            )
            yield from work()
            self.counters["executed"] += 1


class IrqController:
    """Hardware interrupt fan-in for one CPU."""

    def __init__(self, env: Environment, cpu: Cpu, params: KernelParams, name: str = "irq"):
        self.env = env
        self.cpu = cpu
        self.params = params
        self.name = name
        self.counters = Counter()

    def raise_irq(self, handler: Callable[[], Generator], label: str = "irq") -> None:
        """Deliver an interrupt: run ``handler()`` in interrupt context.

        Fire-and-forget from the device's perspective (the NIC's IRQ line
        is edge-like here; re-arming is the coalescer's job).
        """
        self.counters["raised"] += 1
        self.env.spawn(self._service(handler, label), name=f"{self.name}.{label}")

    def _service(self, handler: Callable[[], Generator], label: str) -> Generator:
        yield from self.cpu.execute(self.params.irq_entry_ns, PRIO_IRQ, label="irq_entry")
        yield from handler()
        yield from self.cpu.execute(self.params.irq_exit_ns, PRIO_IRQ, label="irq_exit")
        self.counters["serviced"] += 1
