"""Host processor model.

The CPU is a single preemptible execution resource with four priority
levels mirroring the Linux execution contexts the paper reasons about:

========  =====  ==============================================
level     prio   used by
========  =====  ==============================================
IRQ       0      hardware interrupt handlers (preempt everything)
SOFTIRQ   2      bottom halves / softirq work
KERNEL    5      syscall bodies, protocol modules
USER      10     application computation
========  =====  ==============================================

Work is charged with :meth:`Cpu.execute`, a generator that acquires the
CPU at the given priority and burns the requested time, transparently
surviving preemption (the preempted work resumes with its remaining
time once the CPU frees up).  Interrupt-level work preempts user/kernel
work exactly as hardware interrupts steal cycles from applications —
which is how the Section 2 "one interrupt every 12 microseconds eats
the host CPU" effect emerges in the simulated bandwidth curves.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Generator, Optional

from ..config import CpuParams
from ..sim import (
    BusyTracker,
    Environment,
    Interrupt,
    Preempted,
    PreemptiveResource,
)

__all__ = ["Cpu", "PRIO_IRQ", "PRIO_SOFTIRQ", "PRIO_KERNEL", "PRIO_USER"]

PRIO_IRQ = 0
PRIO_SOFTIRQ = 2
PRIO_KERNEL = 5
PRIO_USER = 10


class Cpu:
    """A single host processor.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Static CPU costs.
    name:
        For traces ("node0.cpu").
    """

    def __init__(self, env: Environment, params: CpuParams, name: str = "cpu"):
        self.env = env
        self.params = params
        self.name = name
        self._res = PreemptiveResource(env, capacity=1, name=name)
        self.busy = BusyTracker()
        self.counters = Counter()
        #: work label -> its counter name, formatted once per label (a
        #: bulk run charges ~100k slices under a handful of labels)
        self._work_counters: Dict[str, str] = {}

    def execute(
        self,
        duration: float,
        priority: int = PRIO_USER,
        label: str = "",
    ) -> Generator:
        """Charge ``duration`` ns of CPU time at ``priority``.

        Yields until the work completes.  If preempted by higher-priority
        work, the remaining time is re-queued; total busy time charged is
        exactly ``duration`` (preemption overhead is charged by the
        preemptor, e.g. interrupt entry costs).
        """
        if duration < 0:
            raise ValueError(f"negative CPU work {duration!r}")
        remaining = float(duration)
        env = self.env
        preempt = priority <= PRIO_IRQ
        while remaining > 0:
            req = self._res.request(priority=priority, preempt=preempt)
            if req.callbacks is not None:  # not granted at once: wait
                try:
                    yield req
                except Interrupt as intr:
                    # A preemption can race with the grant when both land
                    # in the same timestep (grant callback queued, URGENT
                    # interrupt delivered first).  The resource has
                    # already evicted the granted slot; just retry with
                    # full remaining.
                    if not isinstance(intr.cause, Preempted):
                        raise
                    if not req.triggered:
                        req.cancel()
                    self.counters["preemptions"] += 1
                    continue
            started = env.now
            self.busy.acquire(started)
            try:
                yield env.timeout(remaining)
            except Interrupt as intr:
                if not isinstance(intr.cause, Preempted):
                    # Foreign interrupt: restore accounting, re-raise to caller.
                    self.busy.release(env.now)
                    self._safe_release(req)
                    raise
                self.busy.release(env.now)
                remaining -= env.now - started
                self.counters["preemptions"] += 1
                continue
            self.busy.release(env.now)
            self._res.release(req)
            remaining = 0.0
        self.counters[self._work_counter(label)] += duration

    def occupy(self, subwork: Generator, priority: int = PRIO_IRQ, label: str = "occupy") -> Generator:
        """Hold the CPU while ``subwork`` runs (busy-wait semantics).

        Models a driver routine that keeps the processor captive while a
        device operation completes — e.g. the paper's receive handler,
        which "remains active until all the data stored in the NIC
        buffers have been moved to system memory".  The CPU is accounted
        busy for the whole span.  Intended for IRQ-priority use, where
        nothing can preempt the holder.
        """
        req = self._res.request(priority=priority, preempt=priority <= PRIO_IRQ)
        yield req
        started = self.env.now
        self.busy.acquire(started)
        try:
            result = yield from subwork
        finally:
            self.busy.release(self.env.now)
            self.counters[self._work_counter(label)] += self.env.now - started
            self._safe_release(req)
        return result

    def _work_counter(self, label: str) -> str:
        name = self._work_counters.get(label)
        if name is None:
            name = self._work_counters[label] = f"work.{label or 'anon'}"
        return name

    def _safe_release(self, req) -> None:
        try:
            self._res.release(req)
        except Exception:  # pragma: no cover - defensive
            pass

    # -- conveniences ------------------------------------------------------
    def context_switch(self, priority: int = PRIO_KERNEL) -> Generator:
        """Charge one context switch."""
        self.counters["context_switches"] += 1
        yield from self.execute(
            self.params.context_switch_ns, priority, label="ctxsw"
        )

    def scheduler_pass(self, priority: int = PRIO_KERNEL) -> Generator:
        """Charge one scheduler pass."""
        self.counters["scheduler_passes"] += 1
        yield from self.execute(
            self.params.scheduler_pass_ns, priority, label="sched"
        )

    def utilization(self, now: Optional[float] = None) -> float:
        """Busy fraction since time zero."""
        t = self.env.now if now is None else now
        if t <= 0:
            return 0.0
        return self.busy.busy_time(t) / t

    def __repr__(self) -> str:
        return f"<Cpu {self.name} busy={self.busy.total_busy:,.0f}ns>"
