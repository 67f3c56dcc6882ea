"""Host processor model.

The CPU is a single preemptible processor with four priority levels
mirroring the Linux execution contexts the paper reasons about:

========  =====  ==============================================
level     prio   used by
========  =====  ==============================================
IRQ       0      hardware interrupt handlers (preempt everything)
SOFTIRQ   2      bottom halves / softirq work
KERNEL    5      syscall bodies, protocol modules
USER      10     application computation
========  =====  ==============================================

Work is charged with :meth:`Cpu.execute`, a generator that waits for
the CPU at the given priority and burns the requested time.  The CPU is
an exclusive :class:`~repro.sim.Server` — a FIFO of waiting *slices*
per priority and one completion timer for the running slice, or none
when nothing could run before its end — plus preemption, which is all
this module adds.  IRQ-priority work
preempts lower-priority work exactly as hardware interrupts steal
cycles from applications — the running slice's timer is cancelled, its
remaining time banked and the slice re-queued, and it resumes with the
rest once the CPU frees up.  That is how the Section 2 "one interrupt
every 12 microseconds eats the host CPU" effect emerges in the
simulated bandwidth curves.  :meth:`Cpu.occupy` holds the CPU captive
while a device operation runs; nothing preempts it.

Scheduling order is exact: every grant, preemption and completion
lands at the same ``(time, priority, seq)`` place in the event queue as
it would if each slice were a process holding a preemptible resource
(DESIGN.md §9 gives the argument).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Dict, Generator, Optional

from ..config import CpuParams
from ..sim import Environment, Event, Server
from ..sim.core import URGENT
from ..sim.resources import _Claim

__all__ = ["Cpu", "PRIO_IRQ", "PRIO_SOFTIRQ", "PRIO_KERNEL", "PRIO_USER"]

PRIO_IRQ = 0
PRIO_SOFTIRQ = 2
PRIO_KERNEL = 5
PRIO_USER = 10


class Cpu(Server):
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
        super().__init__(env)
        self.params = params
        self.name = name
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

        Yields until the work completes (not at all when the slice
        completes in place, see :meth:`Server.hold`).  If preempted by
        higher-priority work, the remaining time is re-queued; total busy
        time charged is exactly ``duration`` (preemption overhead is
        charged by the preemptor, e.g. interrupt entry costs).  Zero work
        schedules nothing.
        """
        if duration < 0:
            raise ValueError(f"negative CPU work {duration!r}")
        if duration > 0:
            # :meth:`hold`, inlined on the simulator's hottest claim
            env = self.env
            now = env._now
            remaining = float(duration)
            at_once = self._holder is None and env._alone()
            if at_once and env._skip_to(now + remaining):
                # completed in place: no claim, no timer
                self.total_busy += env._now - now
            else:
                wait = self._claim(priority, remaining, at_once)
                if wait is None or (yield wait) is None:
                    self._finish()
        self.counters[self._work_counter(label)] += duration

    def occupy(self, subwork: Generator, priority: int = PRIO_IRQ, label: str = "occupy") -> Generator:
        """Hold the CPU while ``subwork`` runs (busy-wait semantics).

        Models a driver routine that keeps the processor captive while a
        device operation completes — e.g. the paper's receive handler,
        which "remains active until all the data stored in the NIC
        buffers have been moved to system memory".  The CPU is accounted
        busy for the whole span, and nothing preempts the holder.
        Intended for IRQ priority.
        """
        yield from self.acquire(priority)
        started = self.env.now
        try:
            result = yield from subwork
        finally:
            self.counters[self._work_counter(label)] += self.env.now - started
            self.release()
        return result

    def _work_counter(self, label: str) -> str:
        name = self._work_counters.get(label)
        if name is None:
            name = self._work_counters[label] = f"work.{label or 'anon'}"
        return name

    # -- preemption ------------------------------------------------------------
    def _contend(self, claim: _Claim) -> Optional[Event]:
        """An IRQ-level claim evicts a less important running slice;
        anything else queues."""
        holder = self._holder
        if (claim.priority <= PRIO_IRQ and holder.priority > claim.priority
                and holder.remaining is not None):
            self._holder = claim
            if self._evict(holder):
                # alone now: a timed preemptor may complete in place
                # (see Server.hold); ``None`` tells it to finish
                env = self.env
                now = env._now
                if claim.remaining is not None and env._skip_to(now + claim.remaining):
                    self._busy_since = now
                    return None
                return self._start(claim)
            return self._schedule_start(claim)
        return super()._contend(claim)

    def _evict(self, victim: _Claim) -> bool:
        """Preempt the ``victim`` slice; return ``True`` if its preemptor
        may start at once.

        A granted slice that has not started yet (grant and preemption
        in one timestep) is charged nothing; its dead start entry is
        dropped at once if it heads the queue.  A running one has its
        timer cancelled, its waiter moved to a fresh unqueued event (the
        completion timer of its next start) and its remaining time
        banked.

        The slice is re-queued where a preempted process would re-request
        the CPU: on an URGENT zero-delay entry.  It is re-queued at once
        instead when nothing could run before that entry — the preemptor
        is alone ahead of it (:meth:`Environment._alone` at URGENT).  If
        it is alone ahead of a NORMAL entry too, the preemptor may start
        at once: a preemptor's grant waits in the queue only behind that
        URGENT entry.  A slice banked down to nothing ends
        instead: its waiter resumes on the URGENT entry.
        """
        env = self.env
        grant = victim.grant
        if grant is not None:
            grant.cancel()
            victim.grant = None
            if env._head()[1] is grant:
                env._pop()
            ran = False
        else:
            victim.hand_to(Event(env))
            victim.remaining -= env._now - self._busy_since
            ran = True
            if not victim.remaining > 0:
                # preempted at the instant it would have ended: the
                # preemption left no time to run
                self._stop()
                self.counters["preemptions"] += 1
                victim.carrier._value = True
                env._schedule(victim.carrier, URGENT)
                return False
        if env._alone(URGENT):
            self._requeue(victim, ran)
            return env._alone()
        env.call_later(0, partial(self._requeue, victim, ran), URGENT)
        return False

    def _requeue(self, victim: _Claim, ran: bool) -> None:
        # The preemptor holds the CPU until its start, which comes after
        # this: the victim always waits.
        if ran:
            self._stop()
        self.counters["preemptions"] += 1
        self._enqueue(victim)

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

    def __repr__(self) -> str:
        return f"<Cpu {self.name} busy={self.total_busy:,.0f}ns>"
