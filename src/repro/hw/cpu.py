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
the CPU at the given priority and burns the requested time.  The CPU
schedules these *slices* itself: a FIFO of waiting slices per priority
and one completion timer for the running slice.  IRQ-priority work
preempts lower-priority work exactly as hardware interrupts steal
cycles from applications — the running slice's timer is cancelled, its
remaining time banked and the slice re-queued, and it resumes with the
rest once the CPU frees up.  That is how the Section 2 "one interrupt
every 12 microseconds eats the host CPU" effect emerges in the
simulated bandwidth curves.  :meth:`Cpu.occupy` holds the CPU captive
while a device operation runs; nothing preempts it.

Scheduling order is exact: every grant, preemption and completion
lands at the same ``(time, priority, seq)`` place in the event heap as
it would if each slice were a process holding a preemptible resource
(DESIGN.md §9 gives the argument).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from heapq import heappop
from typing import Deque, Dict, Generator, Optional

from ..config import CpuParams
from ..sim import BusyTracker, Environment, Event, Timeout
from ..sim.core import URGENT

__all__ = ["Cpu", "PRIO_IRQ", "PRIO_SOFTIRQ", "PRIO_KERNEL", "PRIO_USER"]

PRIO_IRQ = 0
PRIO_SOFTIRQ = 2
PRIO_KERNEL = 5
PRIO_USER = 10


class _Slice:
    """One claim on the CPU: a timed slice, or an ``occupy`` hold
    (``remaining is None``)."""

    __slots__ = ("priority", "remaining", "started", "waiter", "carrier", "grant")

    def __init__(self, priority: int, remaining: Optional[float]):
        self.priority = priority
        #: CPU time still owed (ns); banked down at each preemption
        self.remaining = remaining
        #: when the current run began
        self.started = 0.0
        #: callback list of the process waiting for the slice to end
        self.waiter: Optional[list] = None
        #: the event that currently carries ``waiter``
        self.carrier: Optional[Event] = None
        #: scheduled start of a granted slice that has not run yet
        self.grant = None

    def hand_to(self, event: Event) -> Event:
        """Make ``event`` the one whose processing resumes the waiting
        process (the first such event is the one the process yields)."""
        if self.carrier is None:
            self.waiter = event.callbacks
        else:
            event.callbacks = self.waiter
            self.carrier.callbacks = None
        self.carrier = event
        return event


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
        self.busy = BusyTracker()
        self.counters = Counter()
        #: the slice or hold that owns the CPU (granted, maybe not started)
        self._holder: Optional[_Slice] = None
        #: priority -> FIFO of waiting slices; empty FIFOs are dropped
        self._waiting: Dict[int, Deque[_Slice]] = {}
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
        preemptor, e.g. interrupt entry costs).  Zero work schedules
        nothing.
        """
        if duration < 0:
            raise ValueError(f"negative CPU work {duration!r}")
        if duration > 0:
            banked_out = yield self._claim(_Slice(priority, float(duration)))
            self.busy.release(self.env._now)
            if banked_out:
                # preempted at the instant it would have ended: the
                # preemption left no time to run
                self.counters["preemptions"] += 1
            else:
                self._release()
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
        wait = self._claim(_Slice(priority, None))
        if wait is not None:
            yield wait
        started = self.env.now
        self.busy.acquire(started)
        try:
            result = yield from subwork
        finally:
            self.busy.release(self.env.now)
            self.counters[self._work_counter(label)] += self.env.now - started
            self._release()
        return result

    def _work_counter(self, label: str) -> str:
        name = self._work_counters.get(label)
        if name is None:
            name = self._work_counters[label] = f"work.{label or 'anon'}"
        return name

    # -- the scheduler ------------------------------------------------------
    def _claim(self, claim: _Slice) -> Optional[Event]:
        """Queue, grant or start ``claim`` for the running process.

        Returns the event the process waits on: a slice's completion
        timer (value ``True`` if a preemption banked it down to nothing),
        or a hold's grant — ``None`` when the hold runs at once.

        A claim the CPU can serve now starts at once when the process is
        alone at this instant (:meth:`Environment._alone`: nothing could
        run before it yields); otherwise its start is scheduled at
        ``(now, NORMAL)``, where a resource grant would sit.
        """
        env = self.env
        holder = self._holder
        if holder is None:
            self._holder = claim
            if env._alone():
                return self._start(claim)
            return self._schedule_start(claim)
        if (claim.priority <= PRIO_IRQ and holder.priority > claim.priority
                and holder.remaining is not None):
            self._holder = claim
            if self._evict(holder):
                return self._start(claim)
            return self._schedule_start(claim)
        self._enqueue(claim)
        return claim.hand_to(Event(env))

    def _evict(self, victim: _Slice) -> bool:
        """Preempt the ``victim`` slice; return ``True`` if its preemptor
        may start at once.

        A granted slice that has not started yet (grant and preemption
        in one timestep) is charged nothing; its dead start entry is
        dropped at once if it heads the heap.  A running one has its
        timer cancelled and its remaining time banked.

        The slice is re-queued where a preempted process would re-request
        the CPU: on an URGENT zero-delay entry.  It is re-queued at once
        instead when nothing could run before that entry — the preemptor
        is the sole callback being dispatched and no other URGENT entry
        is due now.  If, further, nothing at all is due now, the
        preemptor may start at once too: a preemptor's grant waits in the
        heap only behind that URGENT entry.  A slice banked down to
        nothing ends instead: its waiter resumes on the URGENT entry.
        """
        env = self.env
        queue = env._queue
        now = env._now
        grant = victim.grant
        if grant is not None:
            grant.cancel()
            victim.grant = None
            if queue[0][3] is grant:
                heappop(queue)
            ran = False
        else:
            victim.carrier.callbacks = None
            victim.remaining -= now - victim.started
            ran = True
            if not victim.remaining > 0:
                done = victim.hand_to(Event(env))
                done._value = True
                env._schedule(done, URGENT)
                return False
        if (env._active_proc is not None and len(env._dispatch) == 1
                and not (queue and queue[0][0] == now and queue[0][1] == URGENT)):
            self._requeue(victim, ran)
            return not queue or queue[0][0] > now
        env.call_later(0, partial(self._requeue, victim, ran), URGENT)
        return False

    def _requeue(self, victim: _Slice, ran: bool) -> None:
        # The preemptor holds the CPU until its start, which comes after
        # this: the victim always waits.
        if ran:
            self.busy.release(self.env._now)
        self.counters["preemptions"] += 1
        self._enqueue(victim)

    def _enqueue(self, claim: _Slice) -> None:
        queue = self._waiting.get(claim.priority)
        if queue is None:
            queue = self._waiting[claim.priority] = deque()
        queue.append(claim)

    def _start(self, claim: _Slice) -> Optional[Timeout]:
        """Run ``claim`` from now: arm a slice's completion timer (handed
        the waiter's callbacks), or let a hold's process continue."""
        if claim.remaining is None:
            return None
        env = self.env
        claim.started = env._now
        self.busy.acquire(claim.started)
        return claim.hand_to(Timeout(env, claim.remaining))

    def _schedule_start(self, claim: _Slice) -> Event:
        """Grant ``claim`` with its start at ``(now, NORMAL)``: a
        trampoline that arms a slice's timer, or a zero timeout that
        resumes a hold's process."""
        env = self.env
        if claim.remaining is None:
            return claim.hand_to(Timeout(env, 0))
        claim.grant = env.call_later(0, self._start_holder)
        if claim.carrier is None:
            claim.hand_to(Event(env))
        return claim.carrier

    def _start_holder(self) -> None:
        claim = self._holder
        claim.grant = None
        self._start(claim)

    def _release(self) -> None:
        """The holder is done: grant the next waiting claim, if any."""
        waiting = self._waiting
        if not waiting:
            self._holder = None
            return
        priority = min(waiting)
        queue = waiting[priority]
        claim = self._holder = queue.popleft()
        if not queue:
            del waiting[priority]
        self._schedule_start(claim)

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
