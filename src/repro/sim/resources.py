"""Queuing primitives for the simulation core.

* :class:`Server` — an exclusive server: one holder at a time, a FIFO of
  waiting claims per priority (lowest number first) and the integral of
  its busy time.  The PCI bus, the memory bus and each direction of a
  link are servers; the host CPU is one with preemption on top
  (:class:`repro.hw.cpu.Cpu`).
* :class:`Store` — a producer/consumer buffer of Python objects (NIC
  descriptor rings, switch port queues, protocol backlogs); a put
  nobody waits on (:meth:`Store.put_nowait`) makes no event.

Neither takes a queue entry that exists only as bookkeeping, and both put
every entry they do take at the ``(time, priority, seq)`` place the
resource-based model they replaced put it (a process holding a priority
resource; a store re-running a fixpoint after each operation).  A timed
hold whose completion timer nothing could observe takes no entry and
builds no claim: it completes in place (:meth:`Server.hold`).  DESIGN.md
§9 gives the rules.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from .core import NORMAL, Environment, Event, SimulationError, Timeout, TimerHandle

__all__ = ["Server", "Store", "StorePut", "StoreGet"]

_PENDING = Event._PENDING


class _Claim:
    """One claim on a :class:`Server`: a timed hold, or a hold-while
    (``remaining is None``) that runs until released."""

    __slots__ = ("priority", "remaining", "waiter", "carrier", "grant")

    def __init__(self, priority: int, remaining: Optional[float]):
        self.priority = priority
        #: service time still owed (ns); a preemptive server banks it down
        self.remaining = remaining
        #: callback list of the process waiting for the claim
        self.waiter: Optional[list] = None
        #: the event that currently carries ``waiter``; a claim whose
        #: start was scheduled makes it its completion timer
        self.carrier: Optional[Event] = None
        #: scheduled start of a granted claim that has not run yet
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


class Server:
    """An exclusive server: one holder at a time, the others wait.

    Claims are served lowest priority number first, FIFO within a
    priority.  A timed claim (:meth:`hold`) holds the server for a fixed
    time through one completion timer that carries the waiting process's
    callbacks; a hold-while (:meth:`acquire` … :meth:`release`) holds it
    around other work.

    Ordering is exact: grants and completions land where they would if
    the server were a priority resource whose waiter resumed, held and
    released it.  A claim the server can take now starts at once when
    the claimant is alone at this instant (the guard of
    :meth:`Environment._settle`); otherwise its start is scheduled at
    ``(now, NORMAL)``, where the resource's grant would sit, and so is
    the next claim's start when a holder finishes.  A scheduled start
    then queues the event its waiter already waits on as the completion
    timer, in the slot a fresh :class:`~repro.sim.Timeout` would take.

    A timed claim that starts at once *completes in place* when its
    completion timer would be the next entry the loop pops: the clock
    moves to its end and :meth:`hold` goes on without yielding, a claim
    object or a call into the scheduler (:meth:`hold` gives the rule).
    """

    def __init__(self, env: Environment):
        self.env = env
        #: the claim that owns the server (granted, maybe not started)
        self._holder: Optional[_Claim] = None
        #: priority -> FIFO of waiting claims; empty FIFOs are dropped
        self._waiting: Dict[int, List[_Claim]] = {}
        #: busy time of the runs that have ended (ns)
        self.total_busy = 0.0
        #: start of the run in progress (``None`` while none runs)
        self._busy_since: Optional[float] = None
        #: the start trampoline's callback, bound once
        self._start_next = self._start_holder

    def hold(self, duration: float, priority: int = 0) -> Generator:
        """Hold the server for ``duration`` ns at ``priority`` (lower is
        more important), waiting for it first while it is busy.

        The hold *completes in place* when the server is free, the
        claimant is alone at this instant (:meth:`Environment._alone`)
        and :meth:`Environment._skip_to` finds that its completion timer
        would be the next entry popped (nothing due now, nothing queued
        up to the end, on a tie the timer is kept, never past
        ``run(until=t)``).  The claimant would yield that timer before
        scheduling anything, so popping it would only resume the
        claimant alone at the end: nothing can observe the hold.  The
        clock moves to the end instead, drawing the timer's tie-break
        number, the run is added to the busy integral as
        :meth:`_finish` adds it, and the hold returns without yielding;
        no claim is built and the scheduler is not entered.
        """
        env = self.env
        now = env._now
        at_once = self._holder is None and env._alone()
        if at_once and env._skip_to(now + duration):
            self.total_busy += env._now - now
            return
        wait = self._claim(priority, duration, at_once)
        if wait is None or (yield wait) is None:
            self._finish()

    def acquire(self, priority: int = 0) -> Generator:
        """Wait for the server and hold it until :meth:`release`."""
        wait = self._claim(priority, None, self._holder is None and self.env._alone())
        if wait is not None:
            yield wait
        self._busy_since = self.env._now

    def release(self) -> None:
        """End the hold begun by :meth:`acquire`; the next claim is
        granted."""
        if self._busy_since is None:
            raise SimulationError(
                f"{self!r} released at t={self.env._now:,.0f} ns with no hold running"
            )
        self._finish()

    def busy_time(self, now: float) -> float:
        """Total busy time up to ``now`` (including a run in progress)."""
        since = self._busy_since
        return self.total_busy + ((now - since) if since is not None else 0.0)

    def utilization(self) -> float:
        """Busy fraction since time zero."""
        now = self.env.now
        if now <= 0:
            return 0.0
        return self.busy_time(now) / now

    # -- the scheduler ------------------------------------------------------
    def _claim(self, priority: int, duration: Optional[float],
               at_once: bool) -> Optional[Event]:
        """Grant, start or queue a claim for the running process.

        The caller has tested ``at_once``: the server is free and the
        claimant alone at this instant (the guard of
        :meth:`Environment._settle`).  A timed claim that could start at
        once has also failed to complete in place, so the caller read
        the queue once and :meth:`Environment._alone` and
        :meth:`Environment._skip_to` are not asked again.  Only a claim
        that must be remembered gets here: one that queues, is timed by
        an entry or is held across a yield.

        Returns the event the process waits on: a timed claim's
        completion timer, or a hold-while's grant — ``None`` when there
        is nothing to wait for (the hold-while runs at once, or a
        preemptor completed in place).
        """
        claim = _Claim(priority, duration)
        if self._holder is not None:
            return self._contend(claim)
        self._holder = claim
        return self._start(claim) if at_once else self._schedule_start(claim)

    def _contend(self, claim: _Claim) -> Optional[Event]:
        """The server is held: queue ``claim`` behind it."""
        self._enqueue(claim)
        return claim.hand_to(Event(self.env))

    def _enqueue(self, claim: _Claim) -> None:
        queue = self._waiting.get(claim.priority)
        if queue is None:
            queue = self._waiting[claim.priority] = []
        queue.append(claim)

    def _start(self, claim: _Claim) -> Optional[Event]:
        """Run ``claim``, the new holder, from now: arm a timed claim's
        completion timer (handed the waiter's callbacks), or let a
        hold-while continue."""
        remaining = claim.remaining
        if remaining is None:
            return None
        env = self.env
        self._busy_since = env._now
        return claim.hand_to(Timeout(env, remaining))

    def _schedule_start(self, claim: _Claim) -> Event:
        """Grant ``claim`` with its start at ``(now, NORMAL)``: a
        trampoline that arms a timed claim's timer, or a zero timeout that
        resumes a hold-while's process."""
        env = self.env
        if claim.remaining is None:
            return claim.hand_to(Timeout(env, 0))
        claim.grant = grant = TimerHandle(self._start_next)
        env._schedule(grant)
        if claim.carrier is None:
            claim.hand_to(Event(env))
        return claim.carrier

    def _start_holder(self) -> None:
        """The start trampoline: the holder's carrier, which no entry
        holds yet, becomes its completion timer."""
        claim = self._holder
        claim.grant = None
        env = self.env
        self._busy_since = env._now
        carrier = claim.carrier
        carrier._value = None
        env._schedule(carrier, NORMAL, claim.remaining)

    def _stop(self) -> None:
        """Close the run in progress into the busy integral."""
        self.total_busy += self.env._now - self._busy_since
        self._busy_since = None

    def _finish(self) -> None:
        """The holder is done: close its run (:meth:`_stop`, inlined) and
        grant the next waiting claim, if any."""
        self.total_busy += self.env._now - self._busy_since
        self._busy_since = None
        waiting = self._waiting
        if not waiting:
            self._holder = None
            return
        priority = min(waiting)
        queue = waiting[priority]
        claim = self._holder = queue.pop(0)
        if not queue:
            del waiting[priority]
        self._schedule_start(claim)


class StorePut(Event):
    """Put request on a :class:`Store`; triggers once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        # Event.__init__, inlined (one per frame per queue)
        self.env = env = store.env
        self.callbacks = []
        self._ok = True
        self._defused = False
        self.item = item
        if len(store.items) < store.capacity:
            # Room now: stored at creation (see Environment._settle).
            env._settle(self, None)
            getters = store._getters
            if getters:
                # a getter waits, so the store is empty: hand it over
                getter = getters.pop(0)
                getter._value = item
                env._schedule(getter)
            else:
                store.items.append(item)
        else:
            self._value = _PENDING
            store._putters.append(self)


class StoreGet(Event):
    """Get request on a :class:`Store`; triggers with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        self.env = env = store.env
        self.callbacks = []
        self._ok = True
        self._defused = False
        items = store.items
        if items:
            # An item waits: served at creation (see Environment._settle).
            env._settle(self, items.pop(0))
            putters = store._putters
            if putters:
                # a put waits, so the store was full: admit it
                put = putters.pop(0)
                items.append(put.item)
                put._value = None
                env._schedule(put)
        else:
            self._value = _PENDING
            store._getters.append(self)


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put(item)`` blocks (as an event) while the store is full;
    ``get()`` blocks while it is empty.  Every operation hands off
    directly, so there is never an item waiting beside a waiting getter,
    nor free room beside a waiting putter.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._putters: List[StorePut] = []
        self._getters: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Event that triggers once the item is stored."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Store ``item`` now, for a caller that would drop the put's
        event: hand it to the first waiting getter, or append it.

        The store must have room (it is unbounded, or the caller checked
        first); a full store raises :class:`SimulationError`.  No event
        is made: the :class:`StorePut` would settle at once with no
        callback, so its queue entry, if it took one, would run nothing,
        and an entry that runs nothing moves no other event (DESIGN.md
        §9).
        """
        getters = self._getters
        if getters:
            # a getter waits, so the store is empty: hand it over
            getter = getters.pop(0)
            getter._value = item
            self.env._schedule(getter)
        elif len(self.items) < self.capacity:
            self.items.append(item)
        else:
            raise SimulationError(f"put_nowait on full store {self.name!r}")

    def get(self) -> StoreGet:
        """Event that triggers with the next item."""
        return StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)
