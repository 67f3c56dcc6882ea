"""Discrete-event simulation core.

This module implements the event loop at the heart of the reproduction: a
deterministic, single-threaded discrete-event simulator in the style of
SimPy, built from scratch so the whole stack is self-contained.  Simulated
entities (CPUs, buses, NICs, kernel activities, user processes) are Python
generator *processes* that ``yield`` events; the :class:`Environment`
advances virtual time from one scheduled event to the next.

Time is measured in **nanoseconds** throughout the project (see
:mod:`repro.units`).  Entries run in ``(time, priority, seq)`` order:
URGENT before NORMAL at one timestamp, and FIFO in scheduling order
within a priority, which keeps every simulation bit-reproducible.  The
queue keeps that order without sorting what is due now: entries due at
the current time sit in two FIFO lanes (URGENT, NORMAL), and later
entries in one bucket per time, under a heap of the distinct times
(:class:`Environment` gives the argument).  Only NORMAL entries can be
later: an URGENT entry is always due now, and scheduling one with a
positive delay raises :class:`ValueError`.

Hot-path shortcuts keep the per-event Python cost down, each exact (the
same events run in the same order at the same times):

* :meth:`Environment.call_later` schedules a bare callback through a
  slotted :class:`TimerHandle` instead of the full ``Process`` +
  ``Timeout`` machinery — the dominant shape for protocol timers that
  are armed and cancelled far more often than they fire;
* :meth:`Environment.defer` runs a callback ordered exactly like a
  process spawned now that sleeps and then calls it (a zero-delay
  URGENT trampoline takes the queue slot the process's start event
  would have held) — per-frame hops use it instead of spawning;
* :meth:`Environment.tail_hop` is ``defer`` for a hop that ends its
  step: with the urgent lane empty the trampoline would pop next and
  only pass the callback on, so the callback is filed at once, one
  queue entry instead of two (link delivery, switch forwarding; the
  NIC's receive trampoline runs in place under the same guard);
* cancellation is *lazy*: :meth:`TimerHandle.cancel` just marks the
  handle dead, and the loop drops the stale entry when it reaches the
  head of the queue;
* an event the loop would pop next with nothing else to run in between
  is *born processed* instead of scheduled (:meth:`Environment._settle`
  holds the guard), so an uncontended store operation or server claim
  costs no queue entry and no process suspension;
* a timed server hold the loop would complete next, with nothing due
  before its end, *completes in place*: the clock moves to the end and
  the holder carries on without a claim object, a timer, a queue entry
  or a generator round trip (:meth:`Environment._skip_to` holds the
  guard, and keeps the clock inside ``run(until=t)``);
* a process nobody can wait on, started with :meth:`Environment.spawn`,
  *ends processed*: when its generator returns, its end event takes no
  queue entry, since an entry with no callback to run moves no other
  event (a spawned process that raises still schedules its end, so the
  failure surfaces from :meth:`Environment.run`); for the same reason
  a store put nobody waits on (:meth:`repro.sim.Store.put_nowait`)
  makes no event at all.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Generator, Iterator, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "TimerHandle",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "profiled",
]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Scheduling priority for events that must run before ordinary events at
#: the same timestamp (used internally, e.g. for process resumption after
#: an interrupt so the interrupt wins races deterministically).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: When a :func:`profiled` block is active, every new Environment
#: attaches an :class:`~repro.obs.profile.EnvProfiler` and registers it
#: here, so tooling (the physics gates, ``--json`` artifact capture) can
#: account simulator cost without threading a flag through every config.
_PROFILE_SINK: Optional[List[Any]] = None


@contextmanager
def profiled() -> Iterator[List[Any]]:
    """Profile every :class:`Environment` created inside the block.

    Yields the list the profilers accumulate into (one
    :class:`~repro.obs.profile.EnvProfiler` per environment, in creation
    order); aggregate it with
    :func:`repro.obs.profile.aggregate_profiles`.  Blocks nest — the
    inner block temporarily shadows the outer sink.
    """
    global _PROFILE_SINK
    sink: List[Any] = []
    prev, _PROFILE_SINK = _PROFILE_SINK, sink
    try:
        yield sink
    finally:
        _PROFILE_SINK = prev


class SimulationError(Exception):
    """Base class for errors raised by the simulation core."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    triggers it, scheduling its callbacks to run at the current simulation
    time.  Processes wait for events by ``yield``-ing them.

    Attributes
    ----------
    env:
        The environment the event lives in.
    callbacks:
        List of callables invoked with the event once it is processed.
        ``None`` after processing.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value (even if not yet processed)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is untriggered."""
        if self._value is Event._PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing ever waits, the environment raises it at the
        end of the step (an *undefused* failure), so programming errors
        cannot vanish silently.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    Construction is inlined (no ``Event.__init__``/``_schedule`` calls):
    a ``Timeout`` is the most frequently created object in the whole
    simulator, so it pays to assign the slots and queue the entry
    directly.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = delay
        env._seq += 1
        when = env._now + delay
        if when == env._now:
            env._ready.append(self)
        else:
            env._add_later(when, self)
        if env.profiler is not None:
            env.profiler.on_schedule(env._depth())


class TimerHandle:
    """A one-shot scheduled callback (see :meth:`Environment.call_later`).

    The cheap alternative to a timer *process*: one slotted object, one
    queue entry, and a bare no-argument callable stored in the
    ``callbacks`` slot (the event loop dispatches on its type).  The
    reliability/coalescing timers arm and cancel these constantly and
    only rarely let them fire.

    :meth:`cancel` is O(1) and lazy — the dead entry is discarded when
    the loop pops it, without touching the rest of the queue.  A
    fired or cancelled handle is never reused (pooling handles was
    considered and rejected: a stale ``cancel()`` on a recycled handle
    would silently kill an unrelated timer).
    """

    __slots__ = ("callbacks",)

    def __init__(self, fn: Callable[[], None]):
        self.callbacks = fn

    @property
    def active(self) -> bool:
        """``True`` while the callback is still scheduled to run."""
        return self.callbacks is not None

    def cancel(self) -> None:
        """Stop the callback from running (idempotent, O(1))."""
        self.callbacks = None

    def __repr__(self) -> str:
        state = "active" if self.callbacks is not None else "dead"
        return f"<TimerHandle {state} at {hex(id(self))}>"


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """Whatever the interrupter passed as the cause."""
        return self.args[0]


class _Initialize(Event):
    """Starts a newly created process on the next event-loop step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, priority=URGENT)


class Process(Event):
    """A process wrapping a generator.

    The process itself is an event that triggers when the generator
    returns (with its return value) or raises (with the exception), so
    processes can wait for each other simply by yielding them.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event the process is currently waiting for (or None).
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator has terminated."""
        return self._value is Event._PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered on the next event-loop step with URGENT
        priority.  Interrupting a dead process, or a process from within
        itself, is an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=URGENT)

    # -- internal -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        env = self.env
        env._active_proc = self
        # Disconnect from a pending target if we are being interrupted
        # while waiting on some other event.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, exc.__traceback__)
            except StopIteration as exc:
                env._active_proc = None
                self._ok = True
                self._value = exc.value
                if type(self) is _Spawned:
                    self.callbacks = None  # nobody can wait: ends processed
                else:
                    env._schedule(self)
                return
            except BaseException as exc:
                env._active_proc = None
                self._ok = False
                self._value = exc
                env._schedule(self)
                return
            # The generator yielded an event to wait for.
            if not isinstance(next_event, Event):
                env._active_proc = None
                err = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                self._generator.close()
                self._ok = False
                self._value = err
                env._schedule(self)
                return
            if next_event.callbacks is not None:
                # Event still pending: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop and resume immediately with it.
            event = next_event
        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Spawned(Process):
    """A process started by :meth:`Environment.spawn`: no handle is
    returned, so nothing can wait on its end."""

    __slots__ = ()


class Environment:
    """The simulation environment: clock plus event queue.

    The queue runs entries in ``(time, priority, seq)`` order, ``seq``
    being the scheduling order, without a heap over the entries:

    * ``_urgent`` and ``_ready`` are FIFO lanes of the URGENT and NORMAL
      entries due at ``now``;
    * ``_later`` maps each later time to its entries in scheduling
      order (one entry as itself, two or more as a list), and ``_times``
      is a heap of those times.

    Only NORMAL entries may be scheduled for a later time: an URGENT
    entry must be due now (:meth:`_schedule` refuses a positive delay at
    URGENT), which is all the model ever asks for.  Sequence numbers
    only grow, so an entry scheduled for ``t`` while the clock reads
    ``t`` sorts after every entry queued for ``t`` before.  When the
    clock moves to ``t`` (both lanes are then empty), ``t``'s bucket
    goes to the ready lane; what is scheduled during ``t`` is appended
    behind it.  Popping the urgent lane, then the ready lane, is thus
    ``(time, priority, seq)`` order.  The clock moves only to a live
    entry: a cancelled one is dropped where it lies, and a bucket whose
    head is dead gives up that head alone, as one heap would.

    The clock starts at 0 ns.

    Parameters
    ----------
    profile:
        When true, attach an :class:`~repro.obs.profile.EnvProfiler`
        that tallies events per process/type and the queue's high-water
        mark (see :attr:`profiler`).  Off by default: the disabled cost
        is one ``is None`` check per scheduled/processed event.
    """

    def __init__(self, profile: bool = False):
        self._now = 0
        self._urgent: deque = deque()
        self._ready: deque = deque()
        self._later: dict = {}
        self._times: list = []
        #: entries in ``_later`` beyond the first at their time
        self._shared = 0
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: callback list of the event being dispatched (see _settle)
        self._dispatch: Any = ()
        #: the ``t`` of the ``run(until=t)`` in progress: nothing may
        #: move the clock past it (see _skip_to)
        self._until = float("inf")
        #: optional :class:`~repro.obs.profile.EnvProfiler`
        self.profiler = None
        #: optional :class:`~repro.sim.flowmode.FlowModeController` — the
        #: hybrid flow/packet engine's eligibility oracle.  ``None`` (the
        #: default) means every frame is simulated discretely at every
        #: hop; the cluster builder installs a controller when
        #: ``SimParams.flow_mode == "auto"``.
        self.flow = None
        if profile or _PROFILE_SINK is not None:
            self.enable_profiling()
        if _PROFILE_SINK is not None:
            _PROFILE_SINK.append(self.profiler)

    def enable_profiling(self):
        """Attach (or return the existing) event-loop profiler."""
        if self.profiler is None:
            from ..obs.profile import EnvProfiler

            self.profiler = EnvProfiler()
        return self.profiler

    # -- clock & introspection -------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (ns)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Lazily prunes cancelled timer entries from the head of the queue
        so the answer always refers to an event that will actually run.
        """
        while True:
            when, entry = self._head()
            if entry is None or entry.callbacks is not None:
                return when
            self._pop()  # lazily-cancelled timer: drop and retry

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that triggers after ``delay`` ns."""
        return Timeout(self, delay)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def spawn(self, generator: Generator, name: str = "") -> None:
        """Start a process running ``generator`` that nobody waits on.

        It starts exactly as :meth:`process` starts one, but no handle is
        returned, so no waiter can ever join its end event's callbacks.
        When the generator returns, that event is therefore marked
        processed instead of scheduled: its queue entry would run
        nothing, and an entry that runs nothing moves no other event
        (the guards of :meth:`_settle` and :meth:`_skip_to` only see
        fewer entries due now).  A spawned process that raises still
        schedules its end, so the failure surfaces from :meth:`run`.
        """
        _Spawned(self, generator, name=name)

    def call_later(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> TimerHandle:
        """Schedule ``fn()`` to run after ``delay`` ns; returns a handle.

        The fast path for one-shot timers: compared to spawning a
        process that yields a :class:`Timeout`, this allocates one
        slotted handle and one queue entry, and cancellation via
        :meth:`TimerHandle.cancel` leaves the dead entry to be dropped
        lazily by the loop.  ``fn`` takes no arguments and must not
        raise (an exception would abort the whole simulation, exactly
        as an undefused failure does).  At :data:`URGENT`, ``delay``
        must be 0 (see :meth:`_schedule`).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        handle = TimerHandle(fn)
        self._schedule(handle, priority, delay)
        return handle

    def defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` ns, ordered exactly as a process
        spawned now that yields ``timeout(delay)`` and then calls ``fn``.

        A zero-delay URGENT trampoline takes the queue slot the process's
        start event would have held; when it runs it schedules ``fn``,
        drawing the tie-break sequence number the process's timeout
        would have drawn.  So ``fn`` runs in the same place among
        same-time events as the process body would, for two timer
        handles — no generator, no ``Process`` and no end-of-process
        event.  ``fn`` must not raise (as for :meth:`call_later`).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.call_later(0, partial(self.call_later, delay, fn), URGENT)

    def tail_hop(self, delay: float, fn: Callable[[], None]) -> None:
        """:meth:`defer` for a hop that ends its step: ``fn()`` runs where
        ``defer`` would run it, from one queue entry instead of two
        whenever the trampoline would only pass the entry on.

        With the urgent lane empty, ``defer``'s trampoline would be the
        next entry popped, with nothing run before it, and all it would
        do is file ``fn`` at ``now + delay``.  So, for a positive
        ``delay``, ``fn`` is filed now, drawing the tie-break number the
        trampoline would have drawn.  Otherwise this is ``defer``.

        The caller's obligation: it is the sole callback of the event
        being dispatched (or a whole timer callback), and after this call
        it files nothing more before its step ends, apart from further
        tail hops in order and a store get its process yields at once
        (the get files only at ``now``, where a later ``fn`` cannot
        move it; a zero ``delay`` would, so it keeps the trampoline).
        ``tests/test_tail_sites.py`` holds every call site to being the
        last statement of its block.
        """
        if delay > 0 and not self._urgent:
            # call_later(delay, fn), inlined (one per frame per hop)
            self._seq += 1
            self._add_later(self._now + delay, TimerHandle(fn))
            if self.profiler is not None:
                self.profiler.on_schedule(self._depth())
        else:
            self.defer(delay, fn)

    def _tail(self) -> bool:
        """Whether a zero-delay URGENT entry filed now by a caller that
        ends its step (:meth:`tail_hop`'s obligation) would be the next
        entry popped, with nothing run before it: the urgent lane is
        empty."""
        return not self._urgent

    # -- scheduling & the loop ---------------------------------------------
    def _schedule(self, event: Any, priority: int = NORMAL, delay: float = 0) -> None:
        """Queue ``event`` (an event or a timer handle) ``delay`` ns from
        now at ``priority`` (:data:`URGENT` or :data:`NORMAL`).

        Raises :class:`ValueError` for a positive delay at URGENT: an
        URGENT entry runs ahead of what is due now, and nothing in the
        model needs one later (the queue keeps no place for it).
        """
        when = self._now + delay
        if when == self._now:
            (self._ready if priority else self._urgent).append(event)
        elif priority:
            self._add_later(when, event)
        else:
            raise ValueError(f"URGENT entry with positive delay {delay!r}")
        self._seq += 1
        if self.profiler is not None:
            self.profiler.on_schedule(self._depth())

    def _add_later(self, when: float, entry: Any) -> None:
        """Append an ``entry`` due at the later time ``when`` to that
        time's bucket."""
        later = self._later
        bucket = later.get(when)
        if bucket is None:
            later[when] = entry
            _heappush(self._times, when)
            return
        if type(bucket) is list:
            bucket.append(entry)
        else:
            later[when] = [bucket, entry]
        self._shared += 1

    def _depth(self) -> int:
        """Entries in the queue, cancelled ones included."""
        return len(self._urgent) + len(self._ready) + len(self._later) + self._shared

    def _head(self) -> tuple:
        """``(time, entry)`` of the next entry to pop, live or cancelled;
        ``(inf, None)`` when the queue is empty."""
        if self._urgent:
            return self._now, self._urgent[0]
        if self._ready:
            return self._now, self._ready[0]
        times = self._times
        if times:
            bucket = self._later[times[0]]
            return times[0], bucket[0] if type(bucket) is list else bucket
        return float("inf"), None

    def _pop(self) -> Any:
        """Remove and return the next entry (``None`` when there is none),
        moving the clock to its time if it is live."""
        if self._urgent:
            return self._urgent.popleft()
        if self._ready:
            return self._ready.popleft()
        times = self._times
        if not times:
            return None
        when = times[0]
        entry = self._later[when]
        if type(entry) is list:
            if len(entry) > 1 and entry[0].callbacks is None:
                self._shared -= 1
                return entry.pop(0)  # a dead head leaves alone
            self._take()
            entry = self._ready.popleft()
        else:
            del self._later[when]
            _heappop(times)
        if entry.callbacks is not None:
            self._now = when
        return entry

    def _take(self) -> None:
        """Move the earliest bucket into the (empty) ready lane."""
        bucket = self._later.pop(_heappop(self._times))
        if type(bucket) is list:
            self._shared -= len(bucket) - 1
            self._ready.extend(bucket)
        else:
            self._ready.append(bucket)

    def _alone(self, priority: int = NORMAL) -> bool:
        """Whether the running process is alone at this instant ahead of
        a zero-delay entry at ``priority``: it is the sole callback of the
        event being dispatched, and no entry due now pops before that one
        (the urgent lane is empty and, for NORMAL, the ready lane too;
        what the clock reached has already left the buckets)."""
        return (self._active_proc is not None and len(self._dispatch) == 1
                and not self._urgent and not (priority and self._ready))

    def _skip_to(self, when: float) -> bool:
        """Move the clock to ``when`` as the loop would by popping an
        entry scheduled now for that time, if it would pop that entry
        next; ``False`` (nothing done) otherwise.

        The entry would pop next when nothing is due now (both lanes are
        empty), the earliest later time is strictly after ``when`` (an
        entry already queued at ``when`` sorts first) and ``when`` does
        not pass the ``t`` of a ``run(until=t)``.  The tie-break number
        the entry would have drawn is drawn.  Callers make sure the
        entry's one callback resumes the running process alone
        (:meth:`repro.sim.resources.Server.hold`).
        """
        times = self._times
        if (self._urgent or self._ready or when > self._until
                or (times and times[0] <= when)):
            return False
        self._seq += 1
        self._now = when
        return True

    def _settle(self, event: Event, value: Any) -> None:
        """Succeed a fresh ``event`` that its creator yields at once:
        born processed when that cannot reorder anything, else scheduled.

        Scheduled, the event would sit at ``(now, NORMAL)`` and the loop
        would resume its creator when it pops.  It is born processed (the
        creator's ``yield`` continues at once) only when nothing could
        run in between, i.e. when all three hold:

        * it is granted at creation — the only time callers use this
          (a store operation satisfied at once);
        * a process is running and is the sole callback of the event
          being dispatched (no sibling callback runs after it);
        * nothing else is due at ``now`` (both lanes are empty; what the
          clock reached left its bucket when the clock got here).

        Callers also yield the event before scheduling anything else:
        an URGENT event scheduled in between would have run first.

        The last two conditions are :meth:`_alone`: an exclusive
        :class:`~repro.sim.resources.Server` (the CPU, the buses, the
        wire) tests the same guard to start a claim at once where a
        resource grant would have been born processed.
        """
        event._value = value
        if self._alone():
            event.callbacks = None
            return
        self._seq += 1
        self._ready.append(event)
        if self.profiler is not None:
            self.profiler.on_schedule(self._depth())

    def step(self) -> None:
        """Process the next scheduled event (advancing the clock).

        A lazily-cancelled timer entry at the head of the queue is
        dropped without running anything or advancing the clock (it is
        no longer an event, just garbage awaiting collection).

        One step may move the clock more than once: a process it resumes
        can complete timed server holds in place
        (:meth:`repro.sim.resources.Server.hold`), each moving the
        clock to its end because nothing is due before it.  Inside
        ``run(until=t)`` the clock never passes ``t``.
        """
        event = self._pop()
        if event is None:
            raise SimulationError("no more events")
        callbacks = event.callbacks
        if callbacks is None:
            return  # cancelled timer: drop the dead entry
        event.callbacks = None
        if self.profiler is not None:
            self.profiler.on_step(event, callbacks)
        if type(callbacks) is list:
            self._dispatch = callbacks
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failure nobody waited on: surface it loudly.
                exc = event._value
                raise exc
        else:
            callbacks()  # TimerHandle fast path: a bare callable

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulation time), or an :class:`Event` (run until
        it is processed, returning its value).
        """
        stop_at = None
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.processed:
                    return stop_event.value if stop_event._ok else self._reraise(stop_event)
                stop_event.callbacks.append(self._stop_callback)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until ({stop_at}) must not be earlier than now ({self._now})"
                    )
                until_before, self._until = self._until, stop_at
        try:
            if stop_at is None and self.profiler is None:
                # Hot loop: ``step()`` inlined, popping the lanes
                # directly.  Event semantics are identical to ``step()``
                # (the ordering tests in tests/sim pin this).
                urgent, ready = self._urgent, self._ready
                later, times = self._later, self._times
                pop_urgent, pop_ready, pop = urgent.popleft, ready.popleft, self._pop
                while True:
                    if urgent:
                        event = pop_urgent()
                    elif ready:
                        event = pop_ready()
                    elif times and type(later[times[0]]) is not list:
                        # ``_pop`` of the next time's lone entry, inlined
                        when = _heappop(times)
                        event = later.pop(when)
                        if event.callbacks is not None:
                            self._now = when
                    else:
                        event = pop()
                        if event is None:
                            break
                    callbacks = event.callbacks
                    if callbacks is None:
                        continue  # lazily-cancelled timer entry
                    event.callbacks = None
                    if type(callbacks) is list:
                        self._dispatch = callbacks
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise event._value
                    else:
                        callbacks()  # TimerHandle fast path
            else:
                while True:
                    when, head = self._head()
                    if head is None:
                        break
                    if stop_at is not None and when > stop_at:
                        self._now = stop_at
                        return None
                    self.step()
        except StopSimulation as stop:
            return stop.value
        finally:
            if stop_at is not None:
                self._until = until_before
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                f"event queue drained but {stop_event!r} never triggered"
            )
        if stop_event is not None:
            return stop_event.value if stop_event._ok else self._reraise(stop_event)
        if stop_at is not None:
            self._now = stop_at
        return None

    @staticmethod
    def _reraise(event: Event) -> None:
        raise event._value

    def _stop_callback(self, event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
