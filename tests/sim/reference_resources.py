"""Reference models for the event queue, the exclusive server and the
store (test-only).

The heap-queued environment, the counted resource, the priority resource
(with its ``preempt`` flag), busy-interval tracking and the fixpoint
store below are the shapes the simulator's :class:`repro.sim.Environment`
queue, :class:`repro.sim.Server` and :class:`repro.sim.Store` must
reproduce event for event.  ``test_ordering_invariants.py`` replays
random scenarios against them; nothing under ``src/`` uses them.
:func:`pending` lists what the simulator's queue holds.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.sim import Environment, Event
from repro.sim.core import NORMAL, URGENT


class HeapEnvironment(Environment):
    """The event queue as one heap of ``(time, priority, seq, entry)``.

    Overrides only the queue primitives (:meth:`Environment.step`,
    :meth:`~Environment.peek` and both loops of
    :meth:`~Environment.run` go through them) and :meth:`timeout` (a
    :class:`~repro.sim.Timeout` queues itself), so it covers bare
    entries scheduled, cancelled and run; the guards of ``_settle`` and
    the servers read the lanes and do not apply to it.
    """

    def __init__(self):
        super().__init__()
        self._queue: list = []

    def timeout(self, delay: float) -> Event:
        event = Event(self)
        event._value = None
        self._schedule(event, NORMAL, delay)
        return event

    def _schedule(self, event: Any, priority: int = NORMAL, delay: float = 0) -> None:
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def _depth(self) -> int:
        return len(self._queue)

    def _head(self) -> tuple:
        if self._queue:
            return self._queue[0][0], self._queue[0][3]
        return float("inf"), None

    def _pop(self) -> Any:
        if not self._queue:
            return None
        when, _, _, entry = heappop(self._queue)
        if entry.callbacks is not None:
            self._now = when
        return entry


def pending(env: Environment, live: bool = False) -> List[Tuple[float, int]]:
    """``(time, priority)`` of every entry in the simulator's queue, in
    pop order: cancelled ones included, or with ``live`` left out."""

    def count(entries):
        return sum(1 for entry in entries if not live or entry.callbacks is not None)

    now = env._now
    later = []
    for when, bucket in env._later.items():
        later += [(when, NORMAL)] * count(bucket if type(bucket) is list else [bucket])
    return ([(now, URGENT)] * count(env._urgent) + [(now, NORMAL)] * count(env._ready)
            + sorted(later))


def due_now(env: Environment) -> Tuple[bool, bool]:
    """Whether any entry, and any URGENT entry, is due now: the heap head
    is at ``now``, or (as the simulator's guards read it) a lane is not
    empty."""
    if isinstance(env, HeapEnvironment):
        # nothing may bypass the heap into the simulator's own queue
        assert not (env._urgent or env._ready or env._later)
        head = env._queue[0] if env._queue else (float("inf"), NORMAL)
        return head[0] == env._now, head[0] == env._now and head[1] == URGENT
    # whatever the clock reached has left the buckets
    assert env._now not in env._later
    return bool(env._urgent or env._ready), bool(env._urgent)


class Request(Event):
    """A request to use a :class:`Resource` (also a context manager)."""

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        #: When the request was granted (None while queued).
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.resource is not None:
            self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a still-queued request (no-op if already granted)."""
        self.resource._do_cancel(self)


class PriorityRequest(Request):
    """A request with priority (lower value = more important) and preempt flag."""

    __slots__ = ("priority", "preempt", "time", "key")

    def __init__(self, resource: "Resource", priority: int = 0, preempt: bool = False):
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        # FIFO within the same priority; preempting requests beat
        # non-preempting ones of equal priority and time.
        self.key = (priority, self.time, not preempt)
        super().__init__(resource)


class Release(Event):
    """A release, done synchronously: the event is born processed."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        self.env = resource.env
        self.callbacks = None
        self._value = request
        self._ok = True
        self._defused = False
        self.request = request
        resource._do_release(request)


class Resource:
    """A counted, FIFO-queued resource."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    def request(self) -> Request:
        """Queue a request; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a granted request (or cancel a queued one)."""
        return Release(self, request)

    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self.users)

    def _do_request(self, request: Request) -> None:
        if not self.queue and len(self.users) < self.capacity:
            # Uncontended: granted at creation (born processed when the
            # environment's guard allows — see Environment._settle).
            self.users.append(request)
            request.usage_since = self.env._now
            self.env._settle(request, self)
            return
        self._enqueue(request)
        self._trigger_queued()

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            # Never granted; drop from the wait queue instead.
            self._do_cancel(request)
            return
        if self.queue:
            self._trigger_queued()

    def _do_cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed(self)

    def _trigger_queued(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            if request.triggered:  # cancelled/failed while queued
                continue
            self._grant(request)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def request(self, priority: int = 0, preempt: bool = False) -> PriorityRequest:  # type: ignore[override]
        """Queue a prioritized request (lower = more important)."""
        return PriorityRequest(self, priority=priority, preempt=preempt)

    def _enqueue(self, request: Request) -> None:
        # The queue stays sorted by key; inserting after equal keys keeps
        # FIFO order within a class (what a stable re-sort would do).
        insort(self.queue, request, key=lambda r: r.key)


class BusyTracker:
    """Integrates the busy intervals of a device (one at a time)."""

    def __init__(self):
        self._busy_since: Optional[float] = None
        self.total_busy = 0.0

    def acquire(self, now: float) -> None:
        """Mark the device busy from ``now``."""
        assert self._busy_since is None, "busy intervals overlap"
        self._busy_since = now

    def release(self, now: float) -> None:
        """Mark the busy interval finished at ``now``."""
        self.total_busy += now - self._busy_since
        self._busy_since = None


class StorePut(Event):
    """Put request on a :class:`Store`; triggers once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        if not store._put_queue and len(store.items) < store.capacity:
            store.items.append(item)
            store.env._settle(self, None)
        else:
            store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Get request on a :class:`Store`; triggers with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        if store.items and not store._get_queue:
            store.env._settle(self, store.items.pop(0))
        else:
            store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO buffer that re-runs a put/get fixpoint after every operation."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Event that triggers once the item is stored."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that triggers with the next item."""
        return StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._get_queue and self.items:
                get = self._get_queue.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True
