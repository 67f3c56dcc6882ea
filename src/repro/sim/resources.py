"""Shared-resource primitives for the simulation core.

Provides the queuing abstractions the hardware and OS models are built on:

* :class:`Resource` — a counted server with FIFO queueing (e.g. a DMA
  engine, a bus grant).
* :class:`PriorityResource` — FIFO within priority classes (e.g. the PCI
  arbiter favouring the NIC over programmed I/O).
* :class:`Store` — a producer/consumer buffer of Python objects (e.g. NIC
  descriptor rings, socket receive queues).

All requests are events; processes ``yield`` them.  Request objects are
context managers so ``with resource.request() as req: yield req`` releases
automatically.

Preemption is not a resource feature: the one preemptible server, the
host CPU, schedules its own slices (:class:`repro.hw.cpu.Cpu`).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, List, Optional

from .core import Environment, Event, SimulationError

__all__ = [
    "Request",
    "PriorityRequest",
    "Release",
    "Resource",
    "PriorityResource",
    "Store",
    "StorePut",
    "StoreGet",
]


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
    """A release, done synchronously: the event is born processed.

    The resource is free (and the next waiter granted) before the
    constructor returns, so there is nothing to wait for — the event
    never takes a heap slot, and yielding it resumes the yielder at once.
    """

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
    """A counted, FIFO-queued resource.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of concurrent users (>= 1).
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []

    # -- public API -----------------------------------------------------
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

    # -- mechanics -------------------------------------------------------
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
        insort(self.queue, request, key=_request_key)


def _request_key(request: PriorityRequest) -> tuple:
    return request.key


class StorePut(Event):
    """Put request on a :class:`Store`; triggers once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        if not store._put_queue and len(store.items) < store.capacity:
            # Room now: stored at creation (see Environment._settle).
            store.items.append(item)
            store.env._settle(self, None)
        else:
            store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Get request on a :class:`Store`; triggers with the retrieved item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        if store.items and not store._get_queue:
            # An item waits and no earlier getter does: served at
            # creation (see Environment._settle).
            store.env._settle(self, store.items.pop(0))
        else:
            store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw the get request if not yet satisfied."""
        if not self.triggered:
            try:
                self._store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put(item)`` blocks (as an event) while the store is full;
    ``get()`` blocks while it is empty.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Event that triggers once the item is stored."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that triggers with the next item."""
        return StoreGet(self)

    def try_get(self) -> Any:
        """Non-blocking get: pop and return the head item or ``None``."""
        if self.items:
            item = self.items.pop(0)
            self._trigger()
            return item
        return None

    def __len__(self) -> int:
        return len(self.items)

    # -- mechanics -------------------------------------------------------
    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Satisfy puts while there is room.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                if put.triggered:
                    continue
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy gets in FIFO order while items remain.
            while self._get_queue and self.items:
                get = self._get_queue.pop(0)
                if not get.triggered:
                    get.succeed(self.items.pop(0))
                    progressed = True
