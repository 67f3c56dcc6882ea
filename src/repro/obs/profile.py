"""Event-loop profiling for the discrete-event simulator.

Answers "where does the *simulator* spend its events" — complementary to
the in-simulation instruments: per-process event deliveries, per-event-
type tallies, and the scheduler queue's high-water mark.  Attached to
:class:`repro.sim.Environment` via ``Environment(profile=True)`` or
``env.enable_profiling()``; when detached the loop pays a single
``is None`` check per event.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

__all__ = ["EnvProfiler", "aggregate_profiles"]


class EnvProfiler:
    """Tallies maintained by the :class:`~repro.sim.Environment` loop."""

    __slots__ = ("events_processed", "events_scheduled", "queue_high_water",
                 "per_type", "per_process")

    def __init__(self):
        self.events_processed = 0
        self.events_scheduled = 0
        self.queue_high_water = 0
        #: event class name -> times processed
        self.per_type: Dict[str, int] = {}
        #: process name -> events delivered to it (generator resumptions)
        self.per_process: Dict[str, int] = {}

    # -- hooks called by the event loop ---------------------------------
    def on_schedule(self, queue_depth: int) -> None:
        """Called by the loop after queueing an event."""
        self.events_scheduled += 1
        if queue_depth > self.queue_high_water:
            self.queue_high_water = queue_depth

    def on_step(self, event: Any, callbacks: Iterable[Any]) -> None:
        """Called by the loop as each event is popped and processed.

        ``callbacks`` is a list for ordinary events; for the
        :class:`~repro.sim.TimerHandle` fast path it is the bare
        callable itself (no per-process attribution — timers belong to
        no process).
        """
        self.events_processed += 1
        tname = type(event).__name__
        self.per_type[tname] = self.per_type.get(tname, 0) + 1
        if type(callbacks) is not list:
            return
        for cb in callbacks:
            # A process resumption is a bound ``Process._resume``; count
            # it against the process's name (duck-typed, no sim import).
            owner = getattr(cb, "__self__", None)
            if owner is not None and getattr(cb, "__name__", "") == "_resume":
                pname = getattr(owner, "name", "?")
                self.per_process[pname] = self.per_process.get(pname, 0) + 1

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict summary (keys sorted for deterministic export)."""
        return {
            "events_processed": self.events_processed,
            "events_scheduled": self.events_scheduled,
            "queue_high_water": self.queue_high_water,
            "per_type": dict(sorted(self.per_type.items())),
            "per_process": dict(sorted(self.per_process.items())),
        }

    def top_processes(self, n: int = 10):
        """The ``n`` busiest processes as (name, events) pairs."""
        return sorted(self.per_process.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def __repr__(self) -> str:
        return (f"<EnvProfiler events={self.events_processed} "
                f"high_water={self.queue_high_water}>")


def aggregate_profiles(profiles: Iterable[Any]) -> Dict[str, Any]:
    """Merge profiler tallies from several environments into one snapshot.

    ``profiles`` may hold :class:`EnvProfiler` objects or their
    ``snapshot()`` dicts (mixing is fine).  Event counts and the
    per-type/per-process tallies sum; the queue high-water mark is the
    max across environments; ``environments`` records how many were
    merged.  An experiment that builds many clusters (a size sweep)
    thereby reports one simulator-cost summary per run artifact.
    """
    profiles = list(profiles)
    if any(hasattr(p, "snapshot") for p in profiles):
        # Live profilers keep counting until read.  Tearing down a
        # finished simulation closes suspended generators, whose cleanup
        # (releasing resource grants) schedules a final event on the dead
        # environment — and *when* the cycle collector runs that cleanup
        # depends on allocation history, which differs between serial
        # and pooled runs.  Collect pending garbage before reading so
        # the tally deterministically includes all teardown events.
        import gc

        gc.collect()
    merged: Dict[str, Any] = {
        "environments": 0,
        "events_processed": 0,
        "events_scheduled": 0,
        "queue_high_water": 0,
        "per_type": {},
        "per_process": {},
    }
    for prof in profiles:
        snap = prof.snapshot() if hasattr(prof, "snapshot") else prof
        merged["environments"] += 1
        merged["events_processed"] += snap.get("events_processed", 0)
        merged["events_scheduled"] += snap.get("events_scheduled", 0)
        merged["queue_high_water"] = max(
            merged["queue_high_water"], snap.get("queue_high_water", 0))
        for field in ("per_type", "per_process"):
            for key, count in (snap.get(field) or {}).items():
                merged[field][key] = merged[field].get(key, 0) + count
    merged["per_type"] = dict(sorted(merged["per_type"].items()))
    merged["per_process"] = dict(sorted(merged["per_process"].items()))
    return merged
