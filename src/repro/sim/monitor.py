"""Instrumentation: counters and utilization accounting.

Two kinds of accounting live here (tracing lives in :mod:`repro.obs.span`):

* **Counters** — monotonically increasing event tallies (interrupt counts
  for the Section 2 analysis, packets, retransmissions, ...).  Since the
  observability refactor, :class:`Counters` is a thin dict-like face
  over :class:`repro.obs.metrics.MetricsRegistry` counters, so ad-hoc
  tallies and typed instruments share one implementation.
* **BusyTracker** — integrates busy time of a device to report CPU / bus
  utilization over an interval.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry

__all__ = ["Counters", "BusyTracker"]


class Counters:
    """Named monotonic counters with a dict-like face.

    Backed by :class:`~repro.obs.metrics.MetricsRegistry` counter
    instruments; pass a shared ``registry`` (and optional ``prefix``) to
    fold a component's tallies into a cluster-wide namespace, or omit
    both for a private registry (the historical behaviour).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None, prefix: str = ""):
        self._registry = registry if registry is not None else MetricsRegistry()
        self._prefix = prefix

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._registry.counter(self._prefix + name).value += amount

    def set(self, name: str, value: float) -> None:
        """Record ``name`` as a gauge *level* (a typed gauge instrument,
        not a counter — for values that may hold still or only move in
        jumps, like the highest cumulatively-acked sequence)."""
        self._registry.gauge(self._prefix + name).set(value)

    def level(self, name: str) -> float:
        """Current level of gauge ``name`` (0 when never set)."""
        gauge = self._registry.peek(self._prefix + name)
        return gauge.value if gauge is not None else 0

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 when never incremented)."""
        counter = self._registry.peek(self._prefix + name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of all counters (under this face's prefix)."""
        start = len(self._prefix)
        return {
            name[start:]: inst.value
            for name, inst in self._registry.items()
            if name.startswith(self._prefix) and inst.kind == "counter"
        }

    def reset(self) -> None:
        """Zero all counters."""
        for name in list(self.snapshot()):
            self._registry.discard(self._prefix + name)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()!r})"


class BusyTracker:
    """Integrates the busy time of a device for utilization reporting.

    Call :meth:`acquire`/:meth:`release` around busy intervals (re-entrant:
    overlapping busy intervals from several users count once).
    """

    def __init__(self):
        self._depth = 0
        self._busy_since: Optional[float] = None
        self.total_busy: float = 0.0
        self._mark_time: float = 0.0
        self._mark_busy: float = 0.0

    def acquire(self, now: float) -> None:
        """Mark the device busy from ``now`` (re-entrant)."""
        if self._depth == 0:
            self._busy_since = now
        self._depth += 1

    def release(self, now: float) -> None:
        """Mark one busy interval finished at ``now``."""
        if self._depth <= 0:
            raise RuntimeError(
                f"BusyTracker.release at t={now:,.0f} ns without matching acquire"
            )
        self._depth -= 1
        if self._depth == 0:
            self.total_busy += now - self._busy_since
            self._busy_since = None

    def busy_time(self, now: float) -> float:
        """Total busy time up to ``now`` (including an open interval)."""
        open_part = (now - self._busy_since) if self._busy_since is not None else 0.0
        return self.total_busy + open_part

    def mark(self, now: float) -> None:
        """Start a measurement window at ``now``."""
        self._mark_time = now
        self._mark_busy = self.busy_time(now)

    def utilization_since_mark(self, now: float) -> float:
        """Fraction of wall time busy since the last :meth:`mark`."""
        span = now - self._mark_time
        if span <= 0:
            return 0.0
        return (self.busy_time(now) - self._mark_busy) / span
