"""Utilization accounting: :class:`BusyTracker` integrates the busy
time of a device to report CPU / bus utilization over an interval.

Tallies do not live here.  A tally that appears in a run's metrics
snapshot is a counter or gauge of the cluster
:class:`~repro.obs.MetricsRegistry`; a component-local tally is a plain
:class:`collections.Counter` on the component (see DESIGN.md,
"Counting").  Tracing lives in :mod:`repro.obs.span`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["BusyTracker"]


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
