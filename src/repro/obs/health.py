"""In-sim health watchdog: stall and storm detection in simulated time.

Post-hoc analysis tells you a run *was* sick; production telemetry
pipelines watch the stream in-band and flag the moment it got sick.
The :class:`HealthWatchdog` is that layer for the simulator: it rides
the :class:`~repro.obs.metrics.TimeSeriesSampler` cadence (via
``sampler.on_tick``) and evaluates health rules against counter probes
each sampling round, emitting structured :class:`HealthEvent` records
stamped with *simulated* time.

Two rule families cover the failure modes the resilience experiments
exercise:

* :meth:`HealthWatchdog.watch_progress` — a monotonically increasing
  progress probe (frames delivered, messages completed) that flat-lines
  for N consecutive ticks is a **stall**;
* :meth:`HealthWatchdog.watch_rate` — a counter probe (RTO firings,
  PAUSE events, pause time) whose increase over a sliding tick window
  exceeds a budget is a **storm**.

Each rule is edge-triggered: one event when the condition starts, one
``recovered`` event when it clears — not one event per sick tick, so a
ten-thousand-tick stall is two records, not ten thousand.

The watchdog is a pure observer, same contract as the journey seam: it
only *reads* probes (which read simulation state) and appends to its own
event list, so a run with the watchdog enabled produces bit-identical
simulated metrics to one without.  ``env`` is duck-typed — only
``.now`` is used.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "HEALTH_SCHEMA",
    "SEVERITIES",
    "HealthEvent",
    "HealthWatchdog",
]

HEALTH_SCHEMA = "repro.health/1"

#: ordered worst-last, so ``max(..., key=SEVERITIES.index)`` works
SEVERITIES = ("info", "warning", "critical")


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One structured health observation at a simulated instant."""

    t_ns: float
    rule: str
    kind: str        # "stall" | "storm" | "recovered"
    severity: str    # one of SEVERITIES
    message: str
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict export form (rides the run artifact's ``health``)."""
        return {
            "t_ns": self.t_ns, "rule": self.rule, "kind": self.kind,
            "severity": self.severity, "message": self.message,
            "details": dict(self.details),
        }


class _ProgressRule:
    """Flags a stall when a progress probe flat-lines for N ticks."""

    def __init__(self, name: str, probe: Callable[[], float],
                 stall_ticks: int, severity: str):
        self.name = name
        self.probe = probe
        self.stall_ticks = stall_ticks
        self.severity = severity
        self._last: Optional[float] = None
        self._flat = 0
        self._stalled = False
        self._stall_start = 0.0

    def update(self, now: float, emit: Callable[..., None]) -> None:
        value = float(self.probe())
        if self._last is None or value > self._last:
            if self._stalled:
                emit(now, self.name, "recovered", "info",
                     f"{self.name}: progress resumed at {value:g}",
                     stalled_ns=now - self._stall_start, value=value)
                self._stalled = False
            self._flat = 0
        else:
            self._flat += 1
            if self._flat == self.stall_ticks and not self._stalled:
                self._stalled = True
                self._stall_start = now
                emit(now, self.name, "stall", self.severity,
                     f"{self.name}: no progress for {self.stall_ticks} ticks "
                     f"(stuck at {value:g})",
                     flat_ticks=self._flat, value=value)
        self._last = value


class _RateRule:
    """Flags a storm when a counter rises faster than budget per window."""

    def __init__(self, name: str, probe: Callable[[], float],
                 threshold: float, window_ticks: int, severity: str):
        self.name = name
        self.probe = probe
        self.threshold = threshold
        self.window_ticks = window_ticks
        self.severity = severity
        self._history: List[float] = []
        self._storming = False
        self._storm_start = 0.0

    def update(self, now: float, emit: Callable[..., None]) -> None:
        value = float(self.probe())
        self._history.append(value)
        if len(self._history) > self.window_ticks + 1:
            del self._history[0]
        rise = value - self._history[0]
        if rise > self.threshold:
            if not self._storming:
                self._storming = True
                self._storm_start = now
                emit(now, self.name, "storm", self.severity,
                     f"{self.name}: +{rise:g} over {len(self._history) - 1} "
                     f"ticks exceeds budget {self.threshold:g}",
                     rise=rise, value=value)
        elif self._storming:
            self._storming = False
            emit(now, self.name, "recovered", "info",
                 f"{self.name}: rate back under budget "
                 f"(+{rise:g} per window)",
                 storm_ns=now - self._storm_start, rise=rise, value=value)


class HealthWatchdog:
    """Evaluates health rules on the sampler cadence; pure observer.

    Attach to a sampler with :meth:`attach` (or pass ``tick`` to
    ``sampler.on_tick`` directly); declare rules before the run starts.
    Events accumulate in :attr:`events` with simulated timestamps and
    export via :meth:`to_dicts` for the run artifact.
    """

    def __init__(self, env: Any):
        self.env = env
        self.events: List[HealthEvent] = []
        self._rules: List[Any] = []

    # -- rule declaration -------------------------------------------------

    def watch_progress(self, name: str, probe: Callable[[], float],
                       stall_ticks: int = 20,
                       severity: str = "critical") -> "HealthWatchdog":
        """Stall rule: ``probe`` must increase at least once every
        ``stall_ticks`` sampling rounds."""
        self._rules.append(_ProgressRule(name, probe, stall_ticks,
                                         self._check_severity(severity)))
        return self

    def watch_rate(self, name: str, probe: Callable[[], float],
                   threshold: float, window_ticks: int = 10,
                   severity: str = "warning") -> "HealthWatchdog":
        """Storm rule: ``probe`` may rise at most ``threshold`` over any
        ``window_ticks`` consecutive sampling rounds."""
        self._rules.append(_RateRule(name, probe, threshold, window_ticks,
                                     self._check_severity(severity)))
        return self

    @staticmethod
    def _check_severity(severity: str) -> str:
        if severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {severity!r}")
        return severity

    # -- wiring -----------------------------------------------------------

    def attach(self, sampler: Any) -> "HealthWatchdog":
        """Ride ``sampler``'s cadence: evaluate rules after each round."""
        sampler.on_tick(self.tick)
        return self

    def tick(self) -> None:
        """Evaluate every rule once at the current simulated time."""
        now = self.env.now
        for rule in self._rules:
            rule.update(now, self._emit)

    def _emit(self, t_ns: float, rule: str, kind: str, severity: str,
              message: str, **details: Any) -> None:
        self.events.append(HealthEvent(
            t_ns=t_ns, rule=rule, kind=kind, severity=severity,
            message=message, details=details))

    # -- export -----------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Events as plain dicts, in emission (= simulated-time) order."""
        return [e.to_dict() for e in self.events]

    def summary(self) -> Dict[str, Any]:
        """Aggregate verdict: healthy unless any non-info event fired."""
        by_kind: Dict[str, int] = {}
        worst = "info"
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
            if SEVERITIES.index(event.severity) > SEVERITIES.index(worst):
                worst = event.severity
        return {
            "schema": HEALTH_SCHEMA,
            "healthy": worst == "info",
            "worst_severity": worst,
            "events": len(self.events),
            "by_kind": dict(sorted(by_kind.items())),
        }
