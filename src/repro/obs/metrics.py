"""Typed metric instruments and the registry that names them.

The instrument kinds, mirroring what the experiments actually report:

* tallies — monotonically increasing counts (interrupts, packets,
  copied bytes): keys of a scope's ``collections.Counter``
  (:meth:`MetricsRegistry.tallies`), read as :class:`Counter` ``s.k``;
* :class:`Gauge` — a sampled level with high/low water marks (bottom-half
  queue depth, NIC rx-buffer occupancy);
* :class:`Histogram` — log-bucketed value distribution with streaming
  p50/p95/p99/p99.9 (syscall latency, message sizes).  Bucket boundaries
  grow geometrically by ``growth``, so every percentile estimate carries
  a bounded *relative* error of at most ``growth - 1`` (5% by default);
* :class:`TimeSeries` — a level sampled over *simulated time* (NIC
  rx-buffer depth, tx queue length, in-flight window bytes, switch
  occupancy), exported as Chrome counter events so chrome://tracing
  renders the queue graphs natively.  :class:`TimeSeriesSampler` drives
  a set of series on a configurable cadence from the event loop.

A :class:`MetricsRegistry` is a flat namespace of instruments keyed by
dotted names (``node1.kernel.syscall_ns``); one registry is shared by a
whole cluster so a run's metrics snapshot is a single dict.  The
``scope.key`` format of tally names lives only in this module.  Time
series are kept out of :meth:`MetricsRegistry.snapshot` (they are bulk
data, exported through the artifact's dedicated ``timeseries`` field).
"""

from __future__ import annotations

import collections
import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "TimeSeriesSampler",
]


class Counter:
    """The read-side form of one tally key: its name and ``float`` value
    (built by :meth:`MetricsRegistry.items`; nothing bumps one)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str = "", value: float = 0.0):
        self.name = name
        self.value = float(value)

    def as_dict(self) -> float:
        """Snapshot form: counters export as their bare value."""
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A sampled level that remembers its extremes."""

    __slots__ = ("name", "value", "high_water", "low_water", "samples")

    kind = "gauge"

    def __init__(self, name: str = ""):
        self.name = name
        self.value: float = 0.0
        self.high_water: float = float("-inf")
        self.low_water: float = float("inf")
        self.samples: int = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        self.samples += 1
        if value > self.high_water:
            self.high_water = value
        if value < self.low_water:
            self.low_water = value

    def as_dict(self) -> Dict[str, float]:
        """Snapshot form: level plus extremes."""
        return {
            "value": self.value,
            "high_water": self.high_water if self.samples else 0.0,
            "low_water": self.low_water if self.samples else 0.0,
            "samples": self.samples,
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value!r}, high={self.high_water!r})"


class Histogram:
    """Log-bucketed distribution with streaming percentiles.

    Positive samples land in geometric buckets ``[growth^i, growth^(i+1))``;
    zero and negative samples are kept in a dedicated underflow bucket so
    ``count``/``min``/``max`` stay exact.  A percentile query walks the
    buckets and answers with the geometric midpoint of the bucket holding
    the requested rank, clamped into ``[min, max]`` — so the estimate is
    within a factor ``growth`` of the sorted-list oracle.
    """

    __slots__ = ("name", "growth", "_log_growth", "_buckets", "_underflow",
                 "count", "total", "minimum", "maximum")

    kind = "histogram"

    def __init__(self, name: str = "", growth: float = 1.05):
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1 (got {growth!r})")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._underflow = 0  # samples <= 0
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    # -- recording -------------------------------------------------------
    def record(self, value: float) -> None:
        """Fold one sample into the distribution."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0:
            self._underflow += 1
            return
        idx = int(math.floor(math.log(value) / self._log_growth))
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    # -- merging ---------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram into this one — **losslessly**.

        Log buckets are exact under merge: the merged bucket counts (and
        underflow, count, total, min, max) are identical to recording the
        concatenated sample streams into a single histogram, so every
        percentile of the merged digest equals the single-pass answer.
        Both sides must share the same ``growth`` (bucket boundaries are
        a function of it); merging mismatched digests raises.
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with different growth "
                f"({self.growth!r} vs {other.growth!r})")
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self._underflow += other._underflow
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Full-fidelity digest: everything needed to rebuild the
        histogram exactly (JSON-able — bucket indexes become string
        keys, sorted for deterministic serialization)."""
        return {
            "kind": self.kind,
            "growth": self.growth,
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "underflow": self._underflow,
            "buckets": {str(idx): self._buckets[idx]
                        for idx in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], name: str = "") -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` digest form."""
        hist = cls(name, growth=data.get("growth", 1.05))
        hist.count = int(data["count"])
        hist.total = float(data.get("total", 0.0))
        if hist.count:
            hist.minimum = float(data["min"])
            hist.maximum = float(data["max"])
        hist._underflow = int(data.get("underflow", 0))
        hist._buckets = {int(idx): int(n)
                         for idx, n in data.get("buckets", {}).items()}
        return hist

    # -- queries ---------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0 <= p <= 100).

        Defined edge cases (exact, not bucket-approximated):

        * empty histogram -> ``0.0`` (there is no distribution to ask);
        * ``p == 0`` -> the exact minimum, ``p == 100`` -> the exact
          maximum (a histogram tracks both precisely);
        * a single-sample histogram returns that sample for every ``p``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} out of [0, 100]")
        if self.count == 0:
            return 0.0
        if p == 0 or self.count == 1:
            return self.minimum
        if p == 100:
            return self.maximum
        rank = max(1, math.ceil(p / 100.0 * self.count))
        if rank <= self._underflow:
            return min(self.minimum, 0.0)
        seen = self._underflow
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                mid = math.exp((idx + 0.5) * self._log_growth)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        """The 99.9th percentile (the tail the resilience work gates on)."""
        return self.percentile(99.9)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot form: exact moments plus streaming percentiles.

        ``total`` and ``underflow`` ride along so artifact consumers can
        compute means across *merged* snapshots (sum of totals over sum
        of counts) without re-deriving them from ``count * mean``.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "underflow": self._underflow,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, p50={self.p50:.3g})"


class TimeSeries:
    """A level sampled over simulated time: ``(t_ns, value)`` points.

    The instrument itself is passive — something (normally a
    :class:`TimeSeriesSampler`) appends ``(t_ns, value)`` to
    :attr:`points` on a cadence.  Points are kept in sample order,
    which for a single-threaded discrete-event simulation is time order.
    """

    __slots__ = ("name", "unit", "points")

    kind = "timeseries"

    def __init__(self, name: str = "", unit: str = ""):
        self.name = name
        self.unit = unit
        self.points: List[Tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.points)

    def as_dict(self) -> Dict[str, object]:
        """Export form: unit plus the raw point list."""
        return {
            "unit": self.unit,
            "count": len(self.points),
            "points": [[t, v] for t, v in self.points],
        }

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, n={len(self.points)})"


class TimeSeriesSampler:
    """Samples a set of gauges into :class:`TimeSeries` on a cadence.

    ``env`` is duck-typed: only ``.now`` and ``.call_later(delay, fn)``
    are used, so the sampler works with any event loop exposing timer
    callbacks.  Probe callables read simulation state and must not
    mutate it — the sampler's timer events interleave with (but never
    reorder or perturb) the simulated workload, so a sampled run's
    simulated results are identical to an unsampled one.

    The sampler re-arms itself until :meth:`stop` is called (do that
    after ``env.run(...)`` returns) or ``max_samples`` ticks have
    fired — the cap keeps an accidentally-leaked sampler from pinning
    an until-queue-empty run alive forever.
    """

    def __init__(self, env: Any, interval_ns: float = 50_000.0,
                 max_samples: int = 100_000):
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive (got {interval_ns!r})")
        self.env = env
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        self._probes: List[Tuple[TimeSeries, Callable[[], float]]] = []
        self._ticks = 0
        self._stopped = False
        self._started = False
        self._handle: Any = None

    def add(self, series: TimeSeries, probe: Callable[[], float]) -> TimeSeries:
        """Register ``probe`` to feed ``series`` each tick."""
        self._probes.append((series, probe))
        return series

    def start(self) -> None:
        """Take the first sample now and re-arm every ``interval_ns``."""
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._sample_all()
        self._arm()

    def stop(self) -> None:
        """Stop sampling and cancel the pending timer.

        ``call_later`` returns a cancellable handle on the real event
        loop (:class:`repro.sim.TimerHandle`); cancelling it removes the
        live event so a stopped sampler cannot pin an until-queue-empty
        run alive.  Duck-typed envs without handles fall back to the
        no-op-on-fire behavior.
        """
        self._stopped = True
        handle = self._handle
        self._handle = None
        if handle is not None and hasattr(handle, "cancel"):
            handle.cancel()

    def _sample_all(self) -> None:
        now = self.env.now
        for series, probe in self._probes:
            series.points.append((now, float(probe())))
        self._ticks += 1

    def _arm(self) -> None:
        self._handle = self.env.call_later(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self._handle = None
        if self._stopped or self._ticks >= self.max_samples:
            return
        self._sample_all()
        self._arm()


class MetricsRegistry:
    """A flat, typed namespace of instruments.

    Tallies are kept per scope: :meth:`tallies` hands a component the
    ``collections.Counter`` of its scope once, and the component bumps
    keys of it in place.  The registry reads key ``k`` of scope ``s`` as
    the counter ``s.k`` (keys hold no dot), only when asked.
    ``gauge``/``histogram``/``timeseries`` are get-or-create; a name
    used as two kinds is a programming error and raises ``TypeError``.
    """

    def __init__(self):
        self._tallies: Dict[str, collections.Counter] = {}
        self._instruments: Dict[str, object] = {}

    # -- get-or-create ---------------------------------------------------
    def tallies(self, scope: str) -> collections.Counter:
        """The tally ``Counter`` of ``scope``, shared by every caller.

        Take it once, at construction, and bump it in place
        (``self.counters["rx_frames"] += k``).  A key is published as
        ``f"{scope}.{key}"`` from its first bump (``+= 0`` included);
        an unbumped key stays absent.
        """
        tally = self._tallies.get(scope)
        if tally is None:
            tally = self._tallies[scope] = collections.Counter()
        return tally

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            if self.value(name, None) is not None:
                raise TypeError(f"metric {name!r} is a counter, not a {cls.kind}")
            inst = cls(name, *args)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} is a {inst.kind}, not a {cls.kind}"
            )
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name`` (growth 1.05)."""
        return self._get(name, Histogram)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge by name, without creating it.

        The read-only accessor for pure observers (sampler probes,
        post-run reports) that must not perturb the registry: a tally
        that never fires must stay absent from the snapshot whether or
        not it was read.
        """
        scope, _, key = name.rpartition(".")
        tally = self._tallies.get(scope)
        if tally is not None and key in tally:
            return float(tally[key])
        inst = self._instruments.get(name)
        return default if inst is None else float(inst.value)

    def timeseries(self, name: str, unit: str = "") -> TimeSeries:
        """Get or create the time series called ``name``.

        Asking for an existing series with a *different* unit raises —
        the same contract as the kind check: silently handing back the
        old unit would let two call sites disagree about what the points
        mean.  An empty ``unit`` on either side is a wildcard (the
        default-argument lookup idiom); a concrete unit fills in a
        previously unit-less series.
        """
        series = self._get(name, TimeSeries, unit)
        if unit and series.unit and series.unit != unit:
            raise ValueError(
                f"timeseries {name!r} has unit {series.unit!r}, not {unit!r}")
        if unit and not series.unit:
            series.unit = unit
        return series

    # -- introspection ---------------------------------------------------
    def items(self) -> Iterator[Tuple[str, object]]:
        """(name, instrument) pairs sorted by name; each tally key reads
        as a :class:`Counter` named ``scope.key``."""
        named = dict(self._instruments)
        for scope, tally in self._tallies.items():
            for key, n in tally.items():
                if "." in key:
                    raise ValueError(f"tally key {key!r} of scope {scope!r} holds a dot")
                name = f"{scope}.{key}" if scope else key
                if name in named:
                    raise TypeError(
                        f"metric {name!r} is a {named[name].kind}, not a counter")
                named[name] = Counter(name, n)
        return iter(sorted(named.items()))

    def snapshot(self) -> Dict[str, object]:
        """name -> plain value (counters) or stats dict, sorted by name.

        Time series are excluded: they are bulk data, exported through
        the artifact's dedicated ``timeseries`` field (see
        :func:`repro.obs.export.timeseries_of`).
        """
        return {name: inst.as_dict() for name, inst in self.items()
                if not isinstance(inst, TimeSeries)}

    def __len__(self) -> int:
        return len(self._instruments) + sum(map(len, self._tallies.values()))

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} instruments>"
