"""Health watchdog: edge-triggered stalls/storms and observer purity."""

import json

import pytest

from repro.obs import (
    HEALTH_SCHEMA,
    HealthWatchdog,
    MetricsRegistry,
    TimeSeriesSampler,
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def call_later(self, delay, fn):  # sampler arming; ticks are manual
        return None


def _ticks(watchdog, clock, values, step=100.0):
    """Drive one probe sequence through the watchdog, one tick per value."""
    for v in values:
        clock.now += step
        watchdog._probe_value = v
        watchdog.tick()


def _watch_progress(values, stall_ticks=3):
    clock = _Clock()
    dog = HealthWatchdog(clock)
    dog.watch_progress("delivery", lambda: dog._probe_value,
                       stall_ticks=stall_ticks)
    _ticks(dog, clock, values)
    return dog


def test_stall_is_edge_triggered_once():
    # 1,2 progress; then six flat ticks: exactly one stall event.
    dog = _watch_progress([1, 2, 2, 2, 2, 2, 2, 2])
    kinds = [e.kind for e in dog.events]
    assert kinds == ["stall"]
    event = dog.events[0]
    assert event.rule == "delivery"
    assert event.severity == "critical"
    assert event.details["value"] == 2.0
    # Stall fired on the 3rd flat tick: t = (2 progress + 3 flat) * 100.
    assert event.t_ns == 500.0


def test_stall_then_recovery_pairs_events():
    # First tick primes the baseline; ticks 2-4 are flat (stall fires on
    # the 3rd flat tick, t=400); tick 5 recovers.
    dog = _watch_progress([1, 1, 1, 1, 5])
    assert [e.kind for e in dog.events] == ["stall", "recovered"]
    recovered = dog.events[1]
    assert recovered.severity == "info"
    assert recovered.details["stalled_ns"] == 100.0  # t=500 - stall at t=400
    assert dog.summary()["healthy"] is False  # a stall happened


def test_no_stall_under_threshold():
    dog = _watch_progress([1, 1, 2, 2, 3, 3])  # never 3 flat ticks
    assert dog.events == []
    summary = dog.summary()
    assert summary == {"schema": HEALTH_SCHEMA, "healthy": True,
                       "worst_severity": "info", "events": 0, "by_kind": {}}


def test_storm_and_recovery_edge_triggered():
    clock = _Clock()
    dog = HealthWatchdog(clock)
    dog.watch_rate("rto", lambda: dog._probe_value,
                   threshold=5.0, window_ticks=2)
    # Slow rise (1/tick) stays under budget; the burst to 11 rises +9
    # over the 2-tick window (2 -> 11) and storms; flat ticks drain the
    # window and recover.
    _ticks(dog, clock, [0, 1, 2, 3, 11, 11, 11, 11])
    assert [e.kind for e in dog.events] == ["storm", "recovered"]
    storm = dog.events[0]
    assert storm.severity == "warning"
    assert storm.details["rise"] == 9.0
    assert dog.events[1].details["storm_ns"] > 0
    assert dog.summary()["by_kind"] == {"recovered": 1, "storm": 1}


def test_severity_validated_and_summary_worst():
    dog = HealthWatchdog(_Clock())
    with pytest.raises(ValueError, match="severity"):
        dog.watch_progress("x", lambda: 0.0, severity="fatal")


def test_watchdog_is_pure_observer_on_sampler():
    """A watched run's metrics snapshot is bit-identical to an unwatched
    one, including lazily-created counters staying absent."""

    def run(watched):
        clock = _Clock()
        reg = MetricsRegistry()
        sampler = TimeSeriesSampler(clock, interval_ns=100.0)
        sampler.add(reg.timeseries("depth", "frames"),
                    lambda: reg.value("pkts"))
        if watched:
            dog = HealthWatchdog(clock).attach(sampler)
            # Probes a counter nobody ever creates: must not create it.
            dog.watch_progress("ghost", lambda: reg.value("pkts_retx"),
                               stall_ticks=2)
        sampler.start()
        for step in range(5):
            clock.now += 100.0
            reg.tallies("")["pkts"] += 1
            sampler._sample_all()
        return json.dumps({name: inst.as_dict() for name, inst in reg.items()},
                          sort_keys=True)

    assert run(watched=False) == run(watched=True)
