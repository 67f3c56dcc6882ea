"""Metrics-layer tests: instrument semantics and percentile accuracy."""

import math
import random

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    TimeSeriesSampler,
)


def test_counter_basics():
    c = Counter("x", 3)
    assert c.value == 3.0 and isinstance(c.value, float)
    assert c.as_dict() == 3.0


def test_gauge_tracks_extremes():
    g = Gauge("depth")
    assert g.as_dict() == {"value": 0.0, "high_water": 0.0, "low_water": 0.0, "samples": 0}
    g.set(3)
    g.set(4)
    g.set(-1)
    assert g.value == -1
    assert g.high_water == 4
    assert g.low_water == -1
    assert g.samples == 3


def _oracle_percentile(samples, p):
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [50, 95, 99])
def test_histogram_percentiles_vs_sorted_oracle(seed, p):
    """Every percentile estimate must be within the documented relative
    error bound (one bucket's growth factor) of the sorted-list oracle."""
    rng = random.Random(seed)
    hist = Histogram(growth=1.05)
    samples = [rng.lognormvariate(8, 1.5) for _ in range(5000)]
    for s in samples:
        hist.record(s)
    exact = _oracle_percentile(samples, p)
    approx = hist.percentile(p)
    assert exact / hist.growth <= approx <= exact * hist.growth
    # Exact moments are exact, not bucketed.
    assert hist.count == len(samples)
    assert hist.total == pytest.approx(sum(samples))
    assert hist.minimum == min(samples)
    assert hist.maximum == max(samples)


def test_histogram_underflow_and_edges():
    hist = Histogram()
    assert hist.percentile(50) == 0.0
    for v in (-5.0, 0.0, 10.0, 20.0):
        hist.record(v)
    assert hist.count == 4
    # The low percentiles come from the underflow bucket.
    assert hist.percentile(25) == -5.0
    assert hist.percentile(100) <= hist.maximum
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)
    d = hist.as_dict()
    assert d["count"] == 4 and d["min"] == -5.0 and d["max"] == 20.0


def test_histogram_single_sample_all_percentiles():
    hist = Histogram()
    hist.record(123.0)
    for p in (0, 50, 99, 100):
        assert hist.percentile(p) == 123.0


def test_histogram_percentile_exact_extremes():
    """p=0 / p=100 return the exact tracked min/max, not the nearest
    bucket boundary — including a negative minimum from the underflow
    bucket."""
    hist = Histogram()
    for v in (-7.5, 1.0, 2.0, 3.0, 1e6):
        hist.record(v)
    assert hist.percentile(0) == -7.5
    assert hist.percentile(100) == 1e6
    # Interior percentiles still go through the bucket approximation.
    assert -7.5 <= hist.percentile(50) <= 1e6


def test_histogram_empty_every_percentile_is_zero():
    hist = Histogram()
    for p in (0, 50, 100):
        assert hist.percentile(p) == 0.0


def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry()
    tally = reg.tallies("a")
    assert reg.tallies("a") is tally
    tally["count"] += 1
    gauge = reg.gauge("a.depth")
    assert reg.gauge("a.depth") is gauge
    reg.histogram("a.lat_ns")
    assert len(reg) == 3
    with pytest.raises(TypeError, match="gauge"):
        reg.histogram("a.depth")
    with pytest.raises(TypeError, match="counter"):
        reg.gauge("a.count")


def test_registry_snapshot_sorted_and_typed():
    reg = MetricsRegistry()
    reg.tallies("")["z"] += 2
    reg.histogram("a").record(10.0)
    snap = reg.snapshot()
    assert list(snap) == ["a", "z"]
    assert snap["z"] == 2 and isinstance(snap["z"], float)
    assert snap["a"]["count"] == 1


def test_histogram_p999_tracks_extreme_tail():
    hist = Histogram("lat")
    for _ in range(999):
        hist.record(1.0)
    hist.record(1000.0)
    # 1 sample in 1000 at the top: p99.9 must see the outlier region
    # while p50 stays on the bulk.
    assert hist.p50 <= 2.0
    assert hist.p999 > hist.p99 * 0.99
    assert hist.p999 >= hist.percentile(99.0)
    snap = hist.as_dict()
    assert snap["p999"] == hist.p999
    assert set(snap) >= {"p50", "p95", "p99", "p999"}


def test_timeseries_records_points_in_order():
    ts = TimeSeries("q.depth", unit="frames")
    ts.points.append((0.0, 1.0))
    ts.points.append((50.0, 3.0))
    assert len(ts) == 2
    assert ts.as_dict() == {
        "unit": "frames", "count": 2, "points": [[0.0, 1.0], [50.0, 3.0]]}


class _FakeEnv:
    """Minimal duck-typed env: manual clock + immediate-sorted timers."""

    def __init__(self):
        self.now = 0.0
        self.timers = []

    def call_later(self, delay, fn):
        self.timers.append((self.now + delay, fn))

    def run_until(self, t_end):
        while self.timers:
            self.timers.sort(key=lambda tf: tf[0])
            t, fn = self.timers[0]
            if t > t_end:
                return
            self.timers.pop(0)
            self.now = t
            fn()


def test_sampler_cadence_and_stop():
    env = _FakeEnv()
    sampler = TimeSeriesSampler(env, interval_ns=100.0)
    level = {"v": 0.0}
    ts = sampler.add(TimeSeries("depth"), lambda: level["v"])
    sampler.start()  # immediate first sample at t=0
    level["v"] = 7.0
    env.run_until(350.0)
    assert [t for t, _ in ts.points] == [0.0, 100.0, 200.0, 300.0]
    assert [v for _, v in ts.points] == [0.0, 7.0, 7.0, 7.0]
    sampler.stop()
    env.run_until(1000.0)  # pending timer fires but is a no-op
    assert len(ts.points) == 4
    with pytest.raises(RuntimeError, match="already started"):
        sampler.start()


def test_sampler_max_samples_backstop():
    env = _FakeEnv()
    sampler = TimeSeriesSampler(env, interval_ns=10.0, max_samples=3)
    ts = sampler.add(TimeSeries("d"), lambda: 1.0)
    sampler.start()
    env.run_until(10_000.0)
    assert len(ts.points) == 3
    assert not env.timers  # stopped re-arming: cannot pin a run alive


def test_registry_timeseries_excluded_from_snapshot():
    reg = MetricsRegistry()
    reg.tallies("")["a"] += 1
    ts = reg.timeseries("b.depth", unit="frames")
    ts.points.append((0.0, 2.0))
    assert reg.timeseries("b.depth") is ts
    assert list(reg.snapshot()) == ["a"]
    with pytest.raises(TypeError, match="timeseries"):
        reg.gauge("b.depth")


def test_sampler_stop_cancels_pending_timer_on_real_env():
    from repro.sim import Environment

    env = Environment()
    sampler = TimeSeriesSampler(env, interval_ns=1000.0)
    ts = sampler.add(TimeSeries("depth"), lambda: 1.0)
    sampler.start()
    env.run(until=3500.0)
    assert [t for t, _ in ts.points] == [0.0, 1000.0, 2000.0, 3000.0]
    handle = sampler._handle
    assert handle.active
    sampler.stop()
    assert not handle.active
    assert sampler._handle is None
    # Draining the queue discards the cancelled entry without firing it:
    # the clock never advances to the dead timer's t=4000 deadline.
    env.run()
    assert env.now == 3500.0
    assert len(ts.points) == 4


def test_registry_timeseries_unit_mismatch_raises():
    reg = MetricsRegistry()
    reg.timeseries("q.depth", unit="frames")
    with pytest.raises(ValueError, match="frames"):
        reg.timeseries("q.depth", unit="bytes")
    # Empty unit is a wildcard lookup; a concrete unit fills a blank one.
    assert reg.timeseries("q.depth").unit == "frames"
    bare = reg.timeseries("later")
    assert bare.unit == ""
    assert reg.timeseries("later", unit="ns") is bare
    assert bare.unit == "ns"


def test_registry_value_never_creates():
    reg = MetricsRegistry()
    assert reg.value("ghost") == 0.0
    assert reg.value("ghost", default=-1.0) == -1.0
    assert list(reg.snapshot()) == []  # reads left no trace
    reg.tallies("")["hits"] += 3
    assert reg.value("hits") == 3.0


# -- tallies: one collections.Counter per scope -------------------------

def test_tallies_shared_scope_sums():
    reg = MetricsRegistry()
    a, b = reg.tallies("node0.nic0"), reg.tallies("node0.nic0")
    a["rx_frames"] += 3
    b["rx_frames"] += 4
    assert reg.snapshot() == {"node0.nic0.rx_frames": 7.0}


def test_tally_bumped_by_zero_publishes_zero():
    reg = MetricsRegistry()
    reg.tallies("node0.kernel")["blocks"] += 0
    snap = reg.snapshot()
    assert snap == {"node0.kernel.blocks": 0.0}
    assert isinstance(snap["node0.kernel.blocks"], float)


def test_unbumped_tally_stays_absent_after_reads():
    reg = MetricsRegistry()
    tally = reg.tallies("node0.clic")
    tally["pkts_tx"] += 1
    assert tally["pkts_retx"] == 0  # a Counter read does not insert
    assert reg.value("node0.clic.pkts_retx") == 0.0
    assert reg.value("node9.clic.pkts_retx", default=-1.0) == -1.0
    assert list(reg.snapshot()) == ["node0.clic.pkts_tx"]
    assert "node9.clic" not in reg._tallies  # reading a scope never creates it


def test_tally_and_gauge_name_clash_raises():
    tallied_first = MetricsRegistry()
    tallied_first.tallies("sw")["drops"] += 1
    with pytest.raises(TypeError, match="counter"):
        tallied_first.gauge("sw.drops")
    gauged_first = MetricsRegistry()
    gauged_first.gauge("sw.drops").set(1)
    gauged_first.tallies("sw")["drops"] += 1
    with pytest.raises(TypeError, match="gauge"):
        gauged_first.snapshot()
    dotted = MetricsRegistry()
    dotted.tallies("sw")["port0.drops"] += 1
    with pytest.raises(ValueError, match="dot"):
        dotted.snapshot()


def test_value_sees_a_bump_between_sampler_ticks():
    env = _FakeEnv()
    reg = MetricsRegistry()
    tally = reg.tallies("node1.clic")
    sampler = TimeSeriesSampler(env, interval_ns=10.0, max_samples=3)
    ts = sampler.add(TimeSeries("rx"), lambda: reg.value("node1.clic.pkts_rx"))
    sampler.start()
    tally["pkts_rx"] += 2
    env.run_until(10.0)
    tally["pkts_rx"] += 5
    env.run_until(20.0)
    assert ts.points == [(0.0, 0.0), (10.0, 2.0), (20.0, 7.0)]
