"""Tests for the analysis helpers: tables, plots, metrics, timelines."""

import pytest

from repro.analysis import (
    format_series_table,
    format_table,
    interpolate_half_bandwidth,
    logx_plot,
    size_reaching,
)
from repro.workloads import SweepSeries
from repro.workloads.pingpong import PingPongResult


def make_series(label, points):
    s = SweepSeries(label)
    for nbytes, mbps in points:
        one_way = nbytes * 8 / (mbps * 1e6) * 1e9 if mbps else 1.0
        s.points.append(PingPongResult(nbytes=nbytes, repeats=1, rtt_ns=2 * one_way))
    return s


def test_format_table_alignment_and_floats():
    out = format_table(["a", "long-header"], [(1, 2.5), (333, 4.0)])
    lines = out.splitlines()
    assert "a" in lines[0] and "long-header" in lines[0]
    assert "2.5" in out and "4.0" in out
    # All rows equal width.
    widths = {len(line) for line in lines}
    assert len(widths) == 1


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [(1,)])


def test_format_table_title():
    out = format_table(["x"], [(1,)], title="T")
    assert out.splitlines()[0] == "T"


def test_series_table_requires_common_grid():
    s1 = make_series("one", [(10, 1.0), (100, 2.0)])
    s2 = make_series("two", [(10, 1.0), (999, 2.0)])
    with pytest.raises(ValueError):
        format_series_table([s1, s2])
    with pytest.raises(ValueError):
        format_series_table([])


def test_series_table_contents():
    s1 = make_series("one", [(10, 1.0), (100, 2.0)])
    s2 = make_series("two", [(10, 3.0), (100, 4.0)])
    out = format_series_table([s1, s2])
    assert "one" in out and "two" in out and "100" in out


def test_logx_plot_renders_markers_and_legend():
    s = make_series("clic", [(10, 100.0), (1000, 300.0), (100000, 500.0)])
    out = logx_plot([s], width=40, height=10)
    assert "o clic" in out
    assert out.count("o") >= 3  # three plotted points (plus legend char)
    assert "1e3" in out


def test_logx_plot_validates_input():
    with pytest.raises(ValueError):
        logx_plot([])
    s = make_series("zero", [(0, 1.0)])
    with pytest.raises(ValueError):
        logx_plot([s])


def test_half_bandwidth_interpolation():
    sizes = [10, 100, 1_000, 10_000]
    mbps = [10.0, 40.0, 90.0, 100.0]
    half = interpolate_half_bandwidth(sizes, mbps)  # target 50
    assert 100 < half < 1_000
    # Already above half at the first point.
    assert interpolate_half_bandwidth([10, 100], [60.0, 100.0]) == 10.0
    with pytest.raises(ValueError):
        interpolate_half_bandwidth([], [])


def test_size_reaching():
    sizes = [10, 100, 1_000]
    mbps = [10.0, 50.0, 100.0]
    assert size_reaching(sizes, mbps, 50.0) == pytest.approx(100.0)
    assert size_reaching(sizes, mbps, 500.0) is None
    mid = size_reaching(sizes, mbps, 75.0)
    assert 100 < mid < 1_000


def test_timeline_extraction_from_real_trace():
    from repro.analysis import fig7_timeline
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.obs import critical_path, instants_of, spans_of
    from repro.protocols.clic import ClicEndpoint

    cluster = Cluster(granada2003(trace=True))
    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    ep0, ep1 = ClicEndpoint(p0, 1), ClicEndpoint(p1, 1)

    def a(proc):
        yield from ep0.send(1, 1400)

    def b(proc):
        yield from ep1.recv()

    p0.run(a)
    done = p1.run(b)
    cluster.env.run(done)
    pkt = cluster.tracer.first_instant("driver_tx").detail["pkt"]
    path = critical_path(spans_of(cluster.tracer), instants_of(cluster.tracer),
                         pkt, "node0", "node1")
    timeline = fig7_timeline(path)
    names = [s.name for s in timeline.stages]
    assert "NIC DMA + flight" in names
    assert timeline.total_us > 0
    # Stages are contiguous and ordered.
    for first, second in zip(timeline.stages, timeline.stages[1:]):
        assert first.end_ns == second.start_ns
    with pytest.raises(KeyError):
        timeline.stage("nonexistent")


def test_timeline_missing_packet_raises():
    from repro.obs import critical_path

    with pytest.raises(ValueError, match="missing"):
        critical_path([], [], 999, "node0", "node1")


def _span(id, scope, name, start, end, **attrs):
    return {"id": id, "scope": scope, "name": name, "start_ns": start,
            "end_ns": end, "parent": None, "attrs": attrs}


def _instant(time, source, event, **detail):
    return {"time": time, "source": source, "event": event, "detail": detail}


def _synthetic_trace(irq_times, module_rx=True):
    """Minimal spans + instants with every critical-path anchor for
    packet 7; each receiver irq span lasts 6 ns."""
    spans = [
        _span(1, "node0.kernel", "syscall", 0.0, 50.0, label="clic_send"),
        _span(2, "node0.clic", "clic_send", 1.0, 4.0),
        _span(3, "node0.nic0", "nic_tx", 5.0, 8.0),
        _span(4, "node1.nic0", "nic_rx", 9.0, 9.5),
        _span(5, "node1.clic", "clic_rx", 27.0, 32.0, pkt=7),
        _span(6, "node1.kernel", "blocked", 0.0, 40.0, label="recv:1"),
    ]
    spans += [_span(10 + i, "node1.eth0", "irq", t, t + 6.0, direct=False)
              for i, t in enumerate(irq_times)]
    instants = [
        _instant(5.0, "node0.eth0", "driver_tx", pkt=7),
        _instant(25.0, "node1.eth0", "driver_rx", pkt=7, t0=20.0),
    ]
    if module_rx:
        instants.append(_instant(30.0, "node1.clic", "module_rx", pkt=7))
    return spans, instants


def test_timeline_picks_latest_irq_begin_before_driver_rx():
    """Regression: with coalesced interrupts, the latest irq opening at
    or before the frame's driver_rx anchors the interrupt stage."""
    from repro.analysis import fig7_timeline
    from repro.obs import critical_path

    spans, instants = _synthetic_trace(irq_times=[10.0, 20.0, 35.0])
    path = critical_path(spans, instants, 7, "node0", "node1")
    timeline = fig7_timeline(path)
    irq_stage = timeline.stage("receiver: driver interrupt (NIC->system copy)")
    # The 20.0 irq (latest at or before driver_rx@25.0) anchors the
    # stage — not 10.0 (earlier) and not 35.0 (after the drain).
    assert irq_stage.start_ns == 20.0
    assert irq_stage.end_ns == 25.0
    assert timeline.stage("bottom halves -> CLIC_MODULE").end_ns == 30.0
    assert timeline.stages[-1].end_ns == 40.0  # the receiver's wake


def test_timeline_no_irq_before_driver_rx_raises():
    from repro.obs import critical_path

    spans, instants = _synthetic_trace(irq_times=[35.0])  # only after driver_rx
    with pytest.raises(ValueError, match="irq"):
        critical_path(spans, instants, 7, "node0", "node1")


def test_timeline_missing_module_rx_raises():
    from repro.obs import critical_path

    spans, instants = _synthetic_trace(irq_times=[20.0], module_rx=False)
    with pytest.raises(ValueError, match="module_rx"):
        critical_path(spans, instants, 7, "node0", "node1")


def test_fig7_stages_regroup_path_hops_exactly():
    """Both Figure-7 variants are contiguous regroupings of the packet's
    critical-path hops: every stage edge is a hop edge, in order, and
    the stages cover the path with no float drift."""
    from repro.analysis import fig7_timeline
    from repro.experiments import fig7
    from repro.obs import critical_path, instants_of, spans_of

    for direct in (False, True):
        cluster, pkt_id, timeline, _ = fig7.capture(direct_rx=direct)
        path = critical_path(spans_of(cluster.tracer), instants_of(cluster.tracer),
                             pkt_id, "node0", "node1")
        assert path.direct is direct
        assert fig7_timeline(path) == timeline
        assert len(timeline.stages) == (4 if direct else 5)
        hop_edges = [path.segments[0].start_ns] + [h.end_ns for h in path.segments]
        stage_edges = [timeline.stages[0].start_ns] + [s.end_ns for s in timeline.stages]
        positions = [hop_edges.index(edge) for edge in stage_edges]
        assert positions[0] == 0 and positions[-1] == len(hop_edges) - 1
        assert positions == sorted(set(positions))
        for first, second in zip(timeline.stages, timeline.stages[1:]):
            assert first.end_ns == second.start_ns
        assert timeline.stages[-1].end_ns - timeline.stages[0].start_ns == path.total_ns
