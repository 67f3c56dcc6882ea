"""Journey-tracing tests: fan-out/join, genealogy, telemetry, export.

Covers the acceptance criteria of the frame-level causal-tracing work:
fragmentation fan-out joins back to one delivery, retransmissions are
recorded as children of the original transmission under seeded
``FaultPlan`` loss, waterfalls telescope exactly to the end-to-end
latency, outlier explanations name a dominant hop, the Chrome export
carries flow (``s``/``t``/``f``) and counter (``C``) events, and the
whole capture is byte-reproducible under a fixed seed — without
perturbing the simulation at all.
"""

import dataclasses
import json

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.faults import FaultPlan
from repro.obs import (
    JourneyProbe,
    JourneyRecorder,
    RunArtifact,
    chrome_trace_json,
    explain_outliers,
    journey_latency_summary,
    journey_waterfall,
    outlier_report,
    waterfall_table,
)
from repro.obs.journey import HOP_CHAIN
from repro.workloads.adapters import clic_pair
from repro.workloads.pingpong import stream


def _traced_stream(nbytes, messages, faults=None, seed=42):
    """Run a CLIC stream with journey tracing on; returns (result, dicts,
    metrics snapshot)."""
    cfg = dataclasses.replace(granada2003(mtu=1500), seed=seed)
    cluster = Cluster(cfg, protocols=("clic",), faults=faults)
    recorder = JourneyRecorder(cluster.env)
    cluster.tracer.journeys = recorder
    probe = JourneyProbe.install(recorder)
    try:
        res = stream(cluster, clic_pair(), nbytes, messages=messages)
    finally:
        probe.uninstall()
    return res, recorder.as_dicts(), cluster.metrics.snapshot()


@pytest.fixture(scope="module")
def lossy_run():
    """A burst-loss run big enough to force fragmentation + retransmits."""
    res, journeys, snap = _traced_stream(
        65_536, 16,
        faults=FaultPlan.bursty(0.02, mean_burst_frames=8.0, loss_bad=1.0))
    return res, journeys, snap


def test_fragmentation_fans_out_and_joins_to_one_delivery():
    # 64 KiB over MTU 1500 fragments into ~45 pieces; all of them must
    # join back into exactly one deliver event per message.
    _, journeys, _ = _traced_stream(65_536, 2)
    assert len(journeys) == 2
    for j in journeys:
        assert j["delivered"]
        assert j["fragments"] > 1
        fragment_events = [e for e in j["events"] if e["hop"] == "fragment"]
        deliver_events = [e for e in j["events"] if e["hop"] == "deliver"]
        assert len(fragment_events) == j["fragments"]
        assert len(deliver_events) == 1
        assert j["end_ns"] == deliver_events[0]["t"]
        # every fragment was actually handed to the driver
        tx_pkts = {e["pkt"] for e in j["events"] if e["hop"] == "tx_queue"}
        assert {e["pkt"] for e in fragment_events} <= tx_pkts


def test_all_hops_present_and_waterfall_telescopes(lossy_run):
    _, journeys, _ = lossy_run
    delivered = [j for j in journeys if j["delivered"]]
    assert delivered, "no journey delivered"
    for j in delivered:
        hops = {e["hop"] for e in j["events"]}
        assert hops >= set(HOP_CHAIN), f"missing hops: {set(HOP_CHAIN) - hops}"
        segments = journey_waterfall(j)
        assert [s["hop"] for s in segments] == list(HOP_CHAIN)
        total = sum(s["dur_ns"] for s in segments)
        e2e = j["end_ns"] - j["start_ns"]
        assert total == pytest.approx(e2e, rel=1e-12)


def test_retransmit_genealogy_under_injected_loss(lossy_run):
    _, journeys, _ = lossy_run
    retx_journeys = [j for j in journeys if j["retransmits"]]
    assert retx_journeys, "burst loss produced no retransmit children"
    for j in retx_journeys:
        by_index = {e["i"]: e for e in j["events"]}
        for child in j["retransmits"]:
            assert child["kind"] in ("rto", "fast", "partial_ack")
            parent = by_index[child["parent"]]
            # the child links back to the *original* transmission of the
            # same packet, which necessarily happened earlier
            assert parent["hop"] == "tx_queue"
            assert parent["pkt"] == child["pkt"]
            assert parent["t"] < child["t"]


def test_outliers_name_dominant_hop_and_loss_involvement(lossy_run):
    _, journeys, _ = lossy_run
    outliers = explain_outliers(journeys, top=5)
    assert len(outliers) == 5
    lats = [o["latency_us"] for o in outliers]
    assert lats == sorted(lats, reverse=True)
    assert outliers[0]["band"] in ("p99", "p99.9")
    for o in outliers:
        assert o["dominant_hop"] in HOP_CHAIN
        assert 0.0 < o["dominant_share"] <= 1.0
        if o["retransmits"]:
            assert o["retransmit_kinds"]
    summary = journey_latency_summary(journeys)
    assert summary["p50_us"] <= summary["p99_us"] <= summary["p999_us"]
    assert summary["delivered"] == summary["messages"] == len(journeys)
    assert summary["retransmitted"] > 0
    # the human-readable renderings agree with the data
    assert outliers[0]["dominant_hop"] in outlier_report(journeys, top=5)
    assert "TOTAL" in waterfall_table(journeys[0])


def test_journey_capture_does_not_perturb_the_simulation():
    faults = FaultPlan.bursty(0.02, mean_burst_frames=8.0, loss_bad=1.0)
    res_on, _, snap_on = _traced_stream(16_384, 8, faults=faults)
    cfg = dataclasses.replace(granada2003(mtu=1500), seed=42)
    cluster = Cluster(cfg, protocols=("clic",), faults=faults)
    res_off = stream(cluster, clic_pair(), 16_384, messages=8)
    assert res_on.elapsed_ns == res_off.elapsed_ns
    from repro.obs import jsonable
    assert json.dumps(jsonable(snap_on), sort_keys=True) == \
        json.dumps(jsonable(cluster.metrics.snapshot()), sort_keys=True)


def test_capture_is_byte_reproducible_under_fixed_seed():
    faults = FaultPlan.bursty(0.02, mean_burst_frames=8.0, loss_bad=1.0)
    _, j1, _ = _traced_stream(16_384, 8, faults=faults)
    _, j2, _ = _traced_stream(16_384, 8, faults=faults)
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)
    assert chrome_trace_json(journeys=j1) == chrome_trace_json(journeys=j2)


def test_chrome_export_flow_and_counter_events(lossy_run):
    _, journeys, _ = lossy_run
    timeseries = {
        "node0.nic0.rx_depth": {"unit": "frames", "count": 2,
                                "points": [[0.0, 1.0], [50_000.0, 3.0]]},
    }
    doc = json.loads(chrome_trace_json(journeys=journeys, timeseries=timeseries))
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"s", "t", "f", "C", "M"} <= phases
    flows = [e for e in events if e["ph"] in ("s", "t", "f")]
    for jid in (j["id"] for j in journeys):
        chain = [e for e in flows if e["id"] == jid]
        assert chain[0]["ph"] == "s"
        assert chain[-1]["ph"] == "f"
        assert chain[-1]["bp"] == "e"
        assert all(e["ph"] == "t" for e in chain[1:-1])
    counters = [e for e in events if e["ph"] == "C"]
    assert [c["args"]["value"] for c in counters] == [1.0, 3.0]
    assert counters[0]["name"] == "rx_depth"
    assert counters[0]["cat"] == "node0.nic0"


def test_artifact_roundtrip_preserves_journeys_and_timeseries(tmp_path, lossy_run):
    _, journeys, snap = lossy_run
    art = RunArtifact(experiment="fig4.point", result={"x": 1}, metrics=snap,
                      journeys=journeys,
                      timeseries={"a.b": {"unit": "", "count": 1,
                                          "points": [[0.0, 2.0]]}})
    path = tmp_path / "art.json"
    art.write(str(path))
    loaded = RunArtifact.load(str(path))
    assert loaded == art
    assert loaded.to_json() == art.to_json()
    assert (chrome_trace_json(loaded.spans, loaded.records, loaded.journeys,
                              loaded.timeseries)
            == chrome_trace_json(art.spans, art.records, art.journeys,
                                 art.timeseries))
