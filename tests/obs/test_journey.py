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
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.faults import FaultPlan
from repro.obs import (
    RunArtifact,
    Tracer,
    chrome_trace_json,
    explain_outliers,
    journey_latency_summary,
    journey_waterfall,
    journeys_of,
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
    cluster.tracer.hop_log = []
    res = stream(cluster, clic_pair(), nbytes, messages=messages)
    return res, journeys_of(cluster.tracer.hop_log), cluster.metrics.snapshot()


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


def test_journeys_and_a_validation_probe_compose():
    """Journeys take the retransmit reason from the retransmit callback,
    not from the channel-probe slot, so a validation probe installed in
    that slot sees the same retransmits the journeys record."""
    from collections import Counter

    from repro.protocols.reliability import install_channel_probe
    from repro.validate.probes import ProbeRecorder

    probe = ProbeRecorder()
    previous = install_channel_probe(probe)
    try:
        _, journeys, _ = _traced_stream(
            65_536, 4,
            faults=FaultPlan.bursty(0.02, mean_burst_frames=8.0, loss_bad=1.0))
    finally:
        install_channel_probe(previous)
    children = Counter()
    for j in journeys:
        seq_of = {e["pkt"]: e["seq"] for e in j["events"] if e["hop"] == "fragment"}
        for child in j["retransmits"]:
            children[child["kind"], seq_of[child["pkt"]]] += 1
    (log,) = [log for log in probe.sender_logs.values()
              if log.name == "node0.clic.tx->1"]
    logged = Counter((e[1], seq) for e in log.events if e[0] == "retx"
                     for seq in e[2])
    assert children, "burst loss produced no retransmit children"
    assert children == logged


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


# -- journeys_of over Tracer.hop records -----------------------------------
class _Clock:
    now = 0.0


def _packet(src=0, msg=7, pkt=11):
    return SimpleNamespace(src_node=src, msg_id=msg, packet_id=pkt, seq=0,
                           frag_offset=0, frag_bytes=100)


def _tracer():
    """A tracer recording hops, with one journey (node 0, msg 7) open."""
    clock = _Clock()
    tracer = Tracer(clock)
    tracer.hop_log = []
    tracer.hop(None, "send", "node0.clic", src_node=0, msg_id=7, port=3,
               dst=1, nbytes=100)
    return tracer, clock


def test_hop_records_the_packet_inside_a_payload_wrapper():
    tracer, clock = _tracer()
    clock.now = 250.0
    tracer.hop(SimpleNamespace(payload=_packet(pkt=42)), "nic_dma", "node0.nic0",
               zero_copy=True)
    (journey,) = journeys_of(tracer.hop_log)
    assert journey["events"][-1] == {"i": 1, "t": 250.0, "hop": "nic_dma",
                                     "scope": "node0.nic0", "pkt": 42,
                                     "zero_copy": True}


def test_hop_without_identity_or_journey_records_nothing():
    tracer, _ = _tracer()
    ack = SimpleNamespace(packet_id=5, src_node=1)
    tracer.hop(ack, "wire", "node1.nic0")                         # no message identity
    tracer.hop(object(), "wire", "node1.nic0")                    # nothing at all
    tracer.hop(SimpleNamespace(payload=ack), "wire", "node1.nic0")  # wrapped ack
    tracer.hop(_packet(msg=8), "wire", "node0.nic0")              # no such journey
    tracer.hop(_packet(src=1), "wire", "node1.nic0")              # ditto, other sender
    (journey,) = journeys_of(tracer.hop_log)
    assert [e["hop"] for e in journey["events"]] == ["send"]


def test_exported_event_keys_keep_their_order():
    tracer, clock = _tracer()
    pkt = _packet()
    tracer.hop(pkt, "fragment", "node0.clic", seq=pkt.seq,
               offset=pkt.frag_offset, nbytes=pkt.frag_bytes)
    clock.now = 10.0
    tracer.hop(pkt, "tx_queue", "node0.clic", seq=pkt.seq, accepted=True)
    tracer.hop(pkt, "retx", "node0.clic", kind="rto")
    clock.now = 20.0
    tracer.hop(pkt, "tx_queue", "node0.clic", seq=pkt.seq, accepted=True)
    tracer.hop(pkt, "wire", "node0.nic0", link="a", bytes=100)
    (journey,) = journeys_of(tracer.hop_log)
    assert [list(e) for e in journey["events"]] == [
        ["i", "t", "hop", "scope", "dst", "nbytes"],
        ["i", "t", "hop", "scope", "pkt", "seq", "offset", "nbytes"],
        ["i", "t", "hop", "scope", "pkt", "seq", "accepted"],
        ["i", "t", "hop", "scope", "pkt", "parent", "seq", "accepted", "kind"],
        ["i", "t", "hop", "scope", "pkt", "link", "bytes"],
    ]
    assert journey["events"][3]["parent"] == 2
    assert journey["fragments"] == 1
    assert journey["retransmits"] == [
        {"pkt": 11, "kind": "rto", "t": 20.0, "parent": 2}]
    # the export is a fresh copy: mutating it leaves the records intact
    journey["events"][0]["t"] = -1.0
    journey["events"][1]["seq"] = -1
    assert journeys_of(tracer.hop_log)[0]["events"][0]["t"] == 0.0
    assert journeys_of(tracer.hop_log)[0]["events"][1]["seq"] == 0


def test_a_retransmit_without_a_retx_record_is_of_unknown_kind():
    tracer, clock = _tracer()
    pkt = _packet()
    tracer.hop(pkt, "tx_queue", "node0.clic", seq=0, accepted=False)
    clock.now = 5.0
    tracer.hop(pkt, "tx_queue", "node0.clic", seq=0, accepted=True)
    clock.now = 9.0
    tracer.hop(pkt, "deliver", "node1.clic", nbytes=100)
    (journey,) = journeys_of(tracer.hop_log)
    assert journey["retransmits"] == [
        {"pkt": 11, "kind": "unknown", "t": 5.0, "parent": 1}]
    assert (journey["delivered"], journey["start_ns"], journey["end_ns"]) == (True, 0.0, 9.0)
    assert [e["hop"] for e in journey["events"]] == ["send", "tx_queue", "tx_queue", "deliver"]


def test_journey_ids_follow_send_order():
    tracer, _ = _tracer()
    tracer.hop(None, "send", "node1.clic", src_node=1, msg_id=7, port=3,
               dst=0, nbytes=50)
    assert [(j["id"], j["key"], j["dst_node"], j["port"], j["nbytes"])
            for j in journeys_of(tracer.hop_log)] == [
        (1, "0:7", 1, 3, 100), (2, "1:7", 0, 3, 50)]
