"""Flow-vs-packet equivalence: the hybrid engine must not change physics.

Three tiers of agreement, mirroring the engine's contract:

* ``flow_mode="off"`` IS the packet-exact reference — asserted
  elsewhere by every seeded test in the suite;
* ``"auto"`` on a quiet bulk path must reproduce the exact engine's
  gate metrics within a small tolerance while processing an order of
  magnitude fewer events;
* ``"auto"`` where the fast path provably never engages (channel
  bonding, fragmentation offload, journey tracing) must be
  *bit-identical* to ``"off"``.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.config import MTU_JUMBO, MTU_STANDARD, granada2003
from repro.obs import jsonable
from repro.workloads import clic_pair, pingpong, stream

#: relative tolerance on tolerance-bounded (not bit-exact) agreement
TOLERANCE = 0.05


def _cfg(mode, mtu=MTU_STANDARD):
    return replace(granada2003(mtu=mtu), profile=True).with_flow_mode(mode)


def _snapshot(cluster):
    return json.dumps(jsonable(cluster.metrics.snapshot()), sort_keys=True)


def _stream(cfg, nbytes=1_000_000, messages=4):
    cluster = Cluster(cfg, protocols=("clic",))
    res = stream(cluster, clic_pair(), nbytes, messages=messages)
    return res, cluster


@pytest.mark.parametrize("mtu", [MTU_STANDARD, MTU_JUMBO])
def test_bulk_stream_agrees_within_tolerance(mtu):
    """The fig4 bulk point: bandwidth within tolerance, conservation
    exact, and a big event reduction (the engine's reason to exist)."""
    res_off, cl_off = _stream(_cfg("off", mtu))
    res_auto, cl_auto = _stream(_cfg("auto", mtu))

    assert res_auto.nbytes_total == res_off.nbytes_total
    rel = abs(res_auto.bandwidth_mbps - res_off.bandwidth_mbps) / res_off.bandwidth_mbps
    assert rel < TOLERANCE

    # The flow engine really engaged, and only at protocol boundaries.
    flow = cl_auto.env.flow.counters
    assert flow["trains"] > 0 and flow["frames_batched"] > flow["trains"]
    assert cl_off.env.profiler.events_processed > \
        10 * cl_auto.env.profiler.events_processed

    # Frame conservation holds closed-form: every byte the sender's
    # module counted out arrived at the receiver's module.
    snaps = [cl.metrics.snapshot() for cl in (cl_off, cl_auto)]
    for snap in snaps:
        assert snap["node0.clic.bytes_sent"] == snap["node1.clic.bytes_rx"]
        assert snap["node0.clic.pkts_tx"] == snap["node1.clic.pkts_rx"]
        assert snap["node0.nic0.tx_frames"] == snap["node1.nic0.rx_frames"]
    # ... and the two engines move exactly the same bytes and data frames.
    snap_off, snap_auto = snaps
    for key in ("node0.clic.bytes_sent", "node1.clic.bytes_rx",
                "node0.nic0.tx_frames", "node1.nic0.rx_frames"):
        assert snap_off[key] == snap_auto[key], key


def test_latency_point_agrees_within_tolerance():
    """The fig5/headline shape: a windowed pingpong's latency may move
    only within tolerance when the engine is armed (express acks change
    event granularity, never protocol behaviour)."""
    lat = {}
    for mode in ("off", "auto"):
        cluster = Cluster(_cfg(mode), protocols=("clic",))
        lat[mode] = pingpong(cluster, clic_pair(), 64_000, repeats=3,
                             warmup=1).one_way_ns
    assert abs(lat["auto"] - lat["off"]) / lat["off"] < TOLERANCE


def test_bonded_cluster_is_bit_identical():
    """Channel bonding has no flow routes, so ``auto`` must degrade to
    the exact engine with zero divergence — same clock, same events,
    same metrics, byte for byte."""
    results = {}
    for mode in ("off", "auto"):
        cfg = _cfg(mode)
        cfg = cfg.with_node(cfg.node.with_nic_count(2))
        res, cluster = _stream(cfg, nbytes=300_000, messages=3)
        if mode == "auto":  # installed but fully stood down
            assert cluster.env.flow is not None
            assert cluster.env.flow.counters["trains"] == 0
        results[mode] = (res.elapsed_ns, res.nbytes_total,
                         cluster.env.profiler.events_processed,
                         _snapshot(cluster))
    assert results["off"] == results["auto"]


def test_fragmentation_offload_is_bit_identical():
    """A fragmentation-offload NIC sends super-packets only its firmware
    splits, so the engine stands down on its routes (a train of them
    would be dropped as oversize at the receiver): a 1 MiB x 4 stream
    under ``auto`` takes the ``off`` time and drops nothing."""
    results = {}
    for mode in ("off", "auto"):
        cfg = _cfg(mode)
        cfg = cfg.with_node(cfg.node.with_fragmentation_offload(True))
        res, cluster = _stream(cfg, nbytes=1 << 20, messages=4)
        if mode == "auto":
            flow = cluster.env.flow.counters
            assert flow["trains"] == 0 and flow["fallback_fragmentation_offload"] > 0
            assert flow.get("acks_express", 0) == 0
        assert cluster.metrics.value("node1.nic0.rx_oversize_drops") in (None, 0)
        results[mode] = (res.elapsed_ns, res.nbytes_total,
                         cluster.env.profiler.events_processed,
                         _snapshot(cluster))
    assert results["off"] == results["auto"]
    assert results["off"][0] == pytest.approx(55_072_956.384)


def test_journey_tracing_is_bit_identical():
    """Journey tracing forces the exact path (per-frame identity must
    stay observable), so a traced ``auto`` run matches a traced ``off``
    run bit for bit."""
    from repro.obs import journeys_of

    results = {}
    for mode in ("off", "auto"):
        cluster = Cluster(_cfg(mode), protocols=("clic",))
        cluster.tracer.hop_log = []
        res = stream(cluster, clic_pair(), 300_000, messages=3)
        if mode == "auto":
            assert cluster.env.flow.counters.get("trains", 0) == 0
            assert cluster.env.flow.counters.get("acks_express", 0) == 0
        results[mode] = (res.elapsed_ns, res.nbytes_total,
                         cluster.env.profiler.events_processed,
                         _snapshot(cluster), len(journeys_of(cluster.tracer.hop_log)))
    assert results["off"] == results["auto"]


def test_off_mode_never_installs_the_controller():
    cluster = Cluster(_cfg("off"), protocols=("clic",))
    assert cluster.env.flow is None


def test_auto_mode_survives_fault_onset_mid_flow():
    """A scheduled congestion spike in the middle of a bulk transfer:
    the engine must fall back to exact simulation for the disturbed
    span and re-engage after — with delivery still exactly-once."""
    from repro.faults import FaultPlan

    cfg = _cfg("auto")
    faults = FaultPlan.congestion_spike(2_000_000.0, 6_000_000.0,
                                        bandwidth_factor=4.0)
    cluster = Cluster(cfg, protocols=("clic",), faults=faults)
    res = stream(cluster, clic_pair(), 1_000_000, messages=8)
    assert res.nbytes_total == 8_000_000
    flow = cluster.env.flow.counters
    assert flow["trains"] > 0  # engaged outside the window
    assert flow.get("fallback_faults", 0) > 0  # stood down inside it
    snap = cluster.metrics.snapshot()
    assert snap["node0.clic.bytes_sent"] == snap["node1.clic.bytes_rx"]
