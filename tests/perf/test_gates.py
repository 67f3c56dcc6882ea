"""Simulated-physics gates: the paper's headline numbers within tolerance.

Eight scenarios pin the reproduction's headline points: the 0-byte
one-way latency (the paper's 36 us claim), Figure 4's bandwidth per
MTU, Figure 5's CLIC/TCP ratio, the Figure-7 per-layer budget, one
resilience point, journey tracing, the hybrid flow engine and the NIC
collectives.  Each scenario returns ``{gate: value}``; the ``@gates``
line above it declares each gate's direction and relative tolerance.
Every scenario runs under :func:`repro.sim.profiled`, and its
``events_processed`` tally is gated too (25 %), which catches "the
simulation does more work" regressions that simulated time hides.
Nothing here is wall time: ``bench/run.py`` measures host cost.

One rule compares a measurement with ``gates.json``: a lower-is-better
gate fails above ``value * (1 + tol)``, a higher-is-better gate fails
below ``value * (1 - tol)``, and the bound itself passes.  The suite is
fixed, so a gate measured but not recorded fails, and so does one
recorded but not measured.

The recorded values change only on purpose.  To record them again::

    PYTHONPATH=src python tests/perf/test_gates.py

On an unchanged tree this rewrites identical bytes, so
``git diff --exit-code tests/perf/gates.json`` shows that a change left
every gate value where it was.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.obs import LAYERS, aggregate_profiles, critical_path, jsonable
from repro.sim import profiled

FIXTURE = os.path.join(os.path.dirname(__file__), "gates.json")

LOWER, HIGHER = "lower", "higher"

#: default relative tolerance of a simulated metric
TOL = 0.05

#: the stochastic points: seeded, but a protocol change legitimately
#: moves loss-recovery timings around
LOSSY_TOL = 0.10

#: simulator-cost drift allowed before ``events_processed`` trips
PROFILE_TOL = 0.25

#: scenario name -> (runner, {gate: (better, tol)}), in pinned order
SCENARIOS = {}


def gates(name, **declared):
    """Register a scenario under ``name`` with each gate's
    ``(better, tol)``; ``events_processed`` is declared for all."""
    def register(runner):
        SCENARIOS[name] = (runner, {**declared,
                                    "events_processed": (LOWER, PROFILE_TOL)})
        return runner
    return register


@gates("headline", clic_latency_us=(LOWER, TOL), tcp_latency_us=(LOWER, TOL))
def headline():
    """0-byte one-way latency, CLIC vs TCP (the paper's 36 us claim)."""
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.workloads import clic_pair, pingpong, tcp_pair

    clic = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=3, warmup=1)
    tcp = pingpong(Cluster(granada2003()), tcp_pair(), 0, repeats=3, warmup=1)
    return {"clic_latency_us": clic.one_way_ns / 1000,
            "tcp_latency_us": tcp.one_way_ns / 1000}


@gates("fig4", bw_mtu9000_mbps=(HIGHER, TOL), bw_mtu1500_mbps=(HIGHER, TOL))
def fig4():
    """Figure 4 headline: 1 MB stream bandwidth per MTU, 0-copy CLIC."""
    from repro.config import MTU_JUMBO, MTU_STANDARD, granada2003
    from repro.experiments.common import sweep_stream
    from repro.workloads import clic_pair

    def asymptote(label, mtu):
        return sweep_stream(label, granada2003(mtu=mtu), clic_pair,
                            [1_000_000], messages=8).asymptote()

    return {"bw_mtu9000_mbps": asymptote("CLIC 9000", MTU_JUMBO),
            "bw_mtu1500_mbps": asymptote("CLIC 1500", MTU_STANDARD)}


@gates("fig5", clic_mbps=(HIGHER, TOL), tcp_mbps=(HIGHER, TOL),
       clic_over_tcp=(HIGHER, TOL))
def fig5():
    """Figure 5 headline: CLIC-over-TCP bandwidth ratio at MTU 9000."""
    from repro.config import MTU_JUMBO, granada2003
    from repro.experiments.common import sweep_pingpong
    from repro.workloads import clic_pair, tcp_pair

    def mbps(label, pair):
        return sweep_pingpong(label, granada2003(mtu=MTU_JUMBO), pair,
                              [1_000_000]).mbps[0]

    clic, tcp = mbps("CLIC 9000", clic_pair), mbps("TCP 9000", tcp_pair)
    return {"clic_mbps": clic, "tcp_mbps": tcp, "clic_over_tcp": clic / tcp}


def fig7_path():
    """The traced Figure-7 packet's critical path, node0 -> node1."""
    from repro.trace import capture_fig7

    art = capture_fig7()
    return critical_path(art.spans, art.records, art.result["packet_id"],
                         "node0", "node1")


@gates("fig7", total_us=(LOWER, TOL),
       **{f"{layer}_us": (LOWER, TOL) for layer in LAYERS})
def fig7():
    """Figure-7 layer budget: the path total and every nonzero layer."""
    path = fig7_path()
    return {"total_us": path.total_us,
            **{f"{layer}_us": ns / 1000
               for layer, ns in path.layer_ns().items() if ns > 0}}


@gates("resilience", goodput_mbps=(HIGHER, LOSSY_TOL),
       retx_overhead=(LOWER, LOSSY_TOL))
def resilience():
    """One resilience point: CLIC goodput under 2 % uniform frame loss."""
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.faults import FaultPlan
    from repro.workloads import clic_pair, stream

    cluster = Cluster(granada2003(mtu=1500), protocols=("clic",),
                      faults=FaultPlan.uniform(0.02))
    res = stream(cluster, clic_pair(), 16_384, messages=24)

    def counter_sum(suffix):
        return sum(inst.value for name, inst in cluster.metrics.items()
                   if inst.kind == "counter" and name.endswith(suffix))

    # ``pkts_retx`` counts every retransmitted data packet; the
    # ``.retransmitted`` counter alone would miss fast retransmits,
    # which dominate recovery at this loss rate.
    registered = counter_sum(".registered")
    retransmitted = counter_sum(".pkts_retx")
    return {"goodput_mbps": res.bandwidth_mbps,
            "retx_overhead": retransmitted / registered if registered else 0.0}


@gates("journey", goodput_mbps=(HIGHER, LOSSY_TOL),
       journeys_delivered=(HIGHER, TOL))
def journey():
    """Journey tracing observes and never perturbs: the same burst-loss
    CLIC stream with journeys off and on has identical results and
    metrics snapshots; the gates track the traced run."""
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.faults import FaultPlan
    from repro.obs import journeys_of
    from repro.workloads import clic_pair, stream

    def one(with_journeys):
        cluster = Cluster(replace(granada2003(mtu=1500), seed=42),
                          protocols=("clic",),
                          faults=FaultPlan.bursty(0.02, mean_burst_frames=8.0,
                                                  loss_bad=1.0))
        if with_journeys:
            cluster.tracer.hop_log = []
        res = stream(cluster, clic_pair(), 65_536, messages=8)
        snapshot = json.dumps(jsonable(cluster.metrics.snapshot()), sort_keys=True)
        return res, snapshot, cluster.tracer.hop_log

    res_off, snap_off, _ = one(False)
    res_on, snap_on, hop_log = one(True)
    assert (res_on.elapsed_ns, res_on.nbytes_total) == (
        res_off.elapsed_ns, res_off.nbytes_total), "journeys perturbed the run"
    assert snap_on == snap_off, "journeys perturbed the metrics snapshot"
    return {"goodput_mbps": res_on.bandwidth_mbps,
            "journeys_delivered": float(sum(j["delivered"] for j in journeys_of(hop_log)))}


@gates("bulk-flowmode", events_off=(LOWER, TOL), events_auto=(LOWER, TOL),
       bw_auto_mbps=(HIGHER, TOL), bw_off_mbps=(HIGHER, TOL))
def bulk_flowmode():
    """Hybrid-engine headline: the fig4 bulk point, exact vs flow mode.

    The same 1 MB MTU-1500 stream under ``flow_mode="off"`` (the
    packet-exact reference) and ``"auto"``: the hybrid engine must cut
    ``events_processed`` at least 10x and keep the bandwidth within 5 %
    of ``off``, whatever the recorded values say.  Each engine's event
    count is gated on its own: their ratio also moves when the work both
    engines share (CPU slices, bus holds) gets cheaper, which says
    nothing about flow batching.
    """
    from repro.cluster import Cluster
    from repro.config import MTU_STANDARD, granada2003
    from repro.workloads import clic_pair, stream

    def one(mode):
        cfg = replace(granada2003(mtu=MTU_STANDARD), profile=True).with_flow_mode(mode)
        cluster = Cluster(cfg, protocols=("clic",))
        res = stream(cluster, clic_pair(), 1_000_000, messages=8)
        return res.bandwidth_mbps, cluster.env.profiler.events_processed

    bw_off, ev_off = one("off")
    bw_auto, ev_auto = one("auto")
    ratio = ev_off / ev_auto
    assert ratio >= 10.0, f"flow mode cut events only {ratio:.2f}x ({ev_off} -> {ev_auto})"
    assert abs(bw_auto - bw_off) / bw_off <= 0.05, (
        f"flow mode moved bulk bandwidth: off={bw_off:.2f}, auto={bw_auto:.2f} MB/s")
    return {"events_off": float(ev_off), "events_auto": float(ev_auto),
            "bw_auto_mbps": bw_auto, "bw_off_mbps": bw_off}


@gates("collectives-scaling", host_barrier_us=(LOWER, TOL),
       nic_barrier_us=(LOWER, TOL), nic_allreduce_us=(LOWER, TOL),
       nic_barrier_speedup=(HIGHER, TOL))
def collectives_scaling():
    """NIC-offload headline: host vs NIC barrier and 64 B allreduce on a
    16-node fat-tree.  The NIC barrier must beat the host barrier, and a
    traced NIC barrier's critical path must cross no syscall, IRQ or
    bottom half."""
    from repro.config import Topology, granada2003
    from repro.experiments.nic_collectives import _traced_critical_path
    from repro.workloads.mpibench import collective_rank_times

    cfg = granada2003(num_nodes=16).with_topology(
        Topology("fat-tree", leaf_fan=4, uplink_fan=2))
    times_ns = {
        (op, mode): max(collective_rank_times(cfg, "clic", op, nbytes, repeats=2,
                                              collectives=mode))
        for op, nbytes in (("barrier", 0), ("allreduce", 64))
        for mode in ("host", "nic")
    }
    speedup = times_ns[("barrier", "host")] / times_ns[("barrier", "nic")]
    assert speedup > 1.0, f"NIC barrier lost to the host algorithms: {times_ns}"
    crossings = _traced_critical_path("nic")
    assert not any(crossings.values()), f"NIC barrier crossed the kernel: {crossings}"
    return {"host_barrier_us": times_ns[("barrier", "host")] / 1000,
            "nic_barrier_us": times_ns[("barrier", "nic")] / 1000,
            "nic_allreduce_us": times_ns[("allreduce", "nic")] / 1000,
            "nic_barrier_speedup": speedup}


def measure(name):
    """Run one scenario: ``{gate: {value, better, tol}}``."""
    runner, declared = SCENARIOS[name]
    with profiled() as profilers:
        values = runner()
    values["events_processed"] = float(aggregate_profiles(profilers)["events_processed"])
    return {gate: {"value": value, "better": declared[gate][0], "tol": declared[gate][1]}
            for gate, value in values.items()}


def within(gate, value):
    """The one rule: is ``value`` on the good side of the recorded
    ``gate``'s bound (the bound itself passes)?"""
    if gate["better"] == LOWER:
        return value <= gate["value"] * (1 + gate["tol"])
    return value >= gate["value"] * (1 - gate["tol"])


def failures(measured, recorded):
    """Every way ``measured`` misses ``recorded``, one line each."""
    out = []
    for name in sorted(set(measured) | set(recorded)):
        if name not in recorded:
            out.append(f"{name}: measured but not recorded")
        elif name not in measured:
            out.append(f"{name}: recorded but not measured")
        else:
            got, want = measured[name], recorded[name]
            if (got["better"], got["tol"]) != (want["better"], want["tol"]):
                out.append(f"{name}: declared {got['better']} {got['tol']:g}, "
                           f"recorded {want['better']} {want['tol']:g}")
            elif not within(want, got["value"]):
                out.append(f"{name}: {got['value']:g} is past {want['value']:g} "
                           f"({want['better']} is better, tol {want['tol']:.0%})")
    return out


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_suite_is_fixed(recorded):
    assert list(SCENARIOS) == [
        "headline", "fig4", "fig5", "fig7", "resilience", "journey",
        "bulk-flowmode", "collectives-scaling"]
    assert sorted(recorded) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_gates_hold(name, recorded):
    assert failures(measure(name), recorded[name]) == []


def test_fig7_layer_budget(recorded):
    """The traced packet's 12-hop critical path regroups into the five
    Figure-7(a) stages, its layer shares sum to 1, and every nonzero
    layer is gated."""
    from repro.analysis import fig7_timeline

    path = fig7_path()
    assert len(path.segments) == 12
    assert len(fig7_timeline(path).stages) == 5
    assert sum(path.layer_shares().values()) == pytest.approx(1.0)
    assert path.total_us == pytest.approx(sum(path.layer_ns().values()) / 1000, rel=1e-6)
    for layer, ns in path.layer_ns().items():
        if ns > 0:
            assert recorded["fig7"][f"{layer}_us"]["better"] == LOWER


@pytest.mark.parametrize("value, measured, better, tol, passes", [
    (100.0, 104.0, LOWER, 0.05, True),
    (100.0, 106.0, LOWER, 0.05, False),
    (100.0, 90.0, LOWER, 0.05, True),
    (100.0, 96.0, HIGHER, 0.05, True),
    (100.0, 94.0, HIGHER, 0.05, False),
    (100.0, 110.0, HIGHER, 0.05, True),
    (100.0, 100.0 * (1 + 0.05), LOWER, 0.05, True),
    (200.0, 200.0 * (1 - 0.10), HIGHER, 0.10, True),
    (100.0, 105.0, LOWER, 0.05, True),
    (200.0, 180.0, HIGHER, 0.10, True),
    (100.0, 105.5, LOWER, 0.05, False),
    (200.0, 179.0, HIGHER, 0.10, False),
], ids=["lower-inside", "lower-past", "lower-better", "higher-inside",
        "higher-past", "higher-better", "lower-bound", "higher-bound",
        "lower-at-105", "higher-at-180", "lower-past-bound", "higher-past-bound"])
def test_one_rule(value, measured, better, tol, passes):
    gate = {"value": value, "better": better, "tol": tol}
    assert within(gate, measured) is passes
    assert (failures({"g": {**gate, "value": measured}}, {"g": gate}) == []) is passes


def test_gate_set_mismatch_fails():
    gate = {"value": 1.0, "better": LOWER, "tol": TOL}
    assert failures({"a": gate, "new": gate}, {"a": gate, "gone": gate}) == [
        "gone: recorded but not measured", "new: measured but not recorded"]
    assert failures({"a": {**gate, "tol": 0.5}}, {"a": gate}) == [
        "a: declared lower 0.5, recorded lower 0.05"]


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump({name: measure(name) for name in SCENARIOS}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
