"""The pinned benchmark suite behind ``python -m repro.perf bench``.

Each scenario measures a headline point of the reproduction (the
paper's latency/bandwidth claims, the Figure-7 layer budget, one
resilience point) and reports two kinds of number:

* **gates** — simulated metrics, deterministic given the seeds, each
  with a direction and a relative tolerance, plus the
  ``events_processed`` tally from :func:`repro.sim.profiled`, which
  catches "the simulation does more work" regressions that simulated
  time hides;
* **metrics** — informational simulated detail, never gated.

Nothing here is wall time: host cost is measured, gated and attributed
to layers by ``bench/run.py`` against ``BENCHMARK.json``.  The document
is therefore a pure function of the code and the ``quick`` flag.

The Figure-7 scenario gates the per-layer budget of the traced packet's
critical path (:func:`repro.obs.critical_path`); its Figure-7 stages
are a regrouping of the same path (:func:`repro.analysis.fig7_timeline`),
so there is nothing left to cross-check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import aggregate_profiles, critical_path, jsonable
from ..parallel import run_tasks
from ..sim import profiled

__all__ = [
    "BASELINE_PATH",
    "BENCH_SCHEMA",
    "SCENARIOS",
    "current_rev",
    "run_bench",
    "write_bench",
]

BENCH_SCHEMA = "repro.bench/1"

#: where ``repro.perf check`` finds the committed baseline by default
BASELINE_PATH = "benchmarks/baselines/BENCH_baseline.json"

#: default relative tolerance on gated simulated metrics
GATE_TOLERANCE = 0.05

#: looser tolerance for the stochastic resilience point (seeded, but a
#: protocol change legitimately moves loss-recovery timings around)
RESILIENCE_TOLERANCE = 0.10

#: simulator-cost drift allowed before the events-processed gate trips
PROFILE_TOLERANCE = 0.25

#: hard floor on the bulk-flowmode event reduction (the hybrid engine's
#: reason to exist); the scenario errors out below this, independent of
#: any baseline drift tolerance
FLOWMODE_MIN_RATIO = 10.0

#: max relative bandwidth disagreement between the exact and hybrid
#: engines on the bulk-flowmode point before the scenario errors out
FLOWMODE_BW_TOLERANCE = 0.05


def _gate(value: float, better: str, tol: float = GATE_TOLERANCE) -> Dict[str, Any]:
    """One gated metric: its value, which direction is good, and tol."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower/higher, got {better!r}")
    return {"value": value, "better": better, "tol": tol}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_headline(quick: bool) -> Tuple[Dict, Dict]:
    """0-byte one-way latency, CLIC vs TCP (the paper's 36 us claim)."""
    from ..cluster import Cluster
    from ..config import granada2003
    from ..workloads import clic_pair, pingpong, tcp_pair

    repeats = 3 if quick else 10
    clic = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=repeats, warmup=1)
    tcp = pingpong(Cluster(granada2003()), tcp_pair(), 0, repeats=repeats, warmup=1)
    gates = {
        "clic_latency_us": _gate(clic.one_way_ns / 1000, "lower"),
        "tcp_latency_us": _gate(tcp.one_way_ns / 1000, "lower"),
    }
    metrics = {"clic_rtt_us": clic.rtt_ns / 1000, "tcp_rtt_us": tcp.rtt_ns / 1000}
    return gates, metrics


def _scenario_fig4(quick: bool) -> Tuple[Dict, Dict]:
    """Figure 4 headline: stream bandwidth per MTU, 0-copy CLIC."""
    from ..config import MTU_JUMBO, MTU_STANDARD, granada2003
    from ..experiments.common import sweep_stream
    from ..workloads import clic_pair

    nbytes, messages = (1_000_000, 8) if quick else (2_000_000, 16)
    jumbo = sweep_stream("CLIC 9000", lambda: granada2003(mtu=MTU_JUMBO),
                         clic_pair, [nbytes], messages=messages).asymptote()
    std = sweep_stream("CLIC 1500", lambda: granada2003(mtu=MTU_STANDARD),
                       clic_pair, [nbytes], messages=messages).asymptote()
    gates = {
        "bw_mtu9000_mbps": _gate(jumbo, "higher"),
        "bw_mtu1500_mbps": _gate(std, "higher"),
    }
    metrics = {"jumbo_gain_mbps": jumbo - std, "message_bytes": nbytes}
    return gates, metrics


def _scenario_fig5(quick: bool) -> Tuple[Dict, Dict]:
    """Figure 5 headline: CLIC-over-TCP bandwidth ratio at MTU 9000."""
    from ..config import MTU_JUMBO, granada2003
    from ..experiments.common import sweep_pingpong
    from ..workloads import clic_pair, tcp_pair

    nbytes = 1_000_000
    clic = sweep_pingpong("CLIC 9000", lambda: granada2003(mtu=MTU_JUMBO),
                          clic_pair, [nbytes]).mbps[0]
    tcp = sweep_pingpong("TCP 9000", lambda: granada2003(mtu=MTU_JUMBO),
                         tcp_pair, [nbytes]).mbps[0]
    gates = {
        "clic_mbps": _gate(clic, "higher"),
        "tcp_mbps": _gate(tcp, "higher"),
        "clic_over_tcp": _gate(clic / tcp, "higher"),
    }
    return gates, {"message_bytes": nbytes}


def _scenario_fig7(quick: bool) -> Tuple[Dict, Dict]:
    """Figure-7 layer budget from the traced packet's critical path."""
    from ..analysis import fig7_timeline
    from ..trace import capture_fig7

    art = capture_fig7()
    path = critical_path(art.spans, art.records, art.result["packet_id"],
                         "node0", "node1")
    layers_us = {layer: ns / 1000 for layer, ns in path.layer_ns().items()}
    gates = {
        "total_us": _gate(path.total_us, "lower"),
        **{f"{layer}_us": _gate(us, "lower")
           for layer, us in layers_us.items() if us > 0.0},
    }
    metrics = {
        "layers_us": layers_us,
        "layer_shares": path.layer_shares(),
        "stages_us": {s.name: s.duration_us for s in fig7_timeline(path).stages},
        "path_hops": len(path.segments),
    }
    return gates, metrics


def _scenario_resilience(quick: bool) -> Tuple[Dict, Dict]:
    """One resilience point: CLIC goodput under 2% uniform frame loss."""
    from ..cluster import Cluster
    from ..config import granada2003
    from ..faults import FaultPlan
    from ..workloads import clic_pair, stream

    messages = 24 if quick else 96
    cfg = granada2003(mtu=1500)
    cluster = Cluster(cfg, protocols=("clic",), faults=FaultPlan.uniform(0.02))
    res = stream(cluster, clic_pair(), 16_384, messages=messages)

    def counter_sum(suffix: str) -> float:
        return sum(inst.value for name, inst in cluster.metrics.items()
                   if inst.kind == "counter" and name.endswith(suffix))

    # ``pkts_retx`` counts every retransmitted data packet; the
    # ``.retransmitted`` counter alone would miss fast retransmits,
    # which dominate recovery at this loss rate.
    registered = counter_sum(".registered")
    retransmitted = counter_sum(".pkts_retx")
    gates = {
        "goodput_mbps": _gate(res.bandwidth_mbps, "higher", RESILIENCE_TOLERANCE),
        "retx_overhead": _gate(retransmitted / registered if registered else 0.0,
                               "lower", RESILIENCE_TOLERANCE),
    }
    metrics = {
        "loss_rate": 0.02,
        "fault_drops": counter_sum(".loss_drops"),
        "fast_retransmits": counter_sum(".fast_retransmits"),
        "timeout_retransmits": counter_sum(".retransmitted"),
        "elapsed_ms": res.elapsed_ns / 1e6,
    }
    return gates, metrics


def _scenario_journey(quick: bool) -> Tuple[Dict, Dict]:
    """Journey-tracing purity: on-vs-off must not perturb the simulation.

    Runs the same burst-loss CLIC stream twice — journeys disabled, then
    enabled — and *errors out* if the simulated results or the metrics
    snapshot differ at all: the observability layer must observe, never
    perturb.
    The gates then track the traced run's cost like any other scenario.
    """
    from dataclasses import replace

    from ..cluster import Cluster
    from ..config import granada2003
    from ..faults import FaultPlan
    from ..obs import JourneyProbe, JourneyRecorder
    from ..workloads import clic_pair, stream

    nbytes, messages = (65_536, 8) if quick else (262_144, 16)

    def one(with_journeys: bool):
        cfg = replace(granada2003(mtu=1500), seed=42)
        cluster = Cluster(cfg, protocols=("clic",),
                          faults=FaultPlan.bursty(0.02, mean_burst_frames=8.0,
                                                  loss_bad=1.0))
        recorder = probe = None
        if with_journeys:
            recorder = JourneyRecorder(cluster.env)
            cluster.tracer.journeys = recorder
            probe = JourneyProbe.install(recorder)
        try:
            res = stream(cluster, clic_pair(), nbytes, messages=messages)
        finally:
            if probe is not None:
                probe.uninstall()
        snapshot = json.dumps(jsonable(cluster.metrics.snapshot()), sort_keys=True)
        return res, snapshot, recorder

    res_off, snap_off, _ = one(False)
    res_on, snap_on, recorder = one(True)
    if (res_off.elapsed_ns, res_off.nbytes_total) != (res_on.elapsed_ns, res_on.nbytes_total):
        raise ValueError(
            "journey tracing perturbed the simulation: "
            f"off={res_off.elapsed_ns} ns, on={res_on.elapsed_ns} ns")
    if snap_off != snap_on:
        raise ValueError("journey tracing perturbed the metrics snapshot")

    delivered = recorder.delivered()
    gates = {
        "goodput_mbps": _gate(res_on.bandwidth_mbps, "higher", RESILIENCE_TOLERANCE),
        "journeys_delivered": _gate(float(len(delivered)), "higher"),
    }
    metrics = {
        "journeys": len(recorder),
        "retransmitted_journeys": sum(1 for j in delivered if j.retransmits),
        "journey_events": sum(len(j.events) for j in delivered),
    }
    return gates, metrics


def _scenario_bulk_flowmode(quick: bool) -> Tuple[Dict, Dict]:
    """Hybrid-engine headline: the fig4 bulk point, exact vs flow mode.

    Runs the same 1 MB MTU-1500 stream twice — ``flow_mode="off"``
    (the packet-exact reference) and ``"auto"`` (analytic bulk-train
    batching) — and *errors out* unless the hybrid engine cuts
    ``events_processed`` by at least
    :data:`FLOWMODE_MIN_RATIO` while reproducing the exact engine's
    bandwidth within :data:`FLOWMODE_BW_TOLERANCE`.  The gates then pin
    both numbers against the committed baseline like any other scenario.
    """
    from dataclasses import replace

    from ..cluster import Cluster
    from ..config import MTU_STANDARD, granada2003
    from ..workloads import clic_pair, stream

    nbytes, messages = (1_000_000, 8) if quick else (2_000_000, 16)

    def one(mode: str):
        cfg = replace(granada2003(mtu=MTU_STANDARD),
                      profile=True).with_flow_mode(mode)
        cluster = Cluster(cfg, protocols=("clic",))
        res = stream(cluster, clic_pair(), nbytes, messages=messages)
        return res, cluster

    res_off, cl_off = one("off")
    res_auto, cl_auto = one("auto")
    ev_off = cl_off.env.profiler.events_processed
    ev_auto = cl_auto.env.profiler.events_processed
    ratio = ev_off / ev_auto
    if ratio < FLOWMODE_MIN_RATIO:
        raise ValueError(
            f"flow mode reduced events only {ratio:.2f}x "
            f"({ev_off} -> {ev_auto}); the bulk fast path requires "
            f">= {FLOWMODE_MIN_RATIO:.0f}x")
    bw_rel = abs(res_auto.bandwidth_mbps - res_off.bandwidth_mbps) / res_off.bandwidth_mbps
    if bw_rel > FLOWMODE_BW_TOLERANCE:
        raise ValueError(
            f"flow mode moved bulk bandwidth {bw_rel:.1%} "
            f"(off={res_off.bandwidth_mbps:.2f}, "
            f"auto={res_auto.bandwidth_mbps:.2f} MB/s); "
            f"tolerance is {FLOWMODE_BW_TOLERANCE:.0%}")

    flow = dict(cl_auto.env.flow.counters)
    gates = {
        "event_reduction": _gate(ratio, "higher"),
        "bw_auto_mbps": _gate(res_auto.bandwidth_mbps, "higher"),
        "bw_off_mbps": _gate(res_off.bandwidth_mbps, "higher"),
    }
    metrics = {
        "events_off": ev_off,
        "events_auto": ev_auto,
        "event_reduction": ratio,
        "bw_rel_err": bw_rel,
        "trains": flow.get("trains", 0),
        "frames_batched": flow.get("frames_batched", 0),
        "acks_express": flow.get("acks_express", 0),
        "fallbacks": {k[len("fallback_"):]: v for k, v in flow.items()
                      if k.startswith("fallback_")},
        "message_bytes": nbytes,
    }
    return gates, metrics


def _scenario_collectives(quick: bool) -> Tuple[Dict, Dict]:
    """NIC-offload headline: host vs NIC collectives on a fat-tree.

    Pins one point of the ``collectives-scaling`` experiment: barrier
    and small-payload allreduce at a fixed P over a 2-level fat-tree,
    in both ``collectives`` modes.  *Errors out* if the NIC engine
    fails to beat the host barrier, or
    if a traced NIC barrier shows any syscall/IRQ/bottom-half on the
    collective critical path — the property the offload exists for.
    The gates then pin the absolute times and the speedup against the
    committed baseline.
    """
    from ..experiments.nic_collectives import _traced_critical_path
    from ..config import Topology, granada2003
    from ..workloads.mpibench import collective_time

    size = 16 if quick else 64
    cfg = granada2003(num_nodes=size).with_topology(
        Topology("fat-tree", leaf_fan=4, uplink_fan=2))
    times = {
        (op, mode): collective_time(
            cfg, "clic", op, nbytes, repeats=2, collectives=mode)
        for op, nbytes in (("barrier", 0), ("allreduce", 64))
        for mode in ("host", "nic")
    }
    speedup = times[("barrier", "host")] / times[("barrier", "nic")]
    if speedup <= 1.0:
        raise ValueError(
            f"NIC barrier lost to the host algorithms at P={size} "
            f"({times[('barrier', 'nic')]/1000:.1f} vs "
            f"{times[('barrier', 'host')]/1000:.1f} us)")
    crossings = _traced_critical_path("nic")
    if any(crossings.values()):
        raise ValueError(
            f"NIC collective critical path crossed the kernel: {crossings}")

    gates = {
        "host_barrier_us": _gate(times[("barrier", "host")] / 1000, "lower"),
        "nic_barrier_us": _gate(times[("barrier", "nic")] / 1000, "lower"),
        "nic_allreduce_us": _gate(times[("allreduce", "nic")] / 1000, "lower"),
        "nic_barrier_speedup": _gate(speedup, "higher"),
    }
    metrics = {
        "num_nodes": size,
        "host_allreduce_us": times[("allreduce", "host")] / 1000,
        "kernel_crossings": crossings,
    }
    return gates, metrics


#: scenario name -> runner(quick) -> (gates, metrics); pinned order
SCENARIOS: List[Tuple[str, Callable[[bool], Tuple[Dict, Dict]]]] = [
    ("headline", _scenario_headline),
    ("fig4", _scenario_fig4),
    ("fig5", _scenario_fig5),
    ("fig7", _scenario_fig7),
    ("resilience", _scenario_resilience),
    ("journey", _scenario_journey),
    ("bulk-flowmode", _scenario_bulk_flowmode),
    ("collectives-scaling", _scenario_collectives),
]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def current_rev() -> str:
    """Short git revision of the working tree, or ``local`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "local"
    except Exception:
        return "local"


def _scenario_task(spec: Tuple[str, bool]) -> Tuple[str, Dict, Dict]:
    """Run one scenario from a pure-data spec (module-level: pool-safe)."""
    name, quick = spec
    runner = dict(SCENARIOS)[name]
    with profiled() as profilers:
        gates, metrics = runner(quick)
    events = aggregate_profiles(profilers)["events_processed"]
    gates["events_processed"] = _gate(float(events), "lower", PROFILE_TOLERANCE)
    return name, gates, metrics


def run_bench(quick: bool = True, scenarios: Optional[List[str]] = None,
              rev: Optional[str] = None, jobs: int = 1) -> Dict[str, Any]:
    """Run the pinned suite and return the bench document (plain dict).

    ``jobs > 1`` fans the scenarios out over a process pool; the
    document is byte-identical to a serial run.
    """
    wanted = {name for name, _ in SCENARIOS} if scenarios is None else set(scenarios)
    unknown = wanted - {name for name, _ in SCENARIOS}
    if unknown:
        raise KeyError(f"unknown scenarios {sorted(unknown)}; "
                       f"have {[name for name, _ in SCENARIOS]}")
    specs = [(name, quick) for name, _ in SCENARIOS if name in wanted]
    return jsonable({
        "schema": BENCH_SCHEMA,
        "rev": rev if rev is not None else current_rev(),
        "quick": quick,
        "python": sys.version.split()[0],
        "scenarios": {name: {"gates": gates, "metrics": metrics}
                      for name, gates, metrics
                      in run_tasks(_scenario_task, specs, jobs=jobs)},
    })


def write_bench(doc: Dict[str, Any], path: str) -> None:
    """Write a bench document as deterministic, sorted-key JSON."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
