"""The benchmark's five workloads: point lists, point runners and checks.

A *point* is one fresh :class:`repro.Cluster` plus its traffic, written
as a plain JSON-able dict.  A point list is a pure function of the
workload seed, and the simulator only ever sees the generated points.

Every list is *stratified*: each workload has a fixed multiset of point
classes (MTU x size, protocol x size, loss x model, P x op x mode), and
the seed shuffles their order and draws what varies inside a class (a
sub-KiB tail on bulk sizes, a few bytes on ping-pong sizes, the cluster
seed that drives the loss pattern).  So every seed costs the same host
time within noise, and a run on a new seed still sends new inputs.

A runner returns ``(out, counters)``: ``out`` holds the point's simulated
results (deterministic, compared against ``reference/seed1.json``), and
``counters()`` reads the cluster's model counters.  The benchmark calls
``counters`` only in its untimed counting pass.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Cluster, granada2003, pingpong, stream
from repro.config import Topology
from repro.faults import FaultPlan
from repro.mpi import build_world
from repro.trace import capture_fig4_point
from repro.workloads import clic_pair, tcp_pair

Point = Dict[str, Any]
Result = Tuple[Dict[str, Any], Callable[[], Dict[str, float]]]

WORKLOADS = ("bulk-packet", "bulk-flow", "latency", "lossy-traced", "collectives")

#: bulk-flow runs this many bulk blocks; block 0 is bulk-packet's list
FLOW_BLOCKS = 8

#: the "quiet bulk path" contract of DESIGN.md §7: flow-mode bandwidth
#: within 5% of the packet engine on the same point
FLOW_BW_TOLERANCE = 0.05

FAT_TREE = Topology("fat-tree", leaf_fan=4, uplink_fan=2)

#: model counters summed over a metrics snapshot: name -> key pattern
COUNTER_KEYS = {
    "hw.nic.tx_frames": r"node\d+\.nic\d+\.tx_frames",
    "hw.nic.irqs_asserted": r"node\d+\.nic\d+\.irqs_asserted",
    "hw.switch.forwarded": r"switch\d*\.forwarded",
    "oskernel.syscalls": r"node\d+\.kernel\.syscalls",
    "oskernel.copy_bytes": r"node\d+\.kernel\.copy_bytes",
    "oskernel.bh_executed": r"node\d+\.kernel\.bh\.executed",
    "protocols.clic.pkts_tx": r"node\d+\.clic\.pkts_tx",
    "protocols.clic.pkts_retx": r"node\d+\.clic\.pkts_retx",
    "protocols.clic.acks_tx": r"node\d+\.clic\.acks_tx",
    "faults.loss_drops": r"faults\..*_drops",
}
_COUNTER_RES = {name: re.compile(pattern) for name, pattern in COUNTER_KEYS.items()}


# ---------------------------------------------------------------------------
# point lists
# ---------------------------------------------------------------------------

#: one bulk block: (MTU, log2 KiB), MTU 1500 thrice as often as 9000
BULK_CLASSES = [(1500, k) for k in range(4, 10)] * 3 + [(9000, k) for k in range(4, 10)]


def _bulk_block(seed: int, block: int, flow_mode: str) -> List[Point]:
    rng = random.Random(f"bulk:{seed}:{block}")
    classes = list(BULK_CLASSES)
    rng.shuffle(classes)
    return [{"mtu": mtu, "nbytes": (1 << k) * 1024 + rng.randrange(1024),
             "messages": 2, "flow_mode": flow_mode} for mtu, k in classes]


def _latency_points(seed: int) -> List[Point]:
    rng = random.Random(f"latency:{seed}")
    classes = [(proto, size) for proto in ("clic", "tcp")
               for size in (0, 64, 256, 1024, 4096)] * 3
    rng.shuffle(classes)
    return [{"protocol": proto, "nbytes": size + (rng.randrange(16) if size else 0),
             "round_trips": 40} for proto, size in classes]


#: Cluster seeds of the lossy points, per (loss, model): seeds in 1..128
#: under which the stream drops frames and processes within 10% of the
#: median event count of such seeds.  So every point exercises loss
#: recovery, and a new workload seed brings new loss patterns but not a
#: different amount of work: left unfiltered, the loss pattern moves the
#: work of a 12-point list by ~10% between seeds, and GE at 1% often drops
#: nothing.  Every listed point was run and completes; not every seed does
#: (GE 1% with cluster seed 317995583 drains the event queue with the
#: receiver still waiting), and a benchmark point must not fail for that.
LOSSY_SEEDS = {
    (0.01, "ge"): (1, 2, 4, 11, 13, 16, 17, 22, 25, 26, 27, 31, 33, 35, 42, 56, 61, 65,
                   72, 75, 77, 80, 91, 100),
    (0.01, "uniform"): (1, 2, 4, 6, 12, 14, 20, 22, 25, 28, 29, 31, 33, 34, 37, 40, 44, 47,
                        49, 50, 51, 52, 54, 55),
    (0.02, "ge"): (1, 2, 6, 7, 9, 16, 17, 20, 22, 25, 26, 27, 28, 34, 40, 42, 44, 46, 47,
                   53, 54, 55, 56, 57),
    (0.02, "uniform"): (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 17, 18, 24, 26, 27, 28, 29,
                        30, 31, 33, 34, 38),
    (0.05, "ge"): (4, 6, 11, 12, 13, 14, 16, 20, 26, 32, 34, 44, 50, 51, 54, 60, 63, 64, 83,
                   90, 93, 94, 100, 102),
    (0.05, "uniform"): (1, 6, 7, 9, 12, 14, 16, 17, 18, 22, 33, 34, 39, 40, 42, 43, 44, 45,
                        47, 48, 49, 51, 54, 58),
}


def _lossy_points(seed: int) -> List[Point]:
    rng = random.Random(f"lossy:{seed}")
    picks = [(loss, model, cluster_seed) for (loss, model), seeds in LOSSY_SEEDS.items()
             for cluster_seed in rng.sample(seeds, 2)]
    rng.shuffle(picks)
    return [{"loss": loss, "loss_model": model, "seed": cluster_seed,
             "nbytes": 65536, "messages": 4} for loss, model, cluster_seed in picks]


def _collective_points(seed: int) -> List[Point]:
    rng = random.Random(f"collectives:{seed}")
    classes = [(nodes, op, nbytes, mode) for nodes in (8, 16, 32)
               for op, nbytes in (("barrier", 0), ("allreduce", 64), ("bcast", 8192))
               for mode in ("host", "nic")]
    rng.shuffle(classes)
    return [{"nodes": nodes, "op": op, "nbytes": nbytes, "collectives": mode,
             "repeats": 2} for nodes, op, nbytes, mode in classes]


def points(workload: str, seed: int) -> List[Point]:
    """The workload's point list for ``seed``."""
    if workload == "bulk-packet":
        return _bulk_block(seed, 0, "off")
    if workload == "bulk-flow":
        return [p for block in range(FLOW_BLOCKS) for p in _bulk_block(seed, block, "auto")]
    if workload == "latency":
        return _latency_points(seed)
    if workload == "lossy-traced":
        return _lossy_points(seed)
    if workload == "collectives":
        return _collective_points(seed)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def messages(workload: str, point: Point) -> int:
    """Simulated user-level messages one point delivers.

    A ping-pong round trip is two messages (the warm-up one included); a
    collective counts one completion per rank per call (the opening
    barrier included).
    """
    if workload == "latency":
        return 2 * (point["round_trips"] + 1)
    if workload == "collectives":
        return point["nodes"] * (point["repeats"] + 1)
    return point["messages"]


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def counters(snapshot: Dict[str, Any], flow=None, journeys=(), timeseries=None) -> Dict[str, float]:
    """Model counters of one point, summed across nodes and switches."""
    out = {name: 0.0 for name in COUNTER_KEYS}
    for key, value in snapshot.items():
        if isinstance(value, (int, float)):
            for name, pattern in _COUNTER_RES.items():
                if pattern.fullmatch(key):
                    out[name] += value
    flow_counts = dict(flow.counters) if flow is not None else {}
    out["sim.flowmode.trains"] = flow_counts.get("trains", 0)
    out["sim.flowmode.frames_batched"] = flow_counts.get("frames_batched", 0)
    out["sim.flowmode.fallbacks"] = sum(v for k, v in flow_counts.items()
                                        if k.startswith("fallback_"))
    out["obs.journey_events"] = sum(len(j["events"]) for j in journeys)
    out["obs.timeseries_samples"] = sum(s["count"] for s in (timeseries or {}).values())
    return out


def _two_node_frames(m) -> Dict[str, float]:
    return {f"{node}_{way}_frames": m.value(f"{node}.nic0.{way}_frames")
            for node in ("node0", "node1") for way in ("tx", "rx")}


def _bulk_cluster(point: Point) -> Cluster:
    cfg = granada2003(mtu=point["mtu"]).with_flow_mode(point["flow_mode"])
    return Cluster(cfg, protocols=("clic",))


def _bulk(point: Point) -> Result:
    cluster = _bulk_cluster(point)
    res = stream(cluster, clic_pair(), point["nbytes"], messages=point["messages"])
    m = cluster.metrics
    out = {"elapsed_ns": res.elapsed_ns,
           "bytes_sent": m.value("node0.clic.bytes_sent"),
           "bytes_rx": m.value("node1.clic.bytes_rx"),
           "msgs_rx": m.value("node1.clic.msgs_rx"),
           **_two_node_frames(m)}
    return out, lambda: counters(m.snapshot(), cluster.env.flow)


def _latency_cluster(point: Point) -> Cluster:
    return Cluster(granada2003())


def _latency(point: Point) -> Result:
    cluster = _latency_cluster(point)
    setup = clic_pair() if point["protocol"] == "clic" else tcp_pair()
    res = pingpong(cluster, setup, point["nbytes"], repeats=point["round_trips"], warmup=1)
    m = cluster.metrics
    out = {"rtt_ns": res.rtt_ns,
           "clic_bytes_sent": m.value("node0.clic.bytes_sent") + m.value("node1.clic.bytes_sent"),
           "clic_bytes_rx": m.value("node0.clic.bytes_rx") + m.value("node1.clic.bytes_rx"),
           **_two_node_frames(m)}
    return out, lambda: counters(m.snapshot(), cluster.env.flow)


def _lossy_cluster(point: Point) -> Cluster:
    """The cluster :func:`repro.trace.capture_fig4_point` builds."""
    if point["loss_model"] == "ge":
        faults = FaultPlan.bursty(point["loss"], mean_burst_frames=8.0, loss_bad=1.0)
    else:
        faults = FaultPlan.uniform(point["loss"])
    cfg = replace(granada2003(mtu=1500), seed=point["seed"])
    return Cluster(cfg, protocols=("clic",), faults=faults)


def _lossy(point: Point) -> Result:
    art = capture_fig4_point(nbytes=point["nbytes"], messages=point["messages"],
                             loss=point["loss"], loss_model=point["loss_model"],
                             seed=point["seed"])
    m = art.metrics
    out = {"elapsed_ns": art.result["elapsed_ns"],
           "delivered": art.result["latency"]["delivered"],
           "undelivered_journeys": sum(1 for j in art.journeys if not j["delivered"]),
           "bytes_rx": m.get("node1.clic.bytes_rx", 0.0),
           "pkts_retx": m.get("node0.clic.pkts_retx", 0.0),
           "slo_ok": art.slo["ok"]}
    return out, lambda: counters(m, None, art.journeys, art.timeseries)


def _collectives_cluster(point: Point) -> Cluster:
    return Cluster(granada2003(num_nodes=point["nodes"]).with_topology(FAT_TREE))


def _collectives(point: Point) -> Result:
    """:func:`repro.workloads.collective_rank_times` on a fresh fat-tree.

    Written out here rather than called so the benchmark keeps the
    cluster, whose counters the counting pass reads.
    """
    cluster = _collectives_cluster(point)
    world = build_world(cluster, "clic", collectives=point["collectives"])
    op, nbytes, repeats = point["op"], point["nbytes"], point["repeats"]

    def program(ctx):
        call = getattr(ctx, op)
        yield from ctx.barrier()
        t0 = ctx.proc.env.now
        for _ in range(repeats):
            yield from (call() if op == "barrier" else call(nbytes))
        return (ctx.proc.env.now - t0) / repeats

    rank_ns = list(world.run(program))
    m = cluster.metrics
    out = {"rank_ns": rank_ns,
           "tx_frames": sum(m.value(f"node{n}.nic0.tx_frames") for n in range(point["nodes"]))}
    return out, lambda: counters(m.snapshot(), cluster.env.flow)


RUNNERS: Dict[str, Callable[[Point], Result]] = {
    "bulk-packet": _bulk, "bulk-flow": _bulk, "latency": _latency,
    "lossy-traced": _lossy, "collectives": _collectives,
}

CLUSTER_BUILDERS: Dict[str, Callable[[Point], Cluster]] = {
    "bulk-packet": _bulk_cluster, "bulk-flow": _bulk_cluster,
    "latency": _latency_cluster, "lossy-traced": _lossy_cluster,
    "collectives": _collectives_cluster,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def bw_error(out: Dict[str, Any], packet: Dict[str, Any]) -> float:
    """Relative bandwidth gap of a bulk point against the packet engine."""
    bw, bw_packet = out["bytes_rx"] / out["elapsed_ns"], packet["bytes_rx"] / packet["elapsed_ns"]
    return abs(bw - bw_packet) / bw_packet


def conservation(workload: str, point: Point, out: Dict[str, Any]) -> Optional[str]:
    """Why ``out`` breaks conservation, or ``None`` when it holds."""
    if workload in ("bulk-packet", "bulk-flow"):
        want = point["nbytes"] * point["messages"]
        if not out["bytes_sent"] == out["bytes_rx"] == want:
            return f"bytes sent {out['bytes_sent']} / delivered {out['bytes_rx']}, want {want}"
        if out["msgs_rx"] != point["messages"]:
            return f"{out['msgs_rx']} of {point['messages']} messages delivered"
    if workload == "latency" and point["protocol"] == "clic":
        # a TCP ping-pong that returns has delivered every byte by construction
        want = messages(workload, point) * point["nbytes"]
        if not out["clic_bytes_sent"] == out["clic_bytes_rx"] == want:
            return (f"CLIC bytes sent {out['clic_bytes_sent']} / delivered "
                    f"{out['clic_bytes_rx']}, want {want}")
    if workload == "lossy-traced":
        want = point["nbytes"] * point["messages"]
        if out["delivered"] != point["messages"] or out["undelivered_journeys"]:
            return f"{out['delivered']} of {point['messages']} messages delivered"
        if out["bytes_rx"] != want:
            return f"bytes delivered {out['bytes_rx']}, want {want}"
    if workload == "collectives":
        times = out["rank_ns"]
        if len(times) != point["nodes"] or not all(t > 0 for t in times):
            return f"{len(times)} of {point['nodes']} ranks completed"
    return None


def check(workload: str, point: Point, out: Dict[str, Any],
          ref: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """Why a point failed, or ``None``.

    Conservation is always checked.  With a reference entry (seed 1), a
    packet-exact workload must match it exactly; a bulk-flow point must
    stay within :data:`FLOW_BW_TOLERANCE` of the packet engine, or within
    the flow engine's recorded error where that was already wider.
    """
    problem = conservation(workload, point, out)
    if problem is not None or ref is None:
        return problem
    if ref["point"] != point:
        return "point differs from the reference's point"
    if workload == "bulk-flow":
        err = bw_error(out, ref["packet"])
        allowed = max(FLOW_BW_TOLERANCE, ref["flow_err"])
        if err > allowed:
            return f"bandwidth {err:.2%} from the packet engine, allowed {allowed:.2%}"
        return None
    for key in sorted(set(out) | set(ref["out"])):
        if out.get(key) != ref["out"].get(key):
            return f"{key} = {out.get(key)!r}, reference {ref['out'].get(key)!r}"
    return None
