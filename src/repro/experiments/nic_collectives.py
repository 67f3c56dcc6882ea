"""EXT-NICCOLL — host vs NIC-resident collectives, scaling to P=1024.

The NIC-based-collectives line of work (PAPERS.md) pushes the CLIC
philosophy one step past the kernel bypass: the collective tree itself
runs in NIC firmware (:mod:`repro.hw.nic.collective`), so no syscall,
IRQ or bottom half sits on a rank's critical path between its doorbell
and its completion.  This experiment measures where that pays off — and
where it doesn't.

Sweeps four collective points (barrier, an 8 KB bcast, and a 64 B and
an 8 KB allreduce) over ``collectives="host"`` and ``"nic"`` at
P = 2 .. 64 (quick) or .. 1024 (full).  Small clusters hang off the
legacy single switch; larger ones run on a 2-level fat-tree (16 nodes
per leaf, 4 spine uplinks) built by :mod:`repro.hw.fabric`.  Each sweep
point is a pure-data spec fanned out via :mod:`repro.parallel`, and the
per-rank completion times fold into a :class:`~repro.obs.Histogram` so
the report carries p50/p99 alongside the max.

Outputs:

* per-point **crossover curves** — host and NIC wall time per P, the
  host/NIC speedup, and the smallest P where the NIC engine wins;
* a traced P=4 run per mode counting syscall and IRQ spans (and
  bottom-half activations) on the collective critical path — the NIC
  engine must show exactly zero of each, the host algorithms must not.

Shape checks assert the NIC engine wins the purely latency-bound
points (barrier, small allreduce) at every P, that the 8 KB bcast wins
only while the cluster fits the single switch (cut-through fragments
hide payload latency there; on a multi-level fat-tree the extra
store-and-forward trunk hops hand it back to the host tree), that the
crossover flips for the bandwidth-bound 8 KB allreduce (a reduction
cannot cut through, so the firmware tree serializes payload hops the
host's recursive doubling overlaps), that a NIC barrier scales
sub-linearly (binomial tree, O(log P) depth), and the
zero-kernel-crossing property above.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis import format_table
from ..config import Topology, granada2003
from ..obs import Histogram
from ..parallel import run_tasks
from ..workloads.mpibench import collective_rank_times
from .common import check

EXPERIMENT_ID = "EXT-NICCOLL"

#: the sweep's collective points: (op, payload bytes)
POINTS: Tuple[Tuple[str, int], ...] = (
    ("barrier", 0),
    ("bcast", 8_192),
    ("allreduce", 64),
    ("allreduce", 8_192),
)
MODES = ("host", "nic")
SIZES_QUICK = (2, 4, 16, 64)
SIZES_FULL = (2, 4, 16, 64, 256, 1024)
#: clusters past this size move off the single switch onto a fat-tree
STAR_MAX = 64
FABRIC = ("fat-tree", 16, 4)  # kind, leaf_fan, uplink_fan
#: world size of the traced critical-path runs
TRACED_P = 4


def _key(op: str, nbytes: int) -> str:
    return f"{op}/{nbytes}B"


def _config(size: int):
    cfg = granada2003(num_nodes=size)
    if size > STAR_MAX:
        kind, leaf_fan, uplink_fan = FABRIC
        cfg = cfg.with_topology(
            Topology(kind, leaf_fan=leaf_fan, uplink_fan=uplink_fan))
    return cfg


def _measure(spec: Tuple[str, int, str, int]) -> List[float]:
    """Pool-safe sweep worker: one (op, nbytes, mode, P) -> per-rank ns."""
    op, nbytes, mode, size = spec
    return collective_rank_times(
        _config(size), "clic", op, nbytes, repeats=1, collectives=mode,
    )


def _traced_critical_path(mode: str) -> Dict[str, float]:
    """Run one traced barrier at ``TRACED_P`` and count kernel crossings
    (syscall spans, IRQ spans, bottom-half activations) that start on
    the collective critical path — i.e. after every rank's pre-barrier.
    """
    from ..cluster import Cluster
    from ..mpi import build_world

    cluster = Cluster(granada2003(num_nodes=TRACED_P, trace=True))
    world = build_world(cluster, "clic", collectives=mode)
    t0: List[float] = []
    bh_before: List[int] = []

    def bh_scheduled() -> int:
        return sum(node.kernel.bottom_halves.counters["scheduled"]
                   for node in cluster.nodes)

    def program(ctx):
        yield from ctx.barrier()
        t0.append(ctx.proc.env.now)
        if not bh_before:
            bh_before.append(bh_scheduled())
        yield from ctx.barrier()

    world.run(program)
    start = max(t0)  # every rank is past the warm-up barrier by here
    spans = [s for s in cluster.tracer.spans if s.start_ns >= start]
    syscalls = sum(1 for s in spans if s.name == "syscall")
    irqs = sum(1 for s in spans if s.name == "irq")
    return {"syscall_spans": syscalls, "irq_spans": irqs,
            "bh_scheduled": float(bh_scheduled() - bh_before[0])}


def run(quick: bool = True, jobs: int = 1) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    sizes = SIZES_QUICK if quick else SIZES_FULL
    specs = [(op, nbytes, mode, size) for op, nbytes in POINTS
             for mode in MODES for size in sizes]
    per_rank = run_tasks(_measure, specs, jobs=jobs)

    times: Dict[str, Dict[str, Dict[str, float]]] = {
        _key(op, n): {} for op, n in POINTS}
    percentiles: Dict[str, Dict[str, float]] = {}
    for (op, nbytes, mode, size), ranks in zip(specs, per_rank):
        hist = Histogram(f"{_key(op, nbytes)}/{mode}/{size}")
        for t in ranks:
            hist.record(t)
        times[_key(op, nbytes)].setdefault(mode, {})[str(size)] = max(ranks)
        percentiles[hist.name] = {
            "p50_us": round(hist.percentile(50) / 1000, 2),
            "p99_us": round(hist.percentile(99) / 1000, 2),
            "max_us": round(hist.maximum / 1000, 2),
        }

    crossover: Dict[str, Dict] = {}
    rows = []
    for op, nbytes in POINTS:
        key = _key(op, nbytes)
        curve = {}
        cross_at = None
        for size in sizes:
            host = times[key]["host"][str(size)]
            nic = times[key]["nic"][str(size)]
            curve[str(size)] = round(host / nic, 3)
            if cross_at is None and nic < host:
                cross_at = size
            rows.append((key, size, round(host / 1000, 1),
                         round(nic / 1000, 1), round(host / nic, 2)))
        crossover[key] = {"speedup_by_size": curve, "nic_wins_at": cross_at}

    trace = {mode: _traced_critical_path(mode) for mode in MODES}
    report = format_table(
        ["collective", "P", "host (us)", "NIC (us)", "host/NIC"],
        rows,
        title=f"EXT-NICCOLL: host vs NIC collectives "
              f"(fat-tree past P={STAR_MAX})",
    )
    report += (
        f"\ntraced P={TRACED_P} barrier critical path: "
        f"nic {trace['nic']['syscall_spans']:.0f} syscalls / "
        f"{trace['nic']['irq_spans']:.0f} IRQs / "
        f"{trace['nic']['bh_scheduled']:.0f} BHs — "
        f"host {trace['host']['syscall_spans']:.0f} syscalls"
    )
    result = {
        "id": EXPERIMENT_ID,
        "sizes": list(sizes),
        "points": [list(p) for p in POINTS],
        "times": times,
        "percentiles": percentiles,
        "crossover": crossover,
        "trace": trace,
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the NIC-offload claims on the measured data."""
    times = result["times"]
    sizes = result["sizes"]
    largest = str(max(sizes))
    # Latency-bound points: firmware combining beats host algorithms at
    # every size.  The 8 KB bcast only counts while the cluster fits the
    # single switch — past STAR_MAX its cut-through advantage drowns in
    # store-and-forward trunk hops and the host tree takes over.
    for key in (_key("barrier", 0), _key("allreduce", 64)):
        for size in sizes:
            host = times[key]["host"][str(size)]
            nic = times[key]["nic"][str(size)]
            check(nic < host,
                  "NIC engine wins the latency-bound collectives",
                  f"{key}@{size}: nic {nic/1000:.1f} vs host {host/1000:.1f} us")
    bc = _key("bcast", 8_192)
    for size in sizes:
        if size > STAR_MAX:
            continue
        host = times[bc]["host"][str(size)]
        nic = times[bc]["nic"][str(size)]
        check(nic < host,
              "NIC cut-through bcast wins on the single switch",
              f"{bc}@{size}: nic {nic/1000:.1f} vs host {host/1000:.1f} us")
    # Bandwidth-bound allreduce: a reduction cannot cut through, so the
    # firmware tree serializes full-payload hops and the host's
    # recursive doubling (parallel pairwise exchanges) wins — the
    # crossover the experiment exists to surface.
    big = _key("allreduce", 8_192)
    check(times[big]["nic"][largest] > times[big]["host"][largest],
          "bandwidth-bound allreduce favors host recursive doubling",
          f"{big}@{largest}: nic {times[big]['nic'][largest]/1000:.1f} vs "
          f"host {times[big]['host'][largest]/1000:.1f} us")
    # One binomial tree in firmware: depth (and so time) grows O(log P).
    b_small = times[_key("barrier", 0)]["nic"][str(min(sizes))]
    b_large = times[_key("barrier", 0)]["nic"][largest]
    factor = max(sizes) / min(sizes)
    check(b_large < b_small * factor / 2,
          "NIC barrier scales sub-linearly (binomial tree depth)",
          f"P={min(sizes)}: {b_small/1000:.1f} us vs "
          f"P={largest}: {b_large/1000:.1f} us ({factor:.0f}x nodes)")
    trace = result["trace"]
    for crossing in ("syscall_spans", "irq_spans", "bh_scheduled"):
        check(trace["nic"][crossing] == 0,
              "NIC collectives cross the kernel zero times",
              f"{crossing}: {trace['nic'][crossing]:.0f}")
    check(trace["host"]["syscall_spans"] > 0,
          "host collectives do syscall on the critical path "
          "(the tracer check is live)",
          f"{trace['host']['syscall_spans']:.0f} spans")


if __name__ == "__main__":
    print(run()["report"])
