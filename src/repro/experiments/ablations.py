"""ABL-* — ablations of the design choices DESIGN.md calls out.

* **ABL-COAL** — interrupt coalescing: latency cost for a lone packet vs
  bandwidth gain under load (the §2 trade-off).
* **ABL-DIRECT** — Figure 8(b) direct driver->CLIC_MODULE dispatch:
  latency gain, identical delivery semantics.
* **ABL-FRAG** — on-NIC fragmentation offload (the paper's declined/
  future-work feature): host sends one descriptor per *message segment*
  instead of per MTU frame, saving per-fragment module+driver work at
  MTU 1500.
* **ABL-BOND** — channel bonding x1 vs x2 NICs on both the paper's
  33 MHz PCI (no gain possible: the I/O bus is the ceiling) and a
  66 MHz/64-bit bus (wire-limited: bonding pays).
* **ABL-SCHED** — GAMMA-style lightweight return (skip the scheduler on
  syscall exit): measures what CLIC's §3.2(a) design choice costs.
* **ABL-POLL** — §3.2(b): VIA-style polling receive, with the probe
  either crossing the PCI bus (the expensive flavour the paper warns
  about) or hitting a cached completion queue, at several poll
  intervals — "the polling frequency must be carefully selected".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..analysis import format_table
from ..cluster import Cluster
from ..config import MTU_JUMBO, MTU_STANDARD, granada2003, pci_66mhz_64bit
from ..workloads import clic_pair, pingpong, stream
from .common import check

EXPERIMENT_ID = "ABLATIONS"


def _latency(cfg) -> float:
    return pingpong(Cluster(cfg), clic_pair(), 0, repeats=2, warmup=1).one_way_ns / 1000


def _latency_1400(cfg) -> float:
    return pingpong(Cluster(cfg), clic_pair(), 1400, repeats=2, warmup=1).one_way_ns / 1000


def _bandwidth(cfg, nbytes=2_000_000) -> float:
    return stream(Cluster(cfg), clic_pair(), nbytes).bandwidth_mbps


def _via_pingpong(poll_pci: bool, poll_interval_ns: float) -> Dict:
    """0-byte VIA ping-pong (4 round trips) with explicit polling parameters."""
    repeats = 4
    cfg = granada2003()
    cfg = cfg.with_node(
        replace(cfg.node, via=replace(cfg.node.via, poll_interval_ns=poll_interval_ns))
    )
    cluster = Cluster(cfg, protocols=("via",))
    vi_a = cluster.nodes[0].via.create_vi()
    vi_b = cluster.nodes[1].via.create_vi(vi_a.vi_id)
    result: Dict[str, float] = {}

    def ping(proc):
        t0 = proc.env.now
        for _ in range(repeats):
            yield from vi_a.send(1, 0)
            yield from vi_a.recv(poll_pci=poll_pci)
        result["rtt"] = (proc.env.now - t0) / repeats

    def pong(proc):
        for _ in range(repeats):
            yield from vi_b.recv(poll_pci=poll_pci)
            yield from vi_b.send(0, 0)

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    done = p0.run(ping)
    p1.run(pong)
    cluster.env.run(done)
    return {
        "lat_us": result["rtt"] / 2 / 1000,
        "poll_pci_accesses": cluster.nodes[0].pci.counters["via_poll_accesses"],
        "cpu_poll_us": cluster.nodes[0].cpu.counters["work.via_poll"] / 1000,
    }


def _measure_polling() -> Dict:
    pci = _via_pingpong(poll_pci=True, poll_interval_ns=1_000.0)
    cached = _via_pingpong(poll_pci=False, poll_interval_ns=1_000.0)
    fine = _via_pingpong(poll_pci=False, poll_interval_ns=1_000.0)
    coarse = _via_pingpong(poll_pci=False, poll_interval_ns=50_000.0)
    return {
        "lat_pci_us": pci["lat_us"],
        "lat_cached_us": cached["lat_us"],
        "pci_probes": pci["poll_pci_accesses"],
        "cached_probes_pci": cached["poll_pci_accesses"],
        "lat_fine_us": fine["lat_us"],
        "lat_coarse_us": coarse["lat_us"],
        "cpu_fine_us": fine["cpu_poll_us"],
        "cpu_coarse_us": coarse["cpu_poll_us"],
    }


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    base = granada2003(mtu=MTU_JUMBO)

    # ABL-COAL
    no_coal = base.with_node(base.node.with_coalescing(False))
    coal = {
        "lat_on_us": _latency(base),
        "lat_off_us": _latency(no_coal),
        "bw_on": _bandwidth(base),
        "bw_off": _bandwidth(no_coal),
    }

    # ABL-DIRECT
    direct_cfg = base.with_node(base.node.with_direct_rx(True))
    direct = {
        "lat_stock_us": _latency_1400(base),
        "lat_direct_us": _latency_1400(direct_cfg),
    }

    # ABL-FRAG (at MTU 1500, where per-fragment work dominates)
    std = granada2003(mtu=MTU_STANDARD)
    frag_node = std.node.with_fragmentation_offload(True)
    frag_cfg = std.with_node(frag_node)
    frag = {
        "bw_sw_frag": _bandwidth(std, 1_000_000),
        "bw_nic_frag": _bandwidth(frag_cfg, 1_000_000),
    }

    # ABL-BOND
    bond = {}
    for label, pci_fast in (("pci33", False), ("pci66", True)):
        for nics in (1, 2):
            node = base.node.with_nic_count(nics)
            if pci_fast:
                node = replace(node, pci=pci_66mhz_64bit())
            bond[f"{label}/x{nics}"] = _bandwidth(base.with_node(node))

    # ABL-POLL (§3.2(b)): polling cost for a VIA-style receiver.
    poll = _measure_polling()

    # ABL-SCHED
    light_node = replace(
        base.node, kernel=replace(base.node.kernel, scheduler_on_syscall_return=False)
    )
    sched = {
        "lat_sched_us": _latency(base),
        "lat_nosched_us": _latency(base.with_node(light_node)),
    }

    rows = [
        ("COAL: 0B latency on/off (us)", round(coal["lat_on_us"], 1), round(coal["lat_off_us"], 1)),
        ("COAL: stream bw on/off (Mb/s)", round(coal["bw_on"], 0), round(coal["bw_off"], 0)),
        ("DIRECT: 1400B latency stock/direct (us)", round(direct["lat_stock_us"], 1), round(direct["lat_direct_us"], 1)),
        ("FRAG: MTU1500 bw sw/NIC-offload (Mb/s)", round(frag["bw_sw_frag"], 0), round(frag["bw_nic_frag"], 0)),
        ("BOND: pci33 x1/x2 (Mb/s)", round(bond["pci33/x1"], 0), round(bond["pci33/x2"], 0)),
        ("BOND: pci66 x1/x2 (Mb/s)", round(bond["pci66/x1"], 0), round(bond["pci66/x2"], 0)),
        ("SCHED: latency with/without scheduler (us)", round(sched["lat_sched_us"], 1), round(sched["lat_nosched_us"], 1)),
        ("POLL: VIA latency pci/cached probe (us)", round(poll["lat_pci_us"], 1), round(poll["lat_cached_us"], 1)),
        ("POLL: rx poll PCI transactions pci/cached", int(poll["pci_probes"]), int(poll["cached_probes_pci"])),
        ("POLL: CPU burnt polling 1us/50us interval (us)", round(poll["cpu_fine_us"], 1), round(poll["cpu_coarse_us"], 1)),
        ("POLL: latency 1us/50us interval (us)", round(poll["lat_fine_us"], 1), round(poll["lat_coarse_us"], 1)),
    ]
    report = format_table(["ablation", "A", "B"], rows, title="ABLATIONS")
    result = {
        "id": EXPERIMENT_ID,
        "coalescing": coal,
        "direct": direct,
        "fragmentation": frag,
        "bonding": bond,
        "scheduler": sched,
        "polling": poll,
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    coal = result["coalescing"]
    check(coal["lat_off_us"] < coal["lat_on_us"],
          "disabling coalescing lowers lone-packet latency (the §2 trade-off)",
          f"{coal['lat_off_us']:.1f} vs {coal['lat_on_us']:.1f}")
    check(coal["bw_on"] >= coal["bw_off"] * 0.98,
          "coalescing does not cost stream bandwidth",
          f"{coal['bw_on']:.0f} vs {coal['bw_off']:.0f}")

    direct = result["direct"]
    check(direct["lat_direct_us"] < direct["lat_stock_us"] - 3,
          "direct dispatch saves several microseconds at 1400 B (Figure 8)",
          f"{direct['lat_direct_us']:.1f} vs {direct['lat_stock_us']:.1f}")

    frag = result["fragmentation"]
    check(frag["bw_nic_frag"] > frag["bw_sw_frag"] * 1.02,
          "NIC fragmentation offload improves MTU-1500 bandwidth (the paper's declined optimisation)",
          f"{frag['bw_nic_frag']:.0f} vs {frag['bw_sw_frag']:.0f}")

    bond = result["bonding"]
    check(bond["pci33/x2"] < bond["pci33/x1"] * 1.1,
          "bonding cannot beat the 33 MHz PCI ceiling",
          f"{bond['pci33/x2']:.0f} vs {bond['pci33/x1']:.0f}")
    check(bond["pci66/x2"] > bond["pci66/x1"] * 1.15,
          "bonding pays once the I/O bus outruns one wire",
          f"{bond['pci66/x2']:.0f} vs {bond['pci66/x1']:.0f}")

    sched = result["scheduler"]
    delta = sched["lat_sched_us"] - sched["lat_nosched_us"]
    check(0 <= delta <= 5,
          "skipping the scheduler on syscall return saves ~a microsecond "
          "(§3.2(a): why CLIC keeps it anyway)",
          f"delta {delta:.2f} us")

    poll = result["polling"]
    check(poll["pci_probes"] > 0 and poll["cached_probes_pci"] == 0,
          "PCI-crossing polls hit the I/O bus; cached-CQ polls do not (§3.2(b))")
    check(poll["cpu_fine_us"] > poll["cpu_coarse_us"],
          "finer polling burns more CPU (§3.2(b): frequency must be chosen carefully)",
          f"{poll['cpu_fine_us']:.1f} vs {poll['cpu_coarse_us']:.1f} us")
    check(poll["lat_fine_us"] < poll["lat_coarse_us"],
          "...while coarser polling costs latency",
          f"{poll['lat_fine_us']:.1f} vs {poll['lat_coarse_us']:.1f} us")


if __name__ == "__main__":
    print(run()["report"])
