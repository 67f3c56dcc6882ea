"""FE-2001 — the Fast Ethernet baseline and the bottleneck shift (§2).

Section 2's motivating observation: "in Fast Ethernet ... it is possible
to get a 90% of the maximum bandwidth with a 15-20% CPU use.  Having a
similar situation in networks with 1 Gb/s bandwidths would require
almost a 100% of the processor power."  This experiment runs the same
protocols on both generations of the testbed and shows exactly that
shift:

* on Fast Ethernet both CLIC and TCP saturate most of the 100 Mb/s wire
  and the receiving CPU is largely idle;
* on Gigabit Ethernet the wire has headroom while the receiver's CPU is
  pinned — the bottleneck moved from the network into the host, which is
  the paper's reason to exist.

Shape checks:

* CLIC achieves >= 85 % of the FE wire; TCP >= 70 %;
* the receiving CPU's utilization at FE is a small fraction of its
  utilization at GigE, for both protocols;
* fraction-of-wire achieved *drops* from FE to GigE for both protocols
  (the host can no longer keep up with the medium).
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_table
from ..cluster import Cluster
from ..config import MTU_JUMBO, fastethernet2001, granada2003
from ..workloads import clic_pair, stream, tcp_pair
from .common import check

EXPERIMENT_ID = "FE-2001"

TRANSFER = 1_500_000


def _measure(cfg, wire_mbps: float, setup_factory) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    cluster = Cluster(cfg)
    result = stream(cluster, setup_factory(), TRANSFER, messages=1)
    rx = cluster.nodes[1]
    elapsed = result.elapsed_ns
    return {
        "mbps": result.bandwidth_mbps,
        "wire_fraction": result.bandwidth_mbps / wire_mbps,
        "rx_cpu": rx.cpu.busy_time(elapsed) / elapsed,
    }


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    cells = {
        ("FE", "CLIC"): _measure(fastethernet2001(), 100.0, clic_pair),
        ("FE", "TCP"): _measure(fastethernet2001(), 100.0, tcp_pair),
        ("GigE", "CLIC"): _measure(granada2003(mtu=MTU_JUMBO), 1000.0, clic_pair),
        ("GigE", "TCP"): _measure(granada2003(mtu=MTU_JUMBO), 1000.0, tcp_pair),
    }
    rows = [
        (
            era,
            proto,
            round(cell["mbps"], 1),
            round(cell["wire_fraction"] * 100, 1),
            round(cell["rx_cpu"] * 100, 1),
        )
        for (era, proto), cell in cells.items()
    ]
    report = format_table(
        ["testbed", "protocol", "Mb/s", "% of wire", "rx CPU %"],
        rows,
        title="FE-2001: the bottleneck moves from the wire into the host (§2)",
    )
    result = {
        "id": EXPERIMENT_ID,
        "cells": {f"{e}/{p}": v for (e, p), v in cells.items()},
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    cells = result["cells"]
    check(cells["FE/CLIC"]["wire_fraction"] >= 0.85,
          "first-generation CLIC saturates Fast Ethernet (>= 85% of wire)",
          f"{cells['FE/CLIC']['wire_fraction']:.0%}")
    check(cells["FE/TCP"]["wire_fraction"] >= 0.70,
          "even TCP gets most of a Fast Ethernet wire (the §2 data point)",
          f"{cells['FE/TCP']['wire_fraction']:.0%}")
    for proto in ("CLIC", "TCP"):
        check(
            cells[f"FE/{proto}"]["rx_cpu"] < 0.8 * cells[f"GigE/{proto}"]["rx_cpu"],
            "the receiver CPU loafs at FE and is pinned at GigE",
            f"{proto}: {cells[f'FE/{proto}']['rx_cpu']:.0%} vs "
            f"{cells[f'GigE/{proto}']['rx_cpu']:.0%}",
        )
        check(
            cells[f"GigE/{proto}"]["wire_fraction"]
            < cells[f"FE/{proto}"]["wire_fraction"],
            "fraction of wire achieved drops at gigabit speed (host-bound)",
            f"{proto}",
        )


if __name__ == "__main__":
    print(run()["report"])
