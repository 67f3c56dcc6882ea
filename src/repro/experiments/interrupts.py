"""SEC2-INT — interrupt rate and CPU load analysis (paper Section 2).

The paper's motivating arithmetic: at MTU 1500 a saturated Gigabit
Ethernet link delivers a frame every ~12 µs; one interrupt per frame is
unserviceable, jumbo frames only scale the interval by 6x, and
coalescing trades latency for rate.  This experiment streams a large
transfer and reports, per configuration:

* interrupts taken per received frame,
* mean inter-interrupt interval,
* receiver CPU utilization,
* achieved bandwidth,

for {MTU 1500, MTU 9000} x {coalescing on, off}.

Shape checks: coalescing reduces interrupts/frame by at least the frame
threshold's worth at MTU 1500; jumbo frames cut the no-coalescing
interrupt *rate* by roughly the 6x the paper quotes; receiver CPU load
drops when either mitigation is on.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_table
from ..cluster import Cluster
from ..config import MTU_JUMBO, MTU_STANDARD, granada2003
from ..workloads import clic_pair, stream
from .common import check

EXPERIMENT_ID = "SEC2-INT"

TRANSFER_BYTES = 2_000_000


def _measure(mtu: int, coalescing: bool) -> Dict:
    """One cell: ``coalescing=False`` also sets a pre-NAPI-style driver
    that services a single frame per interrupt — the configuration the
    paper's Section 2 arithmetic (an IRQ every 12 us) describes."""
    from dataclasses import replace

    cfg = granada2003(mtu=mtu)
    node = cfg.node.with_coalescing(coalescing)
    if not coalescing:
        node = replace(node, driver=replace(node.driver, rx_budget_per_irq=1))
    cfg = cfg.with_node(node)
    cluster = Cluster(cfg)
    result = stream(cluster, clic_pair(), TRANSFER_BYTES, messages=1)
    rx_node = cluster.nodes[1]
    nic = rx_node.nics[0]
    irqs = float(nic.counters["irqs_asserted"])
    frames = float(nic.counters["rx_frames"])
    elapsed = result.elapsed_ns
    return {
        "mtu": mtu,
        "coalescing": coalescing,
        "irqs": irqs,
        "frames": frames,
        "irqs_per_frame": irqs / frames if frames else 0.0,
        "interval_us": elapsed / irqs / 1000 if irqs else float("inf"),
        "cpu_util": rx_node.cpu.busy_time(elapsed) / elapsed,
        "cpu_us_per_frame": rx_node.cpu.busy_time(elapsed) / frames / 1000 if frames else 0.0,
        "mbps": result.bandwidth_mbps,
    }


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    cells = {
        (mtu, co): _measure(mtu, co)
        for mtu in (MTU_STANDARD, MTU_JUMBO)
        for co in (False, True)
    }
    rows = [
        (
            f"MTU {mtu}",
            "coalesced" if co else "per-frame",
            int(cell["irqs"]),
            round(cell["irqs_per_frame"], 2),
            round(cell["interval_us"], 1),
            round(cell["cpu_util"] * 100, 1),
            round(cell["mbps"], 0),
        )
        for (mtu, co), cell in sorted(cells.items())
    ]
    report = format_table(
        ["config", "irq mode", "irqs", "irqs/frame", "us/irq", "rx CPU %", "Mb/s"],
        rows,
        title="SEC2-INT: interrupt rate vs MTU and coalescing (2 MB stream)",
    )
    result = {"id": EXPERIMENT_ID, "cells": {f"{m}/{c}": v for (m, c), v in cells.items()}, "report": report}
    shape_checks(result, cells)
    return result


def shape_checks(result: Dict, cells: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    std_off = cells[(MTU_STANDARD, False)]
    std_on = cells[(MTU_STANDARD, True)]
    jumbo_off = cells[(MTU_JUMBO, False)]

    check(std_off["irqs_per_frame"] > 0.95,
          "the pre-NAPI per-frame-IRQ driver takes ~one interrupt per frame",
          f"{std_off['irqs_per_frame']:.2f}")
    check(std_off["irqs"] > 4 * std_on["irqs"],
          "coalescing + batched service cut the interrupt count by several x (MTU 1500)",
          f"{std_off['irqs']:.0f} vs {std_on['irqs']:.0f}")
    interval_ratio = jumbo_off["interval_us"] / std_off["interval_us"]
    check(3 <= interval_ratio <= 9,
          "jumbo frames stretch the interrupt interval by ~6x (paper's 'factor of six')",
          f"{interval_ratio:.1f}x")
    check(std_on["cpu_us_per_frame"] < std_off["cpu_us_per_frame"] * 0.97,
          "coalescing lowers receiver CPU work per frame",
          f"{std_on['cpu_us_per_frame']:.2f} vs {std_off['cpu_us_per_frame']:.2f} us/frame")
    check(std_on["mbps"] > std_off["mbps"],
          "the saved interrupt overhead shows up as bandwidth",
          f"{std_on['mbps']:.0f} vs {std_off['mbps']:.0f}")


if __name__ == "__main__":
    print(run()["report"])
