"""CPU-BRK — where the receiver's CPU cycles go: CLIC vs TCP/IP.

Not a numbered figure, but the paper's central *argument* (§2, §5): at
gigabit speeds the host processor drowns in per-packet protocol work and
copies, and CLIC's short path gives most of those cycles back to the
application.  This experiment streams the same 2 MB through both stacks
and breaks the receiving node's CPU time into categories.

Shape checks:

* TCP burns several times more *protocol* CPU than CLIC for the same
  bytes;
* total receiver CPU per byte is much higher for TCP;
* under CLIC the dominant CPU cost is the data copy + driver rx (the
  very stages Figures 7/8 target), not protocol processing.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.cpu_report import breakdown_table, cpu_breakdown
from ..cluster import Cluster
from ..config import MTU_JUMBO, granada2003
from ..workloads import clic_pair, stream, tcp_pair
from .common import check

EXPERIMENT_ID = "CPU-BRK"

TRANSFER = 2_000_000


def _measure(setup_factory) -> Dict:
    cluster = Cluster(granada2003(mtu=MTU_JUMBO, profile=True))
    result = stream(cluster, setup_factory(), TRANSFER, messages=1)
    rx = cluster.nodes[1]
    return {
        "cpu": rx.cpu,
        "breakdown": cpu_breakdown(rx.cpu),
        "elapsed_ns": result.elapsed_ns,
        "mbps": result.bandwidth_mbps,
        "busy_ns": rx.cpu.total_busy,
        # Where the *simulator* spent its events (obs profiling hooks).
        "sim_profile": cluster.env.profiler.snapshot(),
        # Receiver-side typed metrics, e.g. bottom-half queue high-water.
        "rx_metrics": {
            name: inst.as_dict()
            for name, inst in cluster.metrics.items()
            if name.startswith(rx.name)
        },
    }


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    clic = _measure(clic_pair)
    tcp = _measure(tcp_pair)
    report = breakdown_table(
        {"CLIC rx": clic["cpu"], "TCP rx": tcp["cpu"]},
        title=(
            "CPU-BRK: receiver CPU time for a 2 MB stream "
            f"(CLIC {clic['mbps']:.0f} Mb/s, TCP {tcp['mbps']:.0f} Mb/s)"
        ),
    )
    result = {
        "id": EXPERIMENT_ID,
        "clic": {k: v for k, v in clic.items() if k != "cpu"},
        "tcp": {k: v for k, v in tcp.items() if k != "cpu"},
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    clic_b, tcp_b = result["clic"]["breakdown"], result["tcp"]["breakdown"]
    clic_proto = clic_b.get("protocol", 0.0)
    tcp_proto = tcp_b.get("protocol", 0.0)
    check(tcp_proto > 3 * clic_proto,
          "TCP burns several times more protocol CPU than CLIC per byte (§2)",
          f"{tcp_proto/1e6:.1f} vs {clic_proto/1e6:.1f} ms")
    clic_per_byte = sum(clic_b.values()) / TRANSFER
    tcp_per_byte = sum(tcp_b.values()) / TRANSFER
    check(tcp_per_byte > 1.5 * clic_per_byte,
          "total receiver CPU per byte much higher for TCP",
          f"{tcp_per_byte:.1f} vs {clic_per_byte:.1f} ns/B")
    copies_plus_driver = clic_b.get("copies", 0.0) + clic_b.get("driver rx", 0.0)
    check(copies_plus_driver > clic_proto,
          "under CLIC, copies + driver rx dominate protocol work "
          "(why Figures 7/8 target those stages)",
          f"{copies_plus_driver/1e6:.1f} vs {clic_proto/1e6:.1f} ms")


if __name__ == "__main__":
    print(run()["report"])
