"""TXT-LAT / TXT-BW — the paper's headline numbers (§4/§5 text).

* 0-byte one-way latency: paper 36 µs;
* asymptotic bandwidth: paper ~600 Mb/s (MTU 9000), ~450 Mb/s (MTU 1500);
* half-of-own-max bandwidth reached at 4 KB for CLIC vs ~16 KB for
  TCP/IP — a pipelined (stream) bandwidth metric; see EXPERIMENTS.md for
  the methodology discussion.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_table, interpolate_half_bandwidth
from ..cluster import Cluster
from ..config import MTU_JUMBO, MTU_STANDARD, granada2003
from ..workloads import clic_pair, pingpong, tcp_pair
from .common import check, sweep_stream

EXPERIMENT_ID = "HEADLINE"

HALF_BW_SIZES = [200, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 256_000, 1_000_000]


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    latency = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=3, warmup=1)
    tcp_latency = pingpong(Cluster(granada2003()), tcp_pair(), 0, repeats=3, warmup=1)

    bw_jumbo = sweep_stream(
        "CLIC 9000", granada2003(mtu=MTU_JUMBO), clic_pair, [2_000_000], messages=8
    ).asymptote()
    bw_std = sweep_stream(
        "CLIC 1500", granada2003(mtu=MTU_STANDARD), clic_pair, [2_000_000], messages=8
    ).asymptote()

    clic_curve = sweep_stream(
        "CLIC", granada2003(mtu=MTU_JUMBO), clic_pair, HALF_BW_SIZES, messages=8
    )
    tcp_curve = sweep_stream(
        "TCP", granada2003(mtu=MTU_JUMBO), tcp_pair, HALF_BW_SIZES, messages=8
    )
    clic_half = interpolate_half_bandwidth(clic_curve.sizes, clic_curve.mbps)
    tcp_half = interpolate_half_bandwidth(tcp_curve.sizes, tcp_curve.mbps)

    rows = [
        ("0-byte one-way latency (us)", 36.0, round(latency.one_way_ns / 1000, 1)),
        ("asymptotic bandwidth, MTU 9000 (Mb/s)", 600.0, round(bw_jumbo, 0)),
        ("asymptotic bandwidth, MTU 1500 (Mb/s)", 450.0, round(bw_std, 0)),
        ("CLIC half-bandwidth size (bytes)", 4_096, round(clic_half, 0)),
        ("TCP half-bandwidth size (bytes)", 16_384, round(tcp_half, 0)),
        ("TCP/CLIC half-size ratio", 4.0, round(tcp_half / clic_half, 1)),
    ]
    report = format_table(["metric", "paper", "measured"], rows, title="Headline numbers")
    result = {
        "id": EXPERIMENT_ID,
        "latency_us": latency.one_way_ns / 1000,
        "tcp_latency_us": tcp_latency.one_way_ns / 1000,
        "bw_jumbo": bw_jumbo,
        "bw_std": bw_std,
        "clic_half_bytes": clic_half,
        "tcp_half_bytes": tcp_half,
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    check(20 <= result["latency_us"] <= 55,
          "0-byte latency near the paper's 36 us", f"{result['latency_us']:.1f}")
    check(result["latency_us"] < result["tcp_latency_us"],
          "CLIC latency beats TCP latency")
    check(450 <= result["bw_jumbo"] <= 750,
          "MTU 9000 asymptote near 600 Mb/s", f"{result['bw_jumbo']:.0f}")
    check(350 <= result["bw_std"] <= 600,
          "MTU 1500 asymptote near 450 Mb/s", f"{result['bw_std']:.0f}")
    check(result["bw_jumbo"] > result["bw_std"],
          "jumbo beats standard MTU asymptotically")
    check(result["tcp_half_bytes"] > 2.5 * result["clic_half_bytes"],
          "CLIC reaches half bandwidth at a ~4x smaller size than TCP",
          f"CLIC {result['clic_half_bytes']:.0f} B vs TCP {result['tcp_half_bytes']:.0f} B")


if __name__ == "__main__":
    print(run()["report"])
