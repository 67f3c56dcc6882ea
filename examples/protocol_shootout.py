"""Protocol shootout: every stack in the paper on one chart.

Measures bandwidth-vs-size curves for CLIC, TCP/IP, GAMMA and VIA, plus
0-byte latency for each, and prints the §5 trade-off table: the
OS-bypass designs buy speed with portability/reliability, CLIC keeps the
OS and loses only a little.

Run:  python examples/protocol_shootout.py
"""

from repro.analysis import format_table, logx_plot
from repro.cluster import Cluster
from repro.config import granada2003
from repro.workloads import (
    SweepSeries,
    clic_pair,
    gamma_pair,
    pingpong,
    tcp_pair,
    via_pair,
)

SIZES = [100, 1_000, 10_000, 100_000, 1_000_000]

STACKS = [
    ("CLIC", ("clic", "tcp"), clic_pair, "stock driver, reliable"),
    ("TCP/IP", ("clic", "tcp"), tcp_pair, "stock driver, reliable"),
    ("GAMMA", ("gamma",), gamma_pair, "patched driver, unreliable"),
    ("VIA", ("via",), via_pair, "user-level NIC, unreliable"),
]


def sweep(label, protocols, pair_factory) -> SweepSeries:
    series = SweepSeries(label)
    for nbytes in SIZES:
        cluster = Cluster(granada2003(), protocols=protocols)
        series.add(pingpong(cluster, pair_factory(), nbytes, repeats=1, warmup=1))
    return series


def main() -> None:
    curves = []
    rows = []
    for label, protocols, pair_factory, notes in STACKS:
        series = sweep(label, protocols, pair_factory)
        curves.append(series)
        latency = pingpong(
            Cluster(granada2003(), protocols=protocols), pair_factory(), 0,
            repeats=2, warmup=1,
        )
        rows.append(
            (label, round(latency.one_way_ns / 1000, 1),
             round(series.asymptote(), 0), notes)
        )

    print(logx_plot(curves, title="bandwidth vs message size (ping-pong)"))
    print()
    print(format_table(
        ["stack", "0B latency (us)", "bw @1MB (Mb/s)", "trade-off"],
        rows,
        title="the Section 5 trade-off table",
    ))


if __name__ == "__main__":
    main()
