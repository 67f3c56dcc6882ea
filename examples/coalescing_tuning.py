"""Tuning interrupt coalescing: the paper's §2 latency/throughput dial.

"The drivers of present NICs usually allow the dynamic adjustment of
time intervals in coalesced interrupts" — this example is the tuning
session an administrator of the paper's cluster would run: sweep the
hold-off timer (the driver's ``rx-usecs``) and the frame threshold, and
watch lone-packet latency trade against interrupt rate and CPU cost
under load.

Run:  python examples/coalescing_tuning.py
"""

from dataclasses import replace

from repro.analysis import format_table
from repro.cluster import Cluster
from repro.config import granada2003
from repro.workloads import clic_pair, pingpong, stream

RX_USECS = [0, 2, 5, 10, 20, 50]  # 0 = coalescing off
TRANSFER = 2_000_000


def measure(rx_usecs: int):
    def cfg():
        base = granada2003()
        nic = base.node.nic
        if rx_usecs == 0:
            nic = replace(nic, coalescing_enabled=False)
        else:
            nic = replace(nic, coalesce_timeout_ns=rx_usecs * 1000.0)
        return base.with_node(replace(base.node, nic=nic))

    latency = pingpong(Cluster(cfg()), clic_pair(), 0, repeats=2, warmup=1)
    bulk_cluster = Cluster(cfg())
    bulk = stream(bulk_cluster, clic_pair(), TRANSFER)
    rx_node = bulk_cluster.nodes[1]
    irqs = rx_node.nics[0].counters.get("irqs_asserted")
    cpu_ms = rx_node.cpu.total_busy / 1e6
    return {
        "latency_us": latency.one_way_ns / 1000,
        "mbps": bulk.bandwidth_mbps,
        "irqs": irqs,
        "cpu_ms": cpu_ms,
    }


def main() -> None:
    rows = []
    for usecs in RX_USECS:
        m = measure(usecs)
        rows.append(
            (
                "off" if usecs == 0 else f"{usecs} us",
                round(m["latency_us"], 1),
                round(m["mbps"], 0),
                int(m["irqs"]),
                round(m["cpu_ms"], 2),
            )
        )
    print(
        format_table(
            ["rx-usecs", "0B latency (us)", "bulk Mb/s", "bulk irqs", "rx CPU (ms)"],
            rows,
            title=f"interrupt-coalescing sweep ({TRANSFER:,} B bulk transfer)",
        )
    )
    print(
        "\nevery microsecond of hold-off lands 1:1 on the lone packet's\n"
        "latency, while bulk throughput/IRQ count barely move — under\n"
        "sustained load the driver's batched drain already amortizes\n"
        "interrupts, so the timer only pays off against per-frame-IRQ\n"
        "(pre-NAPI) drivers; see `python -m repro.experiments interrupts`\n"
        "for that comparison.  The paper's testbed runs at ~10 us."
    )


if __name__ == "__main__":
    main()
