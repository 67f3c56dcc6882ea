"""Full-duplex behaviour and trace-level conservation checks."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_JUMBO, granada2003
from repro.protocols.clic import ClicEndpoint
from repro.units import bandwidth_mbps


def test_bidirectional_streams_share_gracefully():
    """Simultaneous 2 MB streams in both directions: each direction's
    wire is independent (full duplex), so the slowdown versus
    unidirectional comes only from CPU/PCI contention — well under 2x."""

    def run(bidir: bool):
        cluster = Cluster(granada2003(mtu=MTU_JUMBO))
        n = 2_000_000
        done = {}

        def tx(src, dst, key):
            def body(proc):
                ep = ClicEndpoint(proc, 60)
                yield from ep.send(dst, n, tag=src)

            return body

        def rx(node_id, key):
            def body(proc):
                ep = ClicEndpoint(proc, 60)
                msg = yield from ep.recv()
                done[key] = proc.env.now

            return body

        cluster.nodes[0].spawn().run(tx(0, 1, "a"))
        procs = [cluster.nodes[1].spawn().run(rx(1, "fwd"))]
        if bidir:
            cluster.nodes[1].spawn().run(tx(1, 0, "b"))
            procs.append(cluster.nodes[0].spawn().run(rx(0, "rev")))
        for event in procs:
            cluster.env.run(event)
        return max(done.values()), n

    uni_t, n = run(False)
    bi_t, _ = run(True)
    uni_bw = bandwidth_mbps(n, uni_t)
    bi_bw_aggregate = bandwidth_mbps(2 * n, bi_t)
    assert bi_bw_aggregate > uni_bw * 1.15  # duplex gives real extra capacity
    assert bi_t < uni_t * 2.0  # far better than serializing the two


def test_trace_conservation_every_tx_packet_received():
    """Every CLIC data packet the sender's driver posts shows up in the
    receiver's driver_rx trace exactly once (loss-free run)."""
    cluster = Cluster(granada2003(trace=True))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        for i in range(3):
            yield from ep.send(1, 25_000, tag=i)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        for _ in range(3):
            yield from ep.recv()

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    d0, d1 = p0.run(a), p1.run(b)
    for event in (d0, d1):
        cluster.env.run(event)

    tx_pkts = [
        i.detail["pkt"]
        for i in cluster.tracer.instants
        if i.name == "driver_tx" and i.scope.startswith("node0.eth0")
        and i.detail.get("nbytes", 0) > 100
    ]
    rx_pkts = [
        i.detail["pkt"]
        for i in cluster.tracer.instants
        if i.name == "driver_rx" and i.scope.startswith("node1.eth0")
        and i.detail.get("nbytes", 0) > 100
    ]
    assert sorted(tx_pkts) == sorted(rx_pkts)
    assert len(tx_pkts) == len(set(tx_pkts))  # no duplicates either


def test_mpi_heat_equation_example_logic():
    """The heat-equation example's core loop, as a regression test."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "heat", Path(__file__).parents[2] / "examples" / "mpi_heat_equation.py"
    )
    heat = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(heat)
    clic_ms = heat.run("clic", nodes=3)
    tcp_ms = heat.run("tcp", nodes=3)
    assert clic_ms > 0
    assert tcp_ms > clic_ms  # the paper's bottom line, as an app speedup
