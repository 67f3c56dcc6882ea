"""Stacks coexisting: CLIC and TCP/IP sharing nodes, bonding + MPI, and
reliability on the Figure 8(b) direct path."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.protocols.clic import ClicEndpoint
from repro.protocols.tcpip import TcpIpStack


def test_clic_and_tcp_share_the_wire():
    """Both stacks run concurrently over one NIC/driver (ethertype
    demux): a real CLIC node still speaks TCP for everything else."""
    cluster = Cluster(granada2003())
    results = {}

    clic_tx = cluster.nodes[0].spawn()
    clic_rx = cluster.nodes[1].spawn()
    ec_tx, ec_rx = ClicEndpoint(clic_tx, 70), ClicEndpoint(clic_rx, 70)

    tcp_a = cluster.nodes[0].spawn()
    tcp_b = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(tcp_a, tcp_b)

    def c_tx(proc):
        yield from ec_tx.send(1, 500_000)

    def c_rx(proc):
        msg = yield from ec_rx.recv()
        results["clic"] = msg.nbytes

    def t_tx(proc):
        yield from sa.send(500_000)

    def t_rx(proc):
        got = yield from sb.recv(500_000)
        results["tcp"] = got

    done = [clic_tx.run(c_tx), clic_rx.run(c_rx), tcp_a.run(t_tx), tcp_b.run(t_rx)]
    for event in done:
        cluster.env.run(event)
    assert results == {"clic": 500_000, "tcp": 500_000}


def test_mpi_over_bonded_nics():
    from repro.mpi import build_world

    cfg = granada2003()
    cfg = cfg.with_node(cfg.node.with_nic_count(2))
    cluster = Cluster(cfg)

    def program(ctx):
        peer = 1 - ctx.rank
        msg = yield from ctx.sendrecv(peer, 100_000, peer, 100_000)
        return msg.nbytes

    assert build_world(cluster).run(program) == [100_000, 100_000]
    # Both channels carried traffic.
    for node in cluster.nodes:
        assert cluster.metrics.value(f"{node.name}.nic0.tx_frames") > 0
        assert cluster.metrics.value(f"{node.name}.nic1.tx_frames") > 0


def test_direct_dispatch_reliability_under_loss():
    """The Figure 8(b) path must not compromise reliable delivery."""
    cfg = granada2003(mtu=MTU_STANDARD)
    cfg = cfg.with_node(cfg.node.with_direct_rx(True))
    cluster = Cluster(cfg, faults=FaultPlan.uniform(0.05))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send_confirm(1, 200_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    d0, d1 = p0.run(a), p1.run(b)
    for event in (d0, d1):
        cluster.env.run(event)
    assert d1.value == 200_000
    assert cluster.metrics.value("node0.clic.pkts_retx") > 0


def test_broadcast_coexists_with_unicast():
    cluster = Cluster(granada2003(num_nodes=3))
    got = {"bcast": [], "unicast": []}

    def tx(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.broadcast(1_000, tag=1)
        yield from ep.send(1, 2_000, tag=2)

    def rx(node_id):
        def body(proc):
            ep = ClicEndpoint(proc, 1)
            msg = yield from ep.recv(tag=1)
            got["bcast"].append((node_id, msg.nbytes))
            if node_id == 1:
                msg = yield from ep.recv(tag=2)
                got["unicast"].append((node_id, msg.nbytes))

        return body

    cluster.nodes[0].spawn().run(tx)
    for i in (1, 2):
        cluster.nodes[i].spawn().run(rx(i))
    cluster.env.run(until=50e6)
    assert sorted(got["bcast"]) == [(1, 1_000), (2, 1_000)]
    assert got["unicast"] == [(1, 2_000)]
