"""Edge coverage for the GAMMA and VIA comparators and socket misuse."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.protocols.tcpip import TcpIpStack


def gamma_cluster(**kw):
    return Cluster(granada2003(**kw), protocols=("gamma",))


def via_cluster(**kw):
    return Cluster(granada2003(**kw), protocols=("via",))


def test_gamma_multiple_ports_demux():
    cluster = gamma_cluster()
    got = {}

    def tx(proc):
        yield from proc.node.gamma.send(1, 10, 1_000)
        yield from proc.node.gamma.send(1, 20, 2_000)

    def rx(proc):
        m20 = yield from proc.node.gamma.recv(20)
        m10 = yield from proc.node.gamma.recv(10)
        got["sizes"] = (m10.nbytes, m20.nbytes)

    cluster.nodes[0].spawn().run(tx)
    done = cluster.nodes[1].spawn().run(rx)
    cluster.env.run(done)
    assert got["sizes"] == (1_000, 2_000)


def test_gamma_ready_message_consumed_without_blocking():
    cluster = gamma_cluster()
    times = {}

    def tx(proc):
        yield from proc.node.gamma.send(1, 5, 100)

    def rx(proc):
        # Arrive late: the message already sits in the port.
        yield proc.env.timeout(5_000_000)
        t0 = proc.env.now
        msg = yield from proc.node.gamma.recv(5)
        times["wait"] = proc.env.now - t0
        return msg.nbytes

    cluster.nodes[0].spawn().run(tx)
    done = cluster.nodes[1].spawn().run(rx)
    assert cluster.env.run(done) == 100
    assert times["wait"] < 2_000  # only the lightweight-trap cost


def test_via_multiple_vis_demux():
    cluster = via_cluster()
    a1 = cluster.nodes[0].via.create_vi(1)
    a2 = cluster.nodes[0].via.create_vi(2)
    b1 = cluster.nodes[1].via.create_vi(1)
    b2 = cluster.nodes[1].via.create_vi(2)
    got = {}

    def tx(proc):
        yield from a1.send(1, 111)
        yield from a2.send(1, 222)

    def rx(proc):
        m2 = yield from b2.recv()
        m1 = yield from b1.recv()
        got["sizes"] = (m1.nbytes, m2.nbytes)

    cluster.nodes[0].spawn().run(tx)
    done = cluster.nodes[1].spawn().run(rx)
    cluster.env.run(done)
    assert got["sizes"] == (111, 222)


def test_via_try_recv_nonblocking():
    cluster = via_cluster()
    vi_a = cluster.nodes[0].via.create_vi(9)
    vi_b = cluster.nodes[1].via.create_vi(9)
    assert vi_b.try_recv() is None

    def tx(proc):
        yield from vi_a.send(1, 512)

    cluster.nodes[0].spawn().run(tx)
    cluster.env.run(until=10e6)
    msg = vi_b.try_recv()
    assert msg is not None and msg.nbytes == 512
    assert vi_b.try_recv() is None


def test_tcp_negative_sizes_rejected():
    cluster = Cluster(granada2003())
    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def bad_send(proc):
        yield from sa.send(-1)

    done = p0.run(bad_send)
    with pytest.raises(ValueError):
        cluster.env.run(done)
