"""TCP congestion-control (Reno) tests."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.protocols.tcpip import TcpIpStack
from repro.protocols.tcpip.tcp import RenoCongestion


def test_slow_start_doubles_per_window():
    cc = RenoCongestion(flow_window=64)
    assert cc.window() == 2
    cc.on_ack(2)  # a full window of acks -> cwnd doubles
    assert cc.window() == 4
    cc.on_ack(4)
    assert cc.window() == 8


def test_congestion_avoidance_is_linear():
    cc = RenoCongestion(flow_window=64)
    cc.ssthresh = 4.0
    cc.on_ack(2)  # -> 4, hits ssthresh
    w0 = cc.cwnd
    cc.on_ack(4)  # additive: ~+1 per cwnd-worth of acks
    assert cc.cwnd == pytest.approx(w0 + 1, abs=0.15)


def test_cwnd_capped_at_flow_window():
    cc = RenoCongestion(flow_window=8)
    cc.on_ack(100)
    assert cc.window() == 8


def test_timeout_collapses_to_one():
    cc = RenoCongestion(flow_window=64)
    cc.on_ack(40)
    cc.on_timeout()
    assert cc.window() == 1
    assert cc.ssthresh >= 2


def test_fast_retransmit_halves():
    cc = RenoCongestion(flow_window=64)
    cc.on_ack(40)
    before = cc.cwnd
    cc.on_fast_retransmit()
    assert cc.cwnd == pytest.approx(max(before / 2, 2.0))


def test_window_never_below_one():
    cc = RenoCongestion(flow_window=64)
    cc.on_timeout()
    cc.on_timeout()
    assert cc.window() == 1


def _plan(loss_rate):
    """Uniform loss, or clean links (no plan at all) at rate 0."""
    return FaultPlan.uniform(loss_rate) if loss_rate else None


def _transfer(loss_rate, nbytes=150_000):
    cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=_plan(loss_rate))
    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from sa.send(nbytes)

    def b(proc):
        got = yield from sb.recv(nbytes)
        return got

    da, db = p0.run(a), p1.run(b)
    for event in (da, db):
        cluster.env.run(event)
    return cluster, sa, db.value


def test_fast_retransmit_fires_under_loss():
    cluster, sock, got = _transfer(loss_rate=0.03)
    assert got == 150_000
    # With dup-ack signalling, recovery should mostly avoid full RTOs.
    assert sock.conn.counters["fast_retransmits"] >= 1


def test_connection_recovers_and_reopens_window():
    cluster, sock, got = _transfer(loss_rate=0.02)
    assert got == 150_000
    assert sock.conn.congestion.window() >= 2


def test_lossless_transfer_reaches_flow_window():
    cluster, sock, got = _transfer(loss_rate=0.0, nbytes=500_000)
    assert got == 500_000
    cc = sock.conn.congestion
    assert cc.window() == cc.flow_window  # slow start fully opened


def test_loss_hurts_tcp_bandwidth():
    """Congestion control makes loss visibly expensive for TCP."""
    import time

    def measure(loss):
        cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=_plan(loss))
        p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
        sa, sb = TcpIpStack.connect_pair(p0, p1)
        done = {}

        def a(proc):
            yield from sa.send(300_000)

        def b(proc):
            yield from sb.recv(300_000)
            done["t"] = proc.env.now

        da, db = p0.run(a), p1.run(b)
        for event in (da, db):
            cluster.env.run(event)
        return done["t"]

    clean = measure(0.0)
    lossy = measure(0.05)
    assert lossy > clean * 1.3
