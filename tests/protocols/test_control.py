"""Tests for the kernel-level control protocol (echo / aliveness)."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.faults import FaultPlan
from repro.protocols.clic import ClicControl, ClicEndpoint


def make_controls(cluster):
    return [ClicControl(node) for node in cluster.nodes]


def test_kernel_echo_returns_rtt():
    cluster = Cluster(granada2003())
    ctl = make_controls(cluster)
    rtts = []

    def body(proc):
        rtt = yield from ctl[0].echo(1)
        rtts.append(rtt)

    done = cluster.nodes[0].spawn().run(body)
    cluster.env.run(done)
    assert rtts[0] is not None and rtts[0] > 0
    assert ctl[1].counters["echo_served"] == 1
    assert ctl[0].stats[1].received == 1
    assert ctl[0].stats[1].mean_rtt_ns == pytest.approx(rtts[0])


def test_kernel_echo_faster_than_process_pingpong():
    """The remote side never schedules a process: the kernel echo RTT
    must undercut a user-level 0-byte ping-pong round trip."""
    cluster = Cluster(granada2003())
    ctl = make_controls(cluster)
    out = {}

    # Kernel echo.
    def kecho(proc):
        # warmup + measured
        yield from ctl[0].echo(1)
        rtt = yield from ctl[0].echo(1)
        out["kernel"] = rtt

    done = cluster.nodes[0].spawn().run(kecho)
    cluster.env.run(done)

    # User-level ping-pong on a fresh identical cluster.
    from repro.workloads import clic_pair, pingpong

    user = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=1, warmup=1)
    out["user"] = user.rtt_ns
    assert out["kernel"] < out["user"]


def test_echo_timeout_on_dead_link():
    cluster = Cluster(granada2003(), faults=FaultPlan.uniform(1.0))
    ctl = make_controls(cluster)
    results = []

    def body(proc):
        rtt = yield from ctl[0].echo(1, timeout_ns=2_000_000.0)
        results.append(rtt)

    done = cluster.nodes[0].spawn().run(body)
    cluster.env.run(done)
    assert results == [None]
    assert ctl[0].counters["echo_timeouts"] == 1
    assert ctl[0].stats[1].lost == 1


def test_is_alive_true_and_false():
    alive_cluster = Cluster(granada2003())
    ctl = make_controls(alive_cluster)
    flags = []

    def body(proc):
        ok = yield from ctl[0].is_alive(1)
        flags.append(ok)

    done = alive_cluster.nodes[0].spawn().run(body)
    alive_cluster.env.run(done)
    assert flags == [True]

    dead_cluster = Cluster(granada2003(), faults=FaultPlan.uniform(1.0))
    ctl2 = make_controls(dead_cluster)
    flags2 = []

    def body2(proc):
        ok = yield from ctl2[0].is_alive(1, probes=2, timeout_ns=500_000.0)
        flags2.append(ok)

    done2 = dead_cluster.nodes[0].spawn().run(body2)
    dead_cluster.env.run(done2)
    assert flags2 == [False]


def test_echo_coexists_with_application_traffic():
    cluster = Cluster(granada2003())
    ctl = make_controls(cluster)
    out = {}

    def app_tx(proc):
        ep = ClicEndpoint(proc, 5)
        yield from ep.send(1, 500_000)

    def app_rx(proc):
        ep = ClicEndpoint(proc, 5)
        msg = yield from ep.recv()
        out["app"] = msg.nbytes

    def pinger(proc):
        rtts = []
        for _ in range(5):
            rtt = yield from ctl[0].echo(1)
            rtts.append(rtt)
        out["pings"] = rtts

    cluster.nodes[0].spawn().run(app_tx)
    d1 = cluster.nodes[1].spawn().run(app_rx)
    d2 = cluster.nodes[0].spawn().run(pinger)
    cluster.env.run(cluster.env.all_of([d1, d2]))
    assert out["app"] == 500_000
    assert all(r is not None for r in out["pings"])
