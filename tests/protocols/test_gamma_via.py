"""Integration tests for the GAMMA and VIA comparator stacks."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.units import us
from repro.workloads import gamma_pair, pingpong, via_pair


def gamma_cluster(**kw):
    return Cluster(granada2003(**kw), protocols=("gamma",))


def via_cluster(**kw):
    return Cluster(granada2003(**kw), protocols=("via",))


def test_gamma_requires_push_mode():
    from repro.protocols.gamma import GammaLayer

    cluster = Cluster(granada2003())  # stock drivers
    with pytest.raises(RuntimeError):
        GammaLayer(cluster.nodes[0])


def test_mixing_pull_and_push_protocols_rejected():
    with pytest.raises(ValueError):
        Cluster(granada2003(), protocols=("clic", "gamma"))


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Cluster(granada2003(), protocols=("smurf",))


def test_gamma_message_roundtrip():
    cluster = gamma_cluster()
    result = pingpong(cluster, gamma_pair(), 10_000, repeats=1, warmup=0)
    assert result.rtt_ns > 0


def test_gamma_latency_below_clic():
    """§5: GAMMA's modified-driver path yields lower latency than CLIC."""
    from repro.workloads import clic_pair

    g = pingpong(gamma_cluster(), gamma_pair(), 0, repeats=2, warmup=1)
    c = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=2, warmup=1)
    assert g.one_way_ns < c.one_way_ns


def test_gamma_fragments_large_messages():
    cluster = gamma_cluster(mtu=MTU_STANDARD)
    result = pingpong(cluster, gamma_pair(), 50_000, repeats=1, warmup=0)
    assert cluster.metrics.value("node0.nic0.tx_frames") >= -(-50_000 // (1500 - 16))


def test_gamma_no_retransmission_loss_is_fatal():
    """GAMMA has no kernel reliability: a lost frame loses the message."""
    cluster = Cluster(granada2003(), protocols=("gamma",),
                      faults=FaultPlan.uniform(1.0))
    received = []

    def a(proc):
        yield from proc.node.gamma.send(1, 3, 1_000)

    def b(proc):
        msg = yield from proc.node.gamma.recv(3)
        received.append(msg)

    cluster.nodes[0].spawn().run(a)
    cluster.nodes[1].spawn().run(b)
    cluster.env.run(until=50e6)
    assert received == []


def test_via_roundtrip_and_polling():
    cluster = via_cluster()
    result = pingpong(cluster, via_pair(), 5_000, repeats=1, warmup=0)
    assert result.rtt_ns > 0
    # The receiver polled at least once.
    assert cluster.nodes[0].via.counters["poll_probes"] > 0


def test_via_send_has_no_syscall():
    """VIA bypasses the kernel: no syscalls on the data path."""
    cluster = via_cluster()
    pingpong(cluster, via_pair(), 1_000, repeats=1, warmup=0)
    assert cluster.metrics.value("node0.kernel.syscalls") == 0
    assert cluster.metrics.value("node1.kernel.syscalls") == 0


def test_via_no_interrupts_on_receive():
    cluster = via_cluster()
    pingpong(cluster, via_pair(), 1_000, repeats=1, warmup=0)
    for node in cluster.nodes:
        assert node.kernel.irq.counters["raised"] == 0


def test_via_unmatched_vi_drops():
    cluster = via_cluster()
    sent = []

    def a(proc):
        vi = proc.node.via.create_vi(999)
        yield from vi.send(1, 500)
        sent.append(1)

    cluster.nodes[0].spawn().run(a)
    cluster.env.run(until=10e6)
    assert sent == [1]
    assert cluster.nodes[1].via.counters["no_vi_drops"] >= 1


def test_via_loss_not_recovered():
    cluster = Cluster(granada2003(), protocols=("via",),
                      faults=FaultPlan.uniform(1.0))
    vi_a = cluster.nodes[0].via.create_vi(5)
    vi_b = cluster.nodes[1].via.create_vi(5)
    got = []

    def a(proc):
        yield from vi_a.send(1, 500)

    def b(proc):
        msg = vi_b.try_recv()
        got.append(msg)
        return
        yield  # pragma: no cover

    cluster.nodes[0].spawn().run(a)
    cluster.env.run(until=20e6)
    cluster.nodes[1].spawn().run(b)
    cluster.env.run(until=21e6)
    assert got == [None]


def test_via_duplicate_vi_rejected():
    cluster = via_cluster()
    cluster.nodes[0].via.create_vi(7)
    with pytest.raises(ValueError):
        cluster.nodes[0].via.create_vi(7)


def test_comparator_latency_ordering():
    """§3.2/§5: both OS-bypass-ish comparators (VIA's user-level polling,
    GAMMA's light traps + modified driver) beat CLIC's full OS path on
    raw 0-byte latency — the price CLIC pays for portability."""
    from repro.workloads import clic_pair

    v = pingpong(via_cluster(), via_pair(), 0, repeats=2, warmup=1)
    g = pingpong(gamma_cluster(), gamma_pair(), 0, repeats=2, warmup=1)
    c = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=2, warmup=1)
    assert v.one_way_ns < c.one_way_ns
    assert g.one_way_ns < c.one_way_ns
    # CLIC's penalty over GAMMA stays modest (the paper: 36 vs 32 us).
    assert c.one_way_ns < 4 * g.one_way_ns
