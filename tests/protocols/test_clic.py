"""Integration tests for the CLIC protocol over the simulated cluster."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_JUMBO, MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.protocols import ClicPacketType
from repro.protocols.clic import ClicEndpoint
from repro.units import us


def make_cluster(**kw):
    return Cluster(granada2003(**kw))


def run_pair(cluster, body_a, body_b, until=1e9):
    n0, n1 = cluster.nodes[0], cluster.nodes[1]
    p0, p1 = n0.spawn("a"), n1.spawn("b")
    done_a = p0.run(body_a)
    done_b = p1.run(body_b)
    for event in (done_a, done_b):
        cluster.env.run(event)
    return done_a.value, done_b.value


def test_zero_byte_message_delivered():
    cluster = make_cluster()
    ep = {}

    def a(proc):
        ep[0] = ClicEndpoint(proc, 1)
        yield from ep[0].send(1, 0, tag=9)
        return "sent"

    def b(proc):
        ep[1] = ClicEndpoint(proc, 1)
        msg = yield from ep[1].recv()
        return (msg.nbytes, msg.tag, msg.src_node)

    _, got = run_pair(cluster, a, b)
    assert got == (0, 9, 0)


def test_large_message_fragments_and_reassembles():
    cluster = make_cluster(mtu=MTU_STANDARD)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 100_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 100_000
    # 100 kB over (1500-12)-byte fragments
    expected_frags = -(-100_000 // (1500 - 12))
    assert cluster.metrics.value("node0.clic.pkts_tx") == expected_frags


def test_message_larger_than_jumbo_works():
    cluster = make_cluster(mtu=MTU_JUMBO)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 50_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 50_000


def test_tag_matching_selects_correct_message():
    cluster = make_cluster()

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 100, tag=1)
        yield from ep.send(1, 200, tag=2)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg2 = yield from ep.recv(tag=2)
        msg1 = yield from ep.recv(tag=1)
        return (msg1.nbytes, msg2.nbytes)

    _, got = run_pair(cluster, a, b)
    assert got == (100, 200)


def test_recv_nonblocking_returns_none_then_message():
    cluster = make_cluster()

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        first = yield from ep.recv_nonblocking()
        yield from ep.send(1, 10, tag=5)
        # Wait for the echo to be sure the peer got it
        msg = yield from ep.recv()
        second = yield from ep.recv_nonblocking()
        return (first, msg.nbytes, second)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        yield from ep.send(0, msg.nbytes)

    got, _ = run_pair(cluster, a, b)
    assert got[0] is None
    assert got[1] == 10
    assert got[2] is None


def test_send_confirm_waits_for_acks():
    cluster = make_cluster()

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send_confirm(1, 5000)
        # All packets must be acked at this point.
        sender = proc.node.clic._senders[1]
        return sender.in_flight

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    in_flight, got = run_pair(cluster, a, b)
    assert in_flight == 0
    assert got == 5000


def test_multiple_senders_to_one_receiver():
    cluster = Cluster(granada2003(num_nodes=3))

    def sender(node_idx):
        def body(proc):
            ep = ClicEndpoint(proc, 1)
            yield from ep.send(2, 1000 * (node_idx + 1), tag=node_idx)
        return body

    def receiver(proc):
        ep = ClicEndpoint(proc, 1)
        sizes = {}
        for _ in range(2):
            msg = yield from ep.recv()
            sizes[msg.src_node] = msg.nbytes
        return sizes

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    p2 = cluster.nodes[2].spawn()
    p0.run(sender(0))
    p1.run(sender(1))
    done = p2.run(receiver)
    sizes = cluster.env.run(done)
    assert sizes == {0: 1000, 1: 2000}


def test_src_filtered_recv():
    cluster = Cluster(granada2003(num_nodes=3))

    def sender(node_idx, size):
        def body(proc):
            ep = ClicEndpoint(proc, 1)
            yield from ep.send(2, size)
        return body

    def receiver(proc):
        ep = ClicEndpoint(proc, 1)
        msg_from_1 = yield from ep.recv(src=1)
        msg_from_0 = yield from ep.recv(src=0)
        return (msg_from_0.nbytes, msg_from_1.nbytes)

    cluster.nodes[0].spawn().run(sender(0, 111))
    cluster.nodes[1].spawn().run(sender(1, 222))
    done = cluster.nodes[2].spawn().run(receiver)
    assert cluster.env.run(done) == (111, 222)


def test_same_node_communication():
    """§5: CLIC delivers between processes on the same node."""
    cluster = make_cluster()
    node = cluster.nodes[0]
    pa, pb = node.spawn("x"), node.spawn("y")
    ea, eb = ClicEndpoint(pa, 7), ClicEndpoint(pb, 7)

    def a(proc):
        yield from ea.send(0, 4000, tag=1)

    def b(proc):
        msg = yield from eb.recv(tag=1)
        return (msg.nbytes, msg.src_node)

    pa.run(a)
    done = pb.run(b)
    got = cluster.env.run(done)
    assert got == (4000, 0)
    # No frames crossed the NIC.
    assert cluster.metrics.value("node0.nic0.tx_frames") == 0


def test_same_node_latency_lower_than_network():
    cluster = make_cluster()
    node0, node1 = cluster.nodes[0], cluster.nodes[1]
    times = {}

    pa, pb = node0.spawn(), node0.spawn()
    ea, eb = ClicEndpoint(pa, 1), ClicEndpoint(pb, 1)

    def local_rx(proc):
        msg = yield from eb.recv()
        times["local"] = proc.env.now

    def local_tx(proc):
        yield from ea.send(0, 1000)

    pb.run(local_rx)
    pa.run(local_tx)
    cluster.env.run(until=1e7)
    assert times["local"] < us(20)


def test_remote_write_no_receive_call_needed():
    cluster = make_cluster()

    def a(proc):
        ep = ClicEndpoint(proc, 3)
        yield from ep.remote_write(1, 8000)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 3)
        region = ep.register_region(1 << 20)
        msg = yield from ep.wait_remote_write()
        return (msg.nbytes, region.bytes_written, len(region.unclaimed))

    _, got = run_pair(cluster, a, b)
    assert got == (8000, 8000, 0)


def test_register_region_twice_rejected():
    cluster = make_cluster()
    proc = cluster.nodes[0].spawn()
    ep = ClicEndpoint(proc, 3)
    ep.register_region(100)
    with pytest.raises(ValueError):
        ep.register_region(100)


def test_broadcast_reaches_all_nodes():
    cluster = Cluster(granada2003(num_nodes=4))
    received = {}

    def rx(idx):
        def body(proc):
            ep = ClicEndpoint(proc, 9)
            msg = yield from ep.recv()
            received[idx] = msg.nbytes
        return body

    procs = [cluster.nodes[i].spawn() for i in range(1, 4)]
    for i, p in enumerate(procs, start=1):
        p.run(rx(i))

    def tx(proc):
        ep = ClicEndpoint(proc, 9)
        yield from ep.broadcast(2500)

    cluster.nodes[0].spawn().run(tx)
    cluster.env.run(until=1e7)
    assert received == {1: 2500, 2: 2500, 3: 2500}


def test_kernel_fn_packet_invokes_handler():
    cluster = make_cluster()
    calls = []

    def handler(pkt):
        calls.append(pkt.src_node)
        return
        yield  # pragma: no cover

    cluster.nodes[1].clic.register_kernel_fn(42, handler)

    def a(proc):
        yield from proc.node.kernel.syscall(
            proc.node.clic.send(1, port=0, nbytes=0, tag=42,
                                ptype=ClicPacketType.KERNEL_FN)
        )

    cluster.nodes[0].spawn().run(a)
    cluster.env.run(until=1e7)
    assert calls == [0]


def test_kernel_fn_duplicate_registration_rejected():
    cluster = make_cluster()
    mod = cluster.nodes[0].clic
    mod.register_kernel_fn(1, lambda pkt: iter(()))
    with pytest.raises(ValueError):
        mod.register_kernel_fn(1, lambda pkt: iter(()))


def test_channel_bonding_uses_both_nics():
    """§5: several NICs increase bandwidth through the switch."""
    cfg = granada2003()
    cfg = cfg.with_node(cfg.node.with_nic_count(2))
    cluster = Cluster(cfg)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 200_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 200_000
    assert cluster.metrics.value("node0.nic0.tx_frames") > 0
    assert cluster.metrics.value("node0.nic1.tx_frames") > 0


def test_bonding_improves_bandwidth_when_io_bus_allows():
    """On 33 MHz PCI the shared I/O bus caps a node below one NIC's wire
    rate, so bonding cannot help (and must not hurt); with server-class
    66 MHz/64-bit PCI the wire is the bottleneck and a second NIC pays."""
    from dataclasses import replace

    from repro.config import pci_66mhz_64bit
    from repro.workloads import clic_pair, stream

    def measure(nics, fast_pci):
        cfg = granada2003()
        node = cfg.node.with_nic_count(nics)
        if fast_pci:
            node = replace(node, pci=pci_66mhz_64bit())
        cluster = Cluster(cfg.with_node(node))
        return stream(cluster, clic_pair(), 2_000_000).bandwidth_mbps

    slow_one, slow_two = measure(1, False), measure(2, False)
    assert slow_two > slow_one * 0.9  # no regression on the shared bus
    fast_one, fast_two = measure(1, True), measure(2, True)
    assert fast_two > fast_one * 1.15
    # Bonding pushes past a single link's wire capacity (then the
    # receiver CPU becomes the next ceiling).
    assert fast_two > 1_000.0 > fast_one


def test_reliability_under_frame_loss():
    """Packets dropped on the wire are retransmitted transparently."""
    cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=FaultPlan.uniform(0.05))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send_confirm(1, 300_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b, until=60e9)
    assert got == 300_000
    assert cluster.metrics.value("node0.clic.pkts_retx") > 0


def test_exactly_once_under_loss_many_messages():
    cluster = Cluster(granada2003(), faults=FaultPlan.uniform(0.05))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        for i in range(10):
            yield from ep.send(1, 5_000, tag=i)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        tags = []
        for _ in range(10):
            msg = yield from ep.recv()
            tags.append(msg.tag)
        return tags

    _, tags = run_pair(cluster, a, b)
    assert sorted(tags) == list(range(10))


def test_negative_size_rejected():
    cluster = make_cluster()
    proc = cluster.nodes[0].spawn()
    ep = ClicEndpoint(proc, 1)

    def body(p):
        yield from ep.send(1, -5)

    done = proc.run(body)
    with pytest.raises(ValueError):
        cluster.env.run(done)


def test_byte_conservation_counters():
    cluster = make_cluster()

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 123_456)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    run_pair(cluster, a, b)
    assert cluster.metrics.value("node0.clic.bytes_sent") == 123_456
    assert cluster.metrics.value("node1.clic.bytes_rx") == 123_456
