"""Edge-case and failure-mode tests for CLIC."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.config import MTU_JUMBO, MTU_STANDARD, granada2003
from repro.protocols.clic import ClicEndpoint
from repro.protocols.reliability import DeliveryFailed


def run_pair(cluster, body_a, body_b):
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    done_a, done_b = p0.run(body_a), p1.run(body_b)
    for event in (done_a, done_b):
        cluster.env.run(event)
    return done_a.value, done_b.value


def test_jumbo_interop_mismatch_drops_frames():
    """Paper §2: jumbo frames 'affect the interoperability (both
    communicating computers have to use Jumbo frames)'.  A jumbo sender
    talking to a standard-MTU receiver gets nowhere."""
    cfg = granada2003(mtu=MTU_JUMBO)
    std_node = cfg.node.with_mtu(MTU_STANDARD)
    # Shorten the retry budget so the test is quick.
    fast_fail = replace(
        cfg.node.clic, retransmit_timeout_ns=1_000_000.0, max_retries=2
    )
    cfg = cfg.with_node(replace(cfg.node, clic=fast_fail))
    cluster = Cluster(cfg, node_overrides={1: replace(std_node, clic=fast_fail)})

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        try:
            yield from ep.send_confirm(1, 5000)  # one 5 kB jumbo frame
        except DeliveryFailed:
            return "failed"
        return "delivered"

    p0 = cluster.nodes[0].spawn()
    done = p0.run(a)
    result = cluster.env.run(done)
    assert result == "failed"
    assert cluster.metrics.value("node1.nic0.rx_oversize_drops") > 0


def test_standard_mtu_pair_interoperates_fine():
    cfg = granada2003(mtu=MTU_STANDARD)
    cluster = Cluster(cfg)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 5000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 5000


def test_tx_ring_pressure_triggers_staging():
    """§3.1: when the driver reports the NIC busy, CLIC_MODULE copies the
    data into system memory and sends it later — and nothing is lost."""
    cfg = granada2003(mtu=MTU_STANDARD)
    tiny_ring = replace(cfg.node.nic, tx_ring_slots=2)
    cfg = cfg.with_node(replace(cfg.node, nic=tiny_ring))
    cluster = Cluster(cfg)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 120_000)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 120_000
    assert cluster.metrics.value("node0.clic.pkts_staged") > 0
    assert cluster.metrics.value("node0.clic.staged_copies") > 0
    assert cluster.metrics.value("node0.clic.pkts_tx_from_backlog") > 0


def test_window_stall_counted_and_recovered():
    cfg = granada2003(mtu=MTU_STANDARD)
    small_window = replace(cfg.node.clic, window_frames=4)
    cfg = cfg.with_node(replace(cfg.node, clic=small_window))
    cluster = Cluster(cfg)

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 60_000)  # ~41 fragments through a 4-window
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 60_000
    assert cluster.metrics.value("node0.clic.tx1.window_stalls") > 0


def test_fragmentation_offload_reduces_module_packets():
    base = granada2003(mtu=MTU_STANDARD)
    offload = base.with_node(base.node.with_fragmentation_offload(True))

    def measure(cfg):
        cluster = Cluster(cfg)

        def a(proc):
            ep = ClicEndpoint(proc, 1)
            yield from ep.send(1, 120_000)
            yield from ep.flush(1)

        def b(proc):
            ep = ClicEndpoint(proc, 1)
            msg = yield from ep.recv()
            return msg.nbytes

        _, got = run_pair(cluster, a, b)
        assert got == 120_000
        return cluster

    sw = measure(base)
    hw = measure(offload)
    sw_pkts = sw.metrics.value("node0.clic.pkts_tx")
    hw_pkts = hw.metrics.value("node0.clic.pkts_tx")
    assert hw_pkts < sw_pkts / 10  # 2 super-packets vs ~81 fragments
    assert hw.metrics.value("node0.nic0.tx_offload_fragmented") > 0
    assert hw.metrics.value("node1.nic0.rx_offload_reassembled") > 0


def test_malformed_packet_on_clic_ethertype_survives():
    cluster = Cluster(granada2003())
    n1 = cluster.nodes[1]
    from repro.oskernel import SkBuff

    def inject(env):
        yield from n1.kernel.direct_rx(0x6007, SkBuff(payload_bytes=64, payload="garbage"))

    cluster.env.run(cluster.env.process(inject(cluster.env)))
    assert cluster.metrics.value("node1.clic.rx_malformed") == 1


def test_remote_write_unclaimed_completions_not_lost():
    cluster = Cluster(granada2003())

    def a(proc):
        ep = ClicEndpoint(proc, 8)
        for i in range(3):
            yield from ep.remote_write(1, 1000, tag=i)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 8)
        ep.register_region(1 << 20)
        # Wait long enough that all three writes complete before the
        # first wait call: none may be lost.
        yield proc.env.timeout(50e6)
        tags = []
        for _ in range(3):
            msg = yield from ep.wait_remote_write()
            tags.append(msg.tag)
        return sorted(tags)

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    p0.run(a)
    done = p1.run(b)
    assert cluster.env.run(done) == [0, 1, 2]


def test_one_copy_mode_never_posts_user_memory_descriptors():
    cluster = Cluster(granada2003(zero_copy=False))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 50_000)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 50_000
    assert cluster.metrics.value("node0.nic0.tx_zero_copy") == 0
    # The sender paid one user->system copy per fragment.
    assert cluster.metrics.value("node0.kernel.copies_user_to_system") > 0


def test_zero_copy_mode_posts_user_memory_descriptors():
    cluster = Cluster(granada2003(zero_copy=True))

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 50_000)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    _, got = run_pair(cluster, a, b)
    assert got == 50_000
    assert cluster.metrics.value("node0.nic0.tx_zero_copy") > 0
    # No sender-side staging copies (the ring never filled).
    assert cluster.metrics.value("node0.kernel.copies_user_to_system") == 0


def test_interleaved_messages_different_ports():
    cluster = Cluster(granada2003())

    def a(proc):
        ep1 = ClicEndpoint(proc, 1)
        ep2 = ClicEndpoint(proc, 2)
        yield from ep1.send(1, 30_000, tag=1)
        yield from ep2.send(1, 40_000, tag=2)

    def b(proc):
        ep1 = ClicEndpoint(proc, 1)
        ep2 = ClicEndpoint(proc, 2)
        m2 = yield from ep2.recv()
        m1 = yield from ep1.recv()
        return (m1.nbytes, m2.nbytes)

    _, got = run_pair(cluster, a, b)
    assert got == (30_000, 40_000)
