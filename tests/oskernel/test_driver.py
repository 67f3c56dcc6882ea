"""Unit tests for the vendor NIC driver."""

import pytest

from repro.config import DriverParams, LinkParams, NicParams, PciParams
from repro.cluster import Cluster
from repro.config import granada2003
from repro.hw.nic import EtherType, Frame, MacAddress
from repro.oskernel import SkBuff


def make_node(**kw):
    cluster = Cluster(granada2003(**kw))
    return cluster, cluster.nodes[0], cluster.nodes[1]


def test_transmit_charges_tx_call_and_posts():
    cluster, n0, _ = make_node()
    driver = n0.drivers[0]

    def body(env):
        skb = SkBuff.for_user_payload(1000)
        skb.push_header("clic", 12)
        ok = yield from driver.transmit(skb, MacAddress(17), EtherType.CLIC)
        return (ok, env.now)

    ok, t = cluster.env.run(cluster.env.process(body(cluster.env)))
    assert ok
    assert t >= n0.cfg.driver.tx_call_ns
    assert cluster.metrics.value("node0.eth0.tx_accepted") == 1


def test_transmit_reports_ring_full():
    from dataclasses import replace

    cfg = granada2003()
    # A tiny ring and big frames: the pump cannot keep up with posts.
    cfg = cfg.with_node(replace(cfg.node, nic=replace(cfg.node.nic, tx_ring_slots=2)))
    cluster = Cluster(cfg)
    n0 = cluster.nodes[0]
    driver = n0.drivers[0]

    def body(env):
        results = []
        for _ in range(6):
            skb = SkBuff.for_user_payload(8900)
            ok = yield from driver.transmit(skb, MacAddress(17), EtherType.CLIC)
            results.append(ok)
        return results

    results = cluster.env.run(cluster.env.process(body(cluster.env)))
    assert not all(results)
    assert cluster.metrics.value("node0.eth0.tx_ring_busy") >= 1


def test_irq_handler_respects_budget():
    cluster, n0, n1 = make_node()
    nic = n1.nics[0]
    budget = n1.cfg.driver.rx_budget_per_irq
    # Park more frames than the budget on the NIC without kernel help.
    for i in range(budget + 4):
        _park(nic, 100)
    # Trigger the handler directly.
    n1.drivers[0]._on_irq()
    cluster.env.run(until=cluster.env.now + 5e6)
    # The budget forced a second interrupt for the leftover frames
    # (re-armed through the coalescer's hold-off timer).
    assert cluster.metrics.value("node1.eth0.rx_irqs") == 2
    assert cluster.metrics.value("node1.eth0.rx_frames") == budget + 4
    assert nic.rx_pending() == 0


def _park(nic, nbytes):
    """Park one frame on the NIC's rx ring as its receive path would,
    keeping the ring occupancy in step."""
    nic._rx_buffer.append(
        Frame(src=MacAddress(99), dst=nic.mac, ethertype=0x9999, payload_bytes=nbytes))
    nic._rx_occ += 1


def test_unknown_ethertype_counted_not_crashed():
    cluster, n0, n1 = make_node()
    nic = n1.nics[0]
    _park(nic, 50)
    n1.drivers[0]._on_irq()
    cluster.env.run(until=cluster.env.now + 5e6)
    assert cluster.metrics.value("node1.kernel.rx_unknown_ethertype") == 1


def test_direct_mode_skips_bottom_halves():
    cfg = granada2003()
    cfg = cfg.with_node(cfg.node.with_direct_rx(True))
    cluster = Cluster(cfg)
    from repro.protocols.clic import ClicEndpoint

    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    ep0, ep1 = ClicEndpoint(p0, 1), ClicEndpoint(p1, 1)

    def a(proc):
        yield from ep0.send(1, 2000)

    def b(proc):
        msg = yield from ep1.recv()
        return msg.nbytes

    p0.run(a)
    done = p1.run(b)
    assert cluster.env.run(done) == 2000
    # Data packets never took the bottom-half path on the receiver...
    # (acks on the sender side still might; check the receiver's kernel).
    assert cluster.metrics.value("node1.kernel.bh.scheduled") == 0


def test_direct_mode_waiting_receiver_skips_copy():
    cfg = granada2003()
    cfg = cfg.with_node(cfg.node.with_direct_rx(True))
    cluster = Cluster(cfg)
    from repro.protocols.clic import ClicEndpoint

    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    ep0, ep1 = ClicEndpoint(p0, 1), ClicEndpoint(p1, 1)

    def b(proc):
        msg = yield from ep1.recv()  # blocks before data arrives
        return msg.nbytes

    def a(proc):
        yield proc.env.timeout(100_000)  # let the receiver block first
        yield from ep0.send(1, 2000)

    done = p1.run(b)
    p0.run(a)
    assert cluster.env.run(done) == 2000
    assert cluster.metrics.value("node1.clic.direct_user_deliveries") >= 1
    assert cluster.metrics.value("node1.kernel.copies_system_to_user") == 0
