"""Unit tests for the NIC: tx pump, rx buffering, coalescing, offload."""

import pytest

from repro.config import LinkParams, NicParams, PciParams
from repro.hw import Channel, PciBus
from repro.hw.nic import EtherType, Frame, MacAddress, Nic, TxDescriptor
from repro.hw.nic.interrupts import InterruptCoalescer
from repro.sim import Environment

LINK = LinkParams()


def make_nic(env, params=None, rx_deliver="irq-pull"):
    pci = PciBus(env, PciParams())
    nic = Nic(env, params or NicParams(), LINK, pci, MacAddress(1), rx_deliver=rx_deliver)
    sent = []
    chan = Channel(env, LINK, "out")
    chan.connect(lambda f: sent.append(f))
    nic.attach_tx(chan)
    return nic, sent


def desc(nbytes, **kw):
    return TxDescriptor(dst=MacAddress(2), ethertype=EtherType.CLIC, payload_bytes=nbytes, **kw)


def test_tx_sends_frame_with_payload():
    env = Environment()
    nic, sent = make_nic(env)
    assert nic.try_post_tx(desc(1000, payload="hello"))
    env.run()
    assert len(sent) == 1
    assert sent[0].payload_bytes == 1000
    assert sent[0].payload == "hello"
    assert sent[0].src == MacAddress(1)
    assert nic.metrics.value("nic.tx_frames") == 1


def test_tx_ring_full_rejects():
    env = Environment()
    params = NicParams(tx_ring_slots=2)
    nic, _ = make_nic(env, params)
    assert nic.try_post_tx(desc(100))
    assert nic.try_post_tx(desc(100))
    # The pump hasn't run yet (no env.run), so the third must bounce.
    assert not nic.try_post_tx(desc(100))
    assert nic.metrics.value("nic.tx_ring_full") == 1


def test_tx_oversized_descriptor_without_offload_rejected():
    env = Environment()
    nic, _ = make_nic(env, NicParams(mtu=1500, supports_fragmentation=False))
    with pytest.raises(ValueError):
        nic.try_post_tx(desc(3000))


def test_tx_fragmentation_offload_splits_to_mtu():
    env = Environment()
    params = NicParams(mtu=1500, supports_fragmentation=True)
    nic, sent = make_nic(env, params)
    nic.try_post_tx(desc(3200))
    env.run()
    assert [f.payload_bytes for f in sent] == [1500, 1500, 200]
    assert nic.metrics.value("nic.tx_offload_fragmented") == 1


@pytest.mark.parametrize("k", [2, 5])
def test_tx_train_descriptor_is_k_frames_in_one_pass(k):
    """With no flow controller a k-frame train descriptor takes the
    pump's ordinary body: one wire frame, k DMA setups, k frames of
    firmware time, k frames tallied."""
    env = Environment()
    nic, sent = make_nic(env)
    params = nic.params
    per_frame = 1_000
    nbytes = per_frame * k
    on_wire_at = []
    transmit = nic._tx_channel.transmit

    def timed_transmit(frame):
        on_wire_at.append(env.now)
        return transmit(frame)

    nic._tx_channel.transmit = timed_transmit
    assert env.flow is None
    assert nic.try_post_tx(desc(nbytes, payload="train", train_frames=k,
                                from_user_memory=True))
    env.run()
    assert len(sent) == 1
    frame = sent[0]
    assert frame.train_frames == k
    assert frame.payload_bytes == nbytes and frame.payload == "train"
    assert nic.pci.counters["nic.tx_transactions"] == k
    assert nic.pci.counters["nic.tx_bytes"] == nbytes
    assert nic.metrics.value("nic.tx_frames") == k
    assert nic.metrics.value("nic.tx_zero_copy") == k
    assert on_wire_at == [pytest.approx(
        nic.pci.transfer_time(nbytes, k) + k * params.frame_processing_ns,
        rel=0, abs=1e-6)]


def test_jumbo_mtu_requires_support():
    env = Environment()
    params = NicParams(mtu=9000, supports_jumbo=False)
    nic, _ = make_nic(env, params)
    assert params.effective_mtu() == 1500
    with pytest.raises(ValueError):
        nic.try_post_tx(desc(9000))


def test_rx_buffers_and_raises_coalesced_irq():
    env = Environment()
    params = NicParams(coalesce_frames=2, coalesce_timeout_ns=1e6)
    nic, _ = make_nic(env, params)
    irqs = []
    nic.irq_callback = lambda: irqs.append(env.now)
    frame = Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=500)
    nic.receive_frame(frame)
    env.run(until=10_000)
    assert irqs == []  # below threshold, timer far away
    nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=500))
    env.run(until=20_000)
    assert len(irqs) == 1
    assert nic.rx_pending() == 2


def test_rx_coalesce_timer_fires_for_lone_frame():
    env = Environment()
    params = NicParams(coalesce_frames=8, coalesce_timeout_ns=5000)
    nic, _ = make_nic(env, params)
    irqs = []
    nic.irq_callback = lambda: irqs.append(env.now)
    nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=100))
    env.run()
    assert len(irqs) == 1
    assert irqs[0] >= 5000


def test_rx_no_coalescing_interrupts_every_frame():
    env = Environment()
    params = NicParams(coalescing_enabled=False)
    nic, _ = make_nic(env, params)
    irqs = []

    def handler():
        irqs.append(env.now)
        # emulate an immediate driver drain
        def drain(env):
            while nic.rx_pending():
                yield from nic.dma_frame_to_host()
            nic.irq_service_done()
        env.process(drain(env))

    nic.irq_callback = handler
    for _ in range(3):
        nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=100))
        env.run()
    assert len(irqs) == 3


def test_rx_ring_overflow_drops():
    env = Environment()
    params = NicParams(rx_ring_slots=2, coalesce_frames=100, coalesce_timeout_ns=1e9)
    nic, _ = make_nic(env, params)
    nic.irq_callback = lambda: None
    for _ in range(4):
        nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=100))
        env.run()
    assert nic.metrics.value("nic.rx_drops") == 2
    assert nic.rx_pending() == 2


def test_dma_frame_to_host_moves_oldest():
    env = Environment()
    params = NicParams(coalesce_frames=100, coalesce_timeout_ns=1e9)
    nic, _ = make_nic(env, params)
    nic.irq_callback = lambda: None
    for i, n in enumerate((100, 200)):
        nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=n))
    env.run()

    def drain(env):
        first = yield from nic.dma_frame_to_host()
        second = yield from nic.dma_frame_to_host()
        return (first.payload_bytes, second.payload_bytes)

    assert env.run(env.process(drain(env))) == (100, 200)


def test_dma_frame_to_host_empty_raises():
    env = Environment()
    nic, _ = make_nic(env)

    def drain(env):
        yield from nic.dma_frame_to_host()

    with pytest.raises(RuntimeError):
        env.run(env.process(drain(env)))


def test_push_mode_delivers_to_callback_without_irq():
    env = Environment()
    nic, _ = make_nic(env, rx_deliver="push")
    got = []
    nic.push_callback = got.append
    nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=700))
    env.run()
    assert len(got) == 1
    assert got[0].payload_bytes == 700
    assert nic.counters["irqs_asserted"] == 0


def test_irq_without_driver_raises():
    env = Environment()
    nic, _ = make_nic(env, NicParams(coalescing_enabled=False))
    nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=1))
    with pytest.raises(RuntimeError):
        env.run()


def test_service_done_rearms_for_leftover_frames():
    env = Environment()
    params = NicParams(coalesce_frames=2, coalesce_timeout_ns=1e9)
    nic, _ = make_nic(env, params)
    irqs = []
    nic.irq_callback = lambda: irqs.append(env.now)
    for _ in range(2):
        nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=10))
    env.run()
    assert len(irqs) == 1
    # Two more frames arrive while "in service".
    for _ in range(2):
        nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=10))
    env.run()
    assert len(irqs) == 1  # suppressed during service
    nic.irq_service_done()  # driver drained nothing in this test; 4 remain
    # Re-fire goes through the hold-off timer (anti-livelock), not
    # immediately, even though the backlog exceeds the threshold.
    assert len(irqs) == 1
    env.run()
    assert len(irqs) == 2


def test_coalescer_threshold_counts():
    env = Environment()
    fired = []
    params = NicParams(coalesce_frames=3, coalesce_timeout_ns=1e9)
    c = InterruptCoalescer(env, params, lambda: fired.append(env.now))
    c.note_frame()
    c.note_frame()
    assert fired == []
    c.note_frame()
    assert len(fired) == 1
    c.service_done(0)
    assert c.pending == 0


def test_per_frame_objects_are_slotted():
    """Frames and descriptors are allocated per packet: they keep
    ``__slots__`` (no per-instance ``__dict__``), which halves their
    footprint and speeds attribute access on the hot path."""
    frame = Frame(MacAddress(1), MacAddress(2), EtherType.CLIC, 1400)
    for obj in (frame, desc(1400)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_a_duplicated_frame_opens_two_unparented_rx_spans():
    """A duplication fault hands the same Frame object to the NIC twice
    at one instant; each admission keys its ``nic_rx`` span by a fresh
    owner, so neither copy's span nests under the other's."""
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.faults import FaultPlan
    from repro.workloads.adapters import clic_pair
    from repro.workloads.pingpong import stream

    cluster = Cluster(granada2003(trace=True), protocols=("clic",),
                      faults=FaultPlan.duplication(1.0))
    stream(cluster, clic_pair(), 16_384, messages=2)
    spans = [s for s in cluster.tracer.spans if s.name == "nic_rx"]
    starts = [(s.scope, s.start_ns) for s in spans]
    assert len(set(starts)) < len(starts)  # copies admitted at one instant
    assert all(s.parent_id is None for s in spans)


@pytest.mark.parametrize("receiver_offload", [True, False], ids=["offload", "no-offload"])
def test_duplicated_fragments_are_counted_as_they_left_the_wire(receiver_offload):
    """Firmware fragments go up as fresh frames instead of rewriting the
    received one: a duplication fault delivers the same ``Frame`` object
    again, and the NIC must see every copy as it left the wire.  So its
    ``rx_bytes`` equals the bytes its ingress channel delivered, and a
    receiver without offload counts every copy as a fragment.  (Only
    data flows from node 0 to node 1; acks go the other way.)"""
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.faults import FaultPlan
    from repro.workloads.adapters import clic_pair
    from repro.workloads.pingpong import stream

    cfg = granada2003(mtu=9000)
    plain = cfg.node
    cfg = cfg.with_node(cfg.node.with_fragmentation_offload(True))
    cluster = Cluster(cfg, protocols=("clic",), faults=FaultPlan.duplication(1.0),
                      node_overrides=None if receiver_offload else {1: plain})
    stream(cluster, clic_pair(), 64_000, messages=2)
    ingress = dict(cluster.channels)["1.0.down"].counters
    m = cluster.metrics
    # every data frame crosses two links, each delivering it twice
    assert m.value("node1.nic0.rx_frames") == ingress["frames"] == 4 * m.value(
        "node0.nic0.tx_frames")
    assert m.value("node1.nic0.rx_bytes") == ingress["bytes"] == 4 * m.value(
        "node0.nic0.tx_bytes")
    if not receiver_offload:
        assert m.value("node1.nic0.rx_fragment_no_offload") == ingress["frames"]
