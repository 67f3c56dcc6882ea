"""Unit tests for the NIC: tx pump, rx buffering, coalescing, offload."""

import pytest

from repro.config import LinkParams, NicParams, PciParams
from repro.hw import Channel, PciBus
from repro.hw.nic import EtherType, Frame, MacAddress, Nic, RxFrame, TxDescriptor
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


def test_tx_on_wire_event_fires():
    env = Environment()
    nic, sent = make_nic(env)
    ev = env.event()
    nic.try_post_tx(desc(1000, on_wire=ev))
    t = env.run(ev)
    assert t > 0
    env.run()  # let propagation deliver the frame
    assert sent


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
        return (first.frame.payload_bytes, second.frame.payload_bytes)

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
    nic.push_callback = lambda rx: got.append(rx)
    nic.receive_frame(Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC, payload_bytes=700))
    env.run()
    assert len(got) == 1
    assert got[0].in_host_memory
    assert nic.coalescer.counters["interrupts"] == 0


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
    for obj in (frame, desc(1400), RxFrame(frame, arrived_at=0.0)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
