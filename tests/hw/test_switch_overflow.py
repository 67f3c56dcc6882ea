"""Switch egress-queue overflow and congestion behaviour."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.protocols.clic import ClicEndpoint


def test_switch_egress_overflow_drops_and_clic_recovers():
    """Two senders flood one receiver through a switch with tiny egress
    queues: the switch drops (counted), CLIC retransmits, everything
    still arrives exactly once."""
    cluster = Cluster(granada2003(mtu=MTU_STANDARD, num_nodes=3))
    cluster.switch.queue_frames = 4
    for port in cluster.switch.ports:
        port.queue.capacity = 4
    got = []

    def sender(src):
        def body(proc):
            ep = ClicEndpoint(proc, 3)
            yield from ep.send(2, 150_000, tag=src)
            yield from ep.flush(2)

        return body

    def receiver(proc):
        ep = ClicEndpoint(proc, 3)
        for _ in range(2):
            msg = yield from ep.recv()
            got.append((msg.tag, msg.nbytes))

    cluster.nodes[0].spawn().run(sender(0))
    cluster.nodes[1].spawn().run(sender(1))
    done = cluster.nodes[2].spawn().run(receiver)
    cluster.env.run(done)
    assert sorted(got) == [(0, 150_000), (1, 150_000)]
    # With 4-frame egress queues and two full-rate senders, drops happen.
    assert cluster.metrics.value("switch.drops") > 0
    retx = sum(cluster.metrics.value(f"{n.name}.clic.pkts_retx") for n in cluster.nodes)
    assert retx > 0


def test_no_livelock_with_per_frame_irq_driver():
    """Even the pre-NAPI (budget=1, no coalescing) driver configuration
    must complete a bulk transfer: window flow control prevents the
    receive livelock."""
    from dataclasses import replace

    cfg = granada2003(mtu=MTU_STANDARD)
    node = cfg.node.with_coalescing(False)
    node = replace(node, driver=replace(node.driver, rx_budget_per_irq=1))
    cluster = Cluster(cfg.with_node(node))
    got = []

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 500_000)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        got.append(msg.nbytes)

    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    d0, d1 = p0.run(a), p1.run(b)
    for event in (d0, d1):
        cluster.env.run(event)
    assert got == [500_000]


# -- port-level backpressure unit tests --------------------------------------
from repro.config import LinkParams
from repro.faults import OutageWindow
from repro.hw import Channel, Switch
from repro.hw.nic.frames import EtherType, Frame, MacAddress, frame_time_ns
from repro.obs import Tracer
from repro.sim import Environment

LINK = LinkParams()


def _switch_with_port(queue_frames, backpressure="drop", record_hops=False):
    env = Environment()
    tracer = Tracer(env)
    if record_hops:
        tracer.hop_log = []
    switch = Switch(env, LINK, tracer=tracer, backpressure=backpressure)
    switch.queue_frames = queue_frames
    egress = Channel(env, LINK, "sw->n1")
    egress.connect(lambda f: None)
    port = switch.attach(egress, MacAddress(1))
    return env, switch, port


def _frame(n=0):
    return Frame(src=MacAddress(2), dst=MacAddress(1), ethertype=EtherType.CLIC,
                 payload_bytes=1500, payload=n)


def test_enqueue_drops_at_exactly_full_capacity():
    """The overflow check is >= capacity: the first frame past a full
    queue is dropped, counted, and never touches the queue."""
    env, switch, port = _switch_with_port(2, record_hops=True)
    port.enqueue(_frame(0))
    port.enqueue(_frame(1))
    assert len(port.queue.items) == 2
    assert switch.metrics.value("switch.drops") == 0
    port.enqueue(_frame(2))
    assert len(port.queue.items) == 2  # untouched
    assert switch.metrics.value("switch.drops") == 1
    drop_hops = [d for _, h, _, _, d in switch.tracer.hop_log if h == "switch_drop"]
    assert drop_hops == [{"port": 0, "reason": "overflow"}]


def test_enqueue_refreshes_depth_gauges():
    env, switch, port = _switch_with_port(4)
    port.enqueue(_frame(0))
    port.enqueue(_frame(1))
    assert switch.metrics.value("switch.port0_depth") == 2
    assert switch.metrics.value("switch.max_queue_depth") == 2
    assert port.max_depth == 2
    assert switch.max_queue_depth == 2


def test_overflow_drop_does_not_move_the_depth_gauge():
    env, switch, port = _switch_with_port(1)
    port.enqueue(_frame(0))
    port.enqueue(_frame(1))  # dropped
    assert switch.metrics.value("switch.port0_depth") == 1
    assert port.max_depth == 1


def test_pause_mode_blocks_instead_of_dropping():
    """With capacity 1 and a busy transmitter, the third frame finds the
    queue full: the producer stalls (counted, timed) and no frame is
    shed — everything arrives, in order."""
    env, switch, port = _switch_with_port(1, backpressure="pause")
    arrivals = []
    port.egress._sink = lambda f: arrivals.append(f.payload)

    def producer(env):
        for n in range(3):
            yield from port.enqueue_blocking(_frame(n))

    env.process(producer(env))
    env.run()
    assert arrivals == [0, 1, 2]
    assert switch.metrics.value("switch.drops") == 0
    assert switch.metrics.value("switch.pause_events") == 1
    # the stall lasted one egress serialization, not an instant
    assert switch.metrics.value("switch.pause_time_ns") == pytest.approx(
        frame_time_ns(_frame(0), LINK))


def test_pause_mode_still_drops_during_blackout():
    """A blacked-out port is dark, not slow: pause mode must not park
    frames destined for a dead egress."""
    env, switch, port = _switch_with_port(8, backpressure="pause")
    switch.set_blackouts(port, [OutageWindow(0.0, 1_000.0)])

    def producer(env):
        yield from port.enqueue_blocking(_frame(0))

    env.process(producer(env))
    env.run()
    assert switch.metrics.value("switch.blackout_drops") == 1
    assert switch.metrics.value("switch.pause_events") == 0
    assert port.queue.items == []


def test_switch_rejects_unknown_backpressure_mode():
    env = Environment()
    with pytest.raises(ValueError):
        Switch(env, LINK, backpressure="reject")
