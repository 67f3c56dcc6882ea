"""Unit tests for the hybrid flow/packet eligibility oracle.

Everything the controller consults is duck-typed, so these tests drive
it with minimal stubs and check one boundary per test: each fallback
reason, the batch-size clamp, and the express-ack gate.
"""

from collections import Counter
from types import SimpleNamespace

from repro.config import LinkParams
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.sim.flowmode import (HORIZON_NS, MAX_TRAIN, MIN_TRAIN,
                                FlowModeController, FlowRoute)


class _Window:
    def __init__(self, start_ns, end_ns):
        self.start_ns = start_ns
        self.end_ns = end_ns

    def covers(self, now):
        return self.start_ns <= now < self.end_ns


class _Faults:
    def __init__(self, quiet=True):
        self._quiet = quiet

    def quiet_over(self, start, end):
        return self._quiet


class _Channel:
    def __init__(self, idle=True, faults=None):
        self.idle = idle
        self.faults = faults
        self.counters = Counter()
        self.params = LinkParams()


class _Port:
    def __init__(self, occupancy=0, blackouts=()):
        self.occupancy = occupancy
        self.blackouts = blackouts


class _Nic:
    def __init__(self, headroom=64, mac="nic", env=None, metrics=None, offload=False):
        self._headroom = headroom
        self.params = SimpleNamespace(supports_fragmentation=offload)
        self.mac = mac
        self.name = f"{mac}.nic0"
        self.env = env
        self.counters = (metrics if metrics is not None
                         else MetricsRegistry()).tallies(self.name)
        self.received = []

    def rx_headroom(self):
        return self._headroom

    def receive_frame(self, frame):
        self.received.append(frame)


class _Module:
    def __init__(self, stash_depth=0):
        self._stash_depth = stash_depth
        self.acks = []

    def reorder_stash_depth(self, peer):
        return self._stash_depth

    def receive_ack(self, peer, cum):
        self.acks.append((peer, cum))


class _Sender:
    def __init__(self, window=64, in_flight=0, failed=False,
                 retransmitting=False):
        self.window = window
        self.in_flight = in_flight
        self.failed = failed
        self.retransmitting = retransmitting


class _Frame:
    def __init__(self, train_frames, payload_bytes):
        self.train_frames = train_frames
        self.payload_bytes = payload_bytes


def _route(env=None, **kw):
    metrics = MetricsRegistry()
    defaults = dict(up=_Channel(), down=_Channel(), port=_Port(),
                    switch=SimpleNamespace(metrics=metrics,
                                           counters=metrics.tallies("switch"),
                                           forward_ns=2_000.0),
                    src_nic=_Nic(mac="src", env=env, metrics=metrics),
                    src_driver=SimpleNamespace(
                        counters=metrics.tallies("src.eth0")),
                    dst_nic=_Nic(mac="dst", env=env, metrics=metrics),
                    rx_budget=16, dst_coalescing=True, module=_Module(),
                    peer=0, ack_bytes=80, ack_latency_ns=30_000.0)
    defaults.update(kw)
    return FlowRoute(**defaults)


def _controller():
    return FlowModeController()


def _register(ctl, route):
    ctl.register_route(0, 1, route)
    return route


def plan(ctl, sender=None, remaining=32, now=0.0):
    return ctl.plan_train(0, 1, sender or _Sender(), remaining, now)


def test_steady_state_train_is_granted_and_counted():
    ctl = _controller()
    _register(ctl, _route())
    k = plan(ctl)
    assert k == MAX_TRAIN == 16  # min(remaining=32, window_free=64, MAX_TRAIN, budget=16)
    assert ctl.counters["trains"] == 1
    assert ctl.counters["frames_batched"] == 16


def test_window_edge_fallbacks():
    ctl = _controller()
    _register(ctl, _route())
    assert plan(ctl, remaining=MIN_TRAIN - 1) == 0  # fewer fragments than MIN_TRAIN
    assert plan(ctl, sender=_Sender(window=64, in_flight=64 - MIN_TRAIN + 1)) == 0
    assert ctl.counters["fallback_window_edge"] == 2


def test_recovery_fallback():
    ctl = _controller()
    _register(ctl, _route())
    assert plan(ctl, sender=_Sender(retransmitting=True)) == 0
    assert plan(ctl, sender=_Sender(failed=True)) == 0
    assert ctl.counters["fallback_recovery"] == 2


def test_topology_fallback_without_route():
    ctl = _controller()
    assert plan(ctl) == 0
    assert ctl.counters["fallback_topology"] == 1


def test_fragmentation_offload_route_stands_both_lanes_down():
    ctl = _controller()
    _register(ctl, _route(dst_nic=_Nic(mac="dst", offload=True)))
    assert plan(ctl) == 0
    assert ctl.counters["fallback_fragmentation_offload"] == 1
    assert ctl.express_ack_route(0, 1, now=0.0) is None
    assert ctl.counters["acks_exact"] == 1


def test_fault_window_inside_horizon_forces_exact():
    ctl = _controller()
    _register(ctl, _route(down=_Channel(faults=_Faults(quiet=False))))
    assert plan(ctl) == 0
    assert ctl.counters["fallback_faults"] == 1


def test_switch_contention_fallbacks():
    ctl = _controller()
    _register(ctl, _route(port=_Port(occupancy=2)))
    assert plan(ctl) == 0
    ctl2 = _controller()
    inside = _Window(HORIZON_NS / 2, HORIZON_NS / 2 + 100_000)
    _register(ctl2, _route(port=_Port(blackouts=(inside,))))
    assert plan(ctl2, now=0.0) == 0
    assert ctl.counters["fallback_switch_contention"] == 1
    assert ctl2.counters["fallback_switch_contention"] == 1
    # ... but a blackout entirely beyond the horizon does not block.
    ctl3 = _controller()
    beyond = _Window(2 * HORIZON_NS, 3 * HORIZON_NS)
    _register(ctl3, _route(port=_Port(blackouts=(beyond,))))
    assert plan(ctl3, now=0.0) > 0


def test_receiver_side_fallbacks():
    ctl = _controller()
    _register(ctl, _route(dst_coalescing=False))
    assert plan(ctl) == 0
    assert ctl.counters["fallback_coalescing_off"] == 1

    ctl2 = _controller()
    _register(ctl2, _route(module=_Module(stash_depth=3)))
    assert plan(ctl2) == 0
    assert ctl2.counters["fallback_reorder_stash"] == 1

    ctl3 = _controller()
    _register(ctl3, _route(dst_nic=_Nic(headroom=2)))
    assert plan(ctl3) == 0
    assert ctl3.counters["fallback_rx_ring"] == 1


def test_train_size_clamps():
    ctl = _controller()
    _register(ctl, _route(rx_budget=8))
    assert plan(ctl, remaining=100) == 8  # rx budget clamps
    ctl2 = _controller()
    _register(ctl2, _route(dst_nic=_Nic(headroom=5)))
    assert plan(ctl2, remaining=100) == 5  # ring headroom clamps
    ctl3 = _controller()
    _register(ctl3, _route())
    assert plan(ctl3, remaining=100,
                sender=_Sender(window=64, in_flight=57)) == 7  # window clamps


def test_hop_clear_requires_idle_path():
    assert _route().hop_clear()
    assert not _route(up=_Channel(idle=False)).hop_clear()
    assert not _route(down=_Channel(idle=False)).hop_clear()
    assert not _route(port=_Port(occupancy=1)).hop_clear()


def test_complete_hop_balances_conservation_counters():
    route = _route()
    frame = _Frame(train_frames=8, payload_bytes=8 * 1500)
    route.complete_hop(frame)
    for channel in (route.up, route.down):
        assert channel.counters["frames_offered"] == 8
        assert channel.counters["frames"] == 8
        assert channel.counters["bytes"] == 8 * 1500
    assert route.switch.metrics.value("switch.forwarded") == 8
    assert route.dst_nic.received == [frame]


def test_carry_lands_the_train_after_one_pipelined_hop():
    env = Environment()
    route = _route(env=env)
    frame = _Frame(train_frames=8, payload_bytes=8 * 1500)
    route.carry(frame)
    assert route.dst_nic.received == []
    env.run()
    link = LinkParams()
    hop = (link.payload_time_ns(1500) + link.propagation_ns + 2_000.0
           + link.payload_time_ns(1500) + link.propagation_ns)
    assert env.now == hop
    assert route.switch.metrics.value("switch.forwarded") == 8
    assert route.dst_nic.received == [frame]


def test_send_ack_credits_every_hop_and_lands_on_the_module():
    env = Environment()
    route = _route(env=env, peer=3)
    route.send_ack(41)
    metrics = route.switch.metrics
    assert metrics.value("src.nic0.tx_frames") == 1
    assert metrics.value("src.nic0.tx_bytes") == 80
    assert metrics.value("src.eth0.tx_accepted") == 1
    assert route.module.acks == []
    env.run()
    assert env.now == 30_000.0
    assert route.module.acks == [(3, 41)]
    for channel in (route.up, route.down):
        assert channel.counters["frames"] == 1
        assert channel.counters["bytes"] == 80
    assert metrics.value("switch.forwarded") == 1
    assert metrics.value("dst.nic0.rx_frames") == 1
    assert metrics.value("dst.nic0.rx_bytes") == 80


def test_hop_route_is_keyed_by_nic_and_mac():
    ctl = _controller()
    route = _register(ctl, _route())
    assert ctl.hop_route(route.src_nic, "dst") is route
    assert ctl.hop_route(route.src_nic, "elsewhere") is None
    assert ctl.hop_route(route.dst_nic, "dst") is None


def test_express_ack_requires_quiet_reverse_path():
    ctl = _controller()
    route = _register(ctl, _route())
    assert ctl.express_ack_route(0, 1, now=0.0) is route
    assert ctl.counters["acks_express"] == 1
    # Busy wire -> exact.
    ctl2 = _controller()
    _register(ctl2, _route(up=_Channel(idle=False)))
    assert ctl2.express_ack_route(0, 1, now=0.0) is None
    # Fault model not provably quiet -> exact.
    ctl3 = _controller()
    _register(ctl3, _route(up=_Channel(faults=_Faults(quiet=False))))
    assert ctl3.express_ack_route(0, 1, now=0.0) is None
    # Blackout inside the horizon -> exact.
    ctl4 = _controller()
    inside = _Window(HORIZON_NS / 2, HORIZON_NS / 2 + 100_000)
    _register(ctl4, _route(port=_Port(blackouts=(inside,))))
    assert ctl4.express_ack_route(0, 1, now=0.0) is None
    # Unknown route -> exact.
    assert ctl.express_ack_route(1, 0, now=0.0) is None
    assert ctl.counters["acks_exact"] == 1
    for c in (ctl2, ctl3, ctl4):
        assert c.counters["acks_exact"] == 1
