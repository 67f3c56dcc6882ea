"""Unit tests for the hybrid flow/packet eligibility oracle.

Everything the controller consults is duck-typed, so these tests drive
it with minimal stubs and check one boundary per test: each fallback
reason, the batch-size clamp, and the express-ack gate.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry
from repro.sim.flowmode import FlowModeController, FlowRoute


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


class _Port:
    def __init__(self, occupancy=0, blackouts=()):
        self.occupancy = occupancy
        self.blackouts = blackouts


class _Nic:
    def __init__(self, headroom=64, mac="nic"):
        self._headroom = headroom
        self.mac = mac
        self.received = []

    def rx_headroom(self):
        return self._headroom

    def receive_frame(self, frame):
        self.received.append(frame)


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


def _route(**kw):
    defaults = dict(up=_Channel(), down=_Channel(), port=_Port(),
                    src_nic=_Nic(mac="src"), dst_nic=_Nic(mac="dst"),
                    rx_budget=16, dst_coalescing=True)
    defaults.update(kw)
    return FlowRoute(**defaults)


def _controller(**kw):
    ctl = FlowModeController(**kw)
    return ctl


def _register(ctl, route):
    ctl.register_route(0, 1, route)
    return route


def plan(ctl, sender=None, remaining=32, now=0.0):
    return ctl.plan_train(0, 1, sender or _Sender(), remaining, now)


def test_controller_validates_parameters():
    with pytest.raises(ValueError):
        FlowModeController(min_train=1)
    with pytest.raises(ValueError):
        FlowModeController(min_train=8, max_train=4)
    with pytest.raises(ValueError):
        FlowModeController(horizon_ns=0)


def test_steady_state_train_is_granted_and_counted():
    ctl = _controller()
    _register(ctl, _route())
    k = plan(ctl)
    assert k == 16  # min(remaining=32, window_free=64, max_train=16, budget=16)
    assert ctl.counters["trains"] == 1
    assert ctl.counters["frames_batched"] == 16


def test_window_edge_fallbacks():
    ctl = _controller()
    _register(ctl, _route())
    assert plan(ctl, remaining=3) == 0  # fewer fragments than min_train
    assert plan(ctl, sender=_Sender(window=64, in_flight=62)) == 0
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


def test_fault_window_inside_horizon_forces_exact():
    ctl = _controller(horizon_ns=1_000_000.0)
    _register(ctl, _route(down=_Channel(faults=_Faults(quiet=False))))
    assert plan(ctl) == 0
    assert ctl.counters["fallback_faults"] == 1


def test_switch_contention_fallbacks():
    ctl = _controller()
    _register(ctl, _route(port=_Port(occupancy=2)))
    assert plan(ctl) == 0
    ctl2 = _controller(horizon_ns=1_000_000.0)
    _register(ctl2, _route(port=_Port(blackouts=(_Window(500_000, 600_000),))))
    assert plan(ctl2, now=0.0) == 0
    assert ctl.counters["fallback_switch_contention"] == 1
    assert ctl2.counters["fallback_switch_contention"] == 1
    # ... but a blackout entirely beyond the horizon does not block.
    ctl3 = _controller(horizon_ns=1_000_000.0)
    _register(ctl3, _route(port=_Port(blackouts=(_Window(2_000_000, 3_000_000),))))
    assert plan(ctl3, now=0.0) > 0


def test_receiver_side_fallbacks():
    ctl = _controller()
    _register(ctl, _route(dst_coalescing=False))
    assert plan(ctl) == 0
    assert ctl.counters["fallback_coalescing_off"] == 1

    ctl2 = _controller()
    route = _register(ctl2, _route())
    route.stash_depth = lambda: 3
    assert plan(ctl2) == 0
    assert ctl2.counters["fallback_reorder_stash"] == 1

    ctl3 = _controller()
    _register(ctl3, _route(dst_nic=_Nic(headroom=2)))
    assert plan(ctl3) == 0
    assert ctl3.counters["fallback_rx_ring"] == 1


def test_train_size_clamps():
    ctl = _controller(min_train=4, max_train=16)
    _register(ctl, _route(rx_budget=8))
    assert plan(ctl, remaining=100) == 8  # rx budget clamps
    ctl2 = _controller(min_train=4, max_train=16)
    _register(ctl2, _route(dst_nic=_Nic(headroom=5)))
    assert plan(ctl2, remaining=100) == 5  # ring headroom clamps
    ctl3 = _controller(min_train=4, max_train=16)
    _register(ctl3, _route())
    assert plan(ctl3, remaining=100,
                sender=_Sender(window=64, in_flight=57)) == 7  # window clamps


def test_hop_clear_requires_idle_path():
    assert _route().hop_clear()
    assert not _route(up=_Channel(idle=False)).hop_clear()
    assert not _route(down=_Channel(idle=False)).hop_clear()
    assert not _route(port=_Port(occupancy=1)).hop_clear()


def test_complete_hop_balances_conservation_counters():
    switch = SimpleNamespace(name="switch", metrics=MetricsRegistry())
    route = _route(switch=switch)
    frame = _Frame(train_frames=8, payload_bytes=8 * 1500)
    route.complete_hop(frame)
    for channel in (route.up, route.down):
        assert channel.counters["frames_offered"] == 8
        assert channel.counters["frames"] == 8
        assert channel.counters["bytes"] == 8 * 1500
    assert switch.metrics.value("switch.forwarded") == 8
    assert route.dst_nic.received == [frame]


def test_hop_route_is_keyed_by_nic_and_mac():
    ctl = _controller()
    route = _register(ctl, _route())
    assert ctl.hop_route(route.src_nic, "dst") is route
    assert ctl.hop_route(route.src_nic, "elsewhere") is None
    assert ctl.hop_route(route.dst_nic, "dst") is None


def test_express_ack_requires_quiet_reverse_path():
    ctl = _controller()
    route = _register(ctl, _route())
    route.deliver_ack = lambda cum: None
    assert ctl.express_ack_route(0, 1, now=0.0) is route
    assert ctl.counters["acks_express"] == 1
    # No deliver_ack wired -> exact.
    ctl2 = _controller()
    _register(ctl2, _route())
    assert ctl2.express_ack_route(0, 1, now=0.0) is None
    # Busy wire -> exact.
    ctl3 = _controller()
    r3 = _register(ctl3, _route(up=_Channel(idle=False)))
    r3.deliver_ack = lambda cum: None
    assert ctl3.express_ack_route(0, 1, now=0.0) is None
    # Fault model not provably quiet -> exact.
    ctl4 = _controller()
    r4 = _register(ctl4, _route(up=_Channel(faults=_Faults(quiet=False))))
    r4.deliver_ack = lambda cum: None
    assert ctl4.express_ack_route(0, 1, now=0.0) is None
    # Unknown route -> exact.
    assert ctl.express_ack_route(1, 0, now=0.0) is None
    for c in (ctl2, ctl3, ctl4):
        assert c.counters["acks_exact"] == 1
