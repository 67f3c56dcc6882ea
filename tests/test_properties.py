"""Property-based tests (hypothesis) on core data structures & invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkParams, NicParams
from repro.hw.nic.frames import EtherType, Frame, MacAddress, frame_time_ns, wire_bytes
from repro.hw.nic.interrupts import InterruptCoalescer
from repro.sim import Environment, Store

LINK = LinkParams()


# ---------------------------------------------------------------------------
# Ethernet framing
# ---------------------------------------------------------------------------
@given(nbytes=st.integers(min_value=0, max_value=9000))
def test_property_wire_bytes_bounds(nbytes):
    """Wire size is always >= the minimum frame + preamble + IFG and
    grows monotonically with payload."""
    f = Frame(src=MacAddress(1), dst=MacAddress(2), ethertype=EtherType.CLIC, payload_bytes=nbytes)
    wb = wire_bytes(f, LINK)
    assert wb >= LINK.preamble_bytes + LINK.min_frame_bytes + LINK.ifg_bytes
    assert wb >= nbytes  # overhead never negative
    if nbytes >= LINK.min_frame_bytes:
        f2 = Frame(src=MacAddress(1), dst=MacAddress(2), ethertype=0, payload_bytes=nbytes + 1)
        assert wire_bytes(f2, LINK) == wb + 1


@given(nbytes=st.integers(min_value=0, max_value=9000))
def test_property_frame_time_is_wire_bits_at_gigabit(nbytes):
    f = Frame(src=MacAddress(1), dst=MacAddress(2), ethertype=0, payload_bytes=nbytes)
    assert frame_time_ns(f, LINK) == pytest.approx(wire_bytes(f, LINK) * 8)


# ---------------------------------------------------------------------------
# Store FIFO
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(items=st.lists(st.integers(), max_size=30))
def test_property_store_preserves_fifo(items):
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            got.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == items


@settings(max_examples=50, deadline=None)
@given(
    items=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=5),
)
def test_property_bounded_store_never_overfills(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    max_seen = [0]

    def producer(env):
        for item in items:
            yield store.put(item)
            max_seen[0] = max(max_seen[0], len(store.items))

    def consumer(env):
        for _ in items:
            yield env.timeout(1)
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert max_seen[0] <= capacity


# ---------------------------------------------------------------------------
# Interrupt coalescer
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=50_000), min_size=1, max_size=40),
    threshold=st.integers(min_value=1, max_value=10),
)
def test_property_coalescer_no_frame_left_behind(gaps, threshold):
    """For any arrival pattern: every noted frame is eventually covered
    by an interrupt, and interrupts never exceed frames."""
    env = Environment()
    params = NicParams(coalesce_frames=threshold, coalesce_timeout_ns=10_000)
    fired = []

    coal = InterruptCoalescer(env, params, lambda: fired.append(env.now))
    serviced = [0]
    noted = [0]

    def servicer():
        # Emulate a driver that drains everything pending at IRQ time.
        def drain(env):
            yield env.timeout(100)
            serviced[0] = noted[0]
            coal.service_done(0)

        env.process(drain(env))

    coal.fire_cb = lambda: (fired.append(env.now), servicer())

    def arrivals(env):
        for gap in gaps:
            yield env.timeout(gap)
            noted[0] += 1
            coal.note_frame()

    env.process(arrivals(env))
    env.run()
    assert serviced[0] == len(gaps)  # nothing stranded
    assert len(fired) <= 2 * len(gaps)  # sanity: no interrupt storm


# ---------------------------------------------------------------------------
# Sweep-size grid
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=4),
    span=st.integers(min_value=0, max_value=4),
    ppd=st.integers(min_value=1, max_value=6),
)
def test_property_netpipe_sizes_sorted_unique_and_bounded(lo, span, ppd):
    from repro.workloads import netpipe_sizes

    sizes = netpipe_sizes(lo, lo + span, points_per_decade=ppd)
    assert sizes == sorted(set(sizes))
    assert sizes[0] == 10**lo
    assert sizes[-1] == 10 ** (lo + span)
