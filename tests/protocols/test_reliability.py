"""Unit + property tests for the sliding-window reliability machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.reliability import DeliveryFailed, OrderedReceiver, WindowedSender
from repro.sim import Environment


def make_sender(env, window=4, timeout=1000, retries=3, sink=None):
    retransmitted = [] if sink is None else sink
    sender = WindowedSender(
        env,
        window=window,
        retransmit_timeout_ns=timeout,
        max_retries=retries,
        retransmit=lambda pkts, kind: retransmitted.extend(pkts),
    )
    return sender, retransmitted


def test_sender_assigns_sequential_seqs():
    env = Environment()
    sender, _ = make_sender(env)
    assert sender.register("a") == 0
    assert sender.register("b") == 1
    assert sender.in_flight == 2


def test_sender_window_blocks_and_ack_releases():
    env = Environment()
    sender, _ = make_sender(env, window=2, timeout=1e9)
    log = []

    def producer(env):
        for i in range(4):
            yield from sender.reserve()
            sender.register(i)
            log.append((i, env.now))

    def acker(env):
        yield env.timeout(100)
        sender.on_ack(2)

    env.process(producer(env))
    env.process(acker(env))
    env.run()
    assert [t for _, t in log] == [0, 0, 100, 100]


def test_register_without_space_is_error():
    env = Environment()
    sender, _ = make_sender(env, window=1, timeout=1e9)
    sender.register("x")
    with pytest.raises(RuntimeError):
        sender.register("y")


def test_timeout_retransmits_all_in_flight():
    env = Environment()
    sender, retx = make_sender(env, window=8, timeout=500, retries=5)
    sender.register("a")
    sender.register("b")
    env.run(until=600)
    assert retx == ["a", "b"]


def test_ack_cancels_timer():
    env = Environment()
    sender, retx = make_sender(env, window=8, timeout=500)
    sender.register("a")
    sender.on_ack(1)
    env.run(until=2000)
    assert retx == []
    assert sender.in_flight == 0


def test_retry_exhaustion_raises_in_waiters():
    env = Environment()
    sender, _ = make_sender(env, window=1, timeout=100, retries=2)
    sender.register("doomed")

    def producer(env):
        try:
            yield from sender.reserve()
        except DeliveryFailed:
            return "failed"
        return "ok"

    p = env.process(producer(env))
    assert env.run(p) == "failed"


def test_drain_waits_for_all_acks():
    env = Environment()
    sender, _ = make_sender(env, window=8, timeout=1e9)
    sender.register("a")
    sender.register("b")
    log = []

    def drainer(env):
        yield from sender.drain()
        log.append(env.now)

    def acker(env):
        yield env.timeout(50)
        sender.on_ack(1)
        yield env.timeout(50)
        sender.on_ack(2)

    env.process(drainer(env))
    env.process(acker(env))
    env.run()
    assert log == [100]


def test_duplicate_acks_ignored():
    env = Environment()
    sender, _ = make_sender(env, window=4, timeout=1e9)
    sender.register("a")
    sender.on_ack(1)
    sender.on_ack(1)
    assert sender.metrics.value("duplicate_acks") == 1


def test_invalid_window_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        WindowedSender(env, window=0, retransmit_timeout_ns=1, max_retries=1, retransmit=lambda p, kind: None)


def make_receiver(env, ack_every=2, stash=4):
    delivered, acks = [], []
    receiver = OrderedReceiver(
        env,
        deliver=delivered.append,
        send_ack=acks.append,
        ack_every=ack_every,
        ack_delay_ns=1e9,  # effectively off unless tested
        stash_limit=stash,
    )
    return receiver, delivered, acks


def test_receiver_in_order_delivery():
    env = Environment()
    receiver, delivered, acks = make_receiver(env)
    receiver.on_packet(0, "a")
    receiver.on_packet(1, "b")
    assert delivered == ["a", "b"]
    assert acks == [2]  # cumulative after ack_every=2


def test_receiver_stashes_out_of_order():
    env = Environment()
    receiver, delivered, acks = make_receiver(env, ack_every=10)
    receiver.on_packet(2, "c")
    receiver.on_packet(1, "b")
    assert delivered == []
    receiver.on_packet(0, "a")
    assert delivered == ["a", "b", "c"]
    assert receiver.expected == 3


def test_receiver_duplicate_reacks():
    env = Environment()
    receiver, delivered, acks = make_receiver(env, ack_every=1)
    receiver.on_packet(0, "a")
    receiver.on_packet(0, "a")  # retransmission
    assert delivered == ["a"]
    assert acks == [1, 1]
    assert receiver.metrics.value("duplicates") == 1


def test_receiver_stash_overflow_drops():
    env = Environment()
    receiver, delivered, acks = make_receiver(env, stash=2)
    for seq in (5, 6, 7, 8):
        receiver.on_packet(seq, seq)
    assert receiver.metrics.value("stash_overflow_drops") == 2
    assert delivered == []


def test_receiver_delayed_ack_fires():
    env = Environment()
    delivered, acks = [], []
    receiver = OrderedReceiver(
        env, deliver=delivered.append, send_ack=acks.append,
        ack_every=10, ack_delay_ns=500,
    )
    receiver.on_packet(0, "a")
    assert acks == []
    env.run(until=1000)
    assert acks == [1]


def test_receiver_invalid_ack_every():
    env = Environment()
    with pytest.raises(ValueError):
        OrderedReceiver(env, deliver=lambda p: None, send_ack=lambda c: None, ack_every=0)


# -- property-based: any arrival pattern yields exactly-once in-order delivery
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    shuffles=st.data(),
)
def test_property_exactly_once_in_order_under_reorder_and_dup(n, shuffles):
    """Feed packets 0..n-1 in any order, with duplicates, within the stash
    window: delivery must be exactly-once, in order."""
    env = Environment()
    delivered, acks = [], []
    receiver = OrderedReceiver(
        env, deliver=delivered.append, send_ack=acks.append,
        ack_every=3, ack_delay_ns=1e9, stash_limit=n + 1,
    )
    pending = list(range(n))
    sent = []
    while pending:
        # Pick among the first few undelivered (bounded reorder) or a dup.
        window = pending[: min(4, len(pending))]
        choice = shuffles.draw(st.sampled_from(window + (sent[-2:] if sent else [])))
        if choice in pending:
            pending.remove(choice)
            sent.append(choice)
        receiver.on_packet(choice, choice)
    assert delivered == sorted(delivered)
    assert delivered == list(range(n))


@settings(max_examples=100, deadline=None)
@given(acks=st.lists(st.integers(min_value=0, max_value=50), max_size=20))
def test_property_sender_base_monotonic(acks):
    """Whatever cumulative acks arrive (dups, stale), base never regresses
    and never exceeds next_seq."""
    env = Environment()
    sender, _ = make_sender(env, window=64, timeout=1e12)
    for _ in range(32):
        sender.register("p")
    base_history = [sender.base]
    for a in acks:
        sender.on_ack(min(a, sender.next_seq))
        base_history.append(sender.base)
    assert base_history == sorted(base_history)
    assert sender.base <= sender.next_seq


# -- adaptive RTO (Jacobson/Karels + Karn + backoff) --------------------------
def test_rto_estimator_initial_used_verbatim():
    from repro.protocols.reliability import RtoEstimator

    rto = RtoEstimator(initial_ns=1_000.0, min_ns=5_000.0, max_ns=1e9)
    # Fast-fail configs rely on the configured initial timeout NOT being
    # clamped up to the floor before any sample arrives.
    assert rto.current_ns() == 1_000.0


def test_rto_estimator_first_sample_seeds_srtt():
    from repro.protocols.reliability import RtoEstimator

    rto = RtoEstimator(initial_ns=50e6, min_ns=1_000.0, max_ns=1e12)
    rto.sample(10_000.0)
    assert rto.srtt == 10_000.0
    assert rto.rttvar == 5_000.0
    assert rto.current_ns() == pytest.approx(10_000.0 + 4 * 5_000.0)


def test_rto_estimator_backoff_doubles_and_sample_resets():
    from repro.protocols.reliability import RtoEstimator

    rto = RtoEstimator(initial_ns=1e6, min_ns=1_000.0, max_ns=1e12)
    rto.sample(10_000.0)
    base = rto.current_ns()
    rto.on_timeout()
    rto.on_timeout()
    assert rto.current_ns() == pytest.approx(base * 4)
    rto.sample(10_000.0)  # unambiguous sample ends the backoff episode
    assert rto.backoff == 1.0


def test_rto_estimator_clamped_to_bounds():
    from repro.protocols.reliability import RtoEstimator

    rto = RtoEstimator(initial_ns=1e6, min_ns=5e6, max_ns=10e6)
    rto.sample(10.0)  # tiny RTT -> clamped up to min
    assert rto.current_ns() == 5e6
    for _ in range(10):
        rto.on_timeout()
    assert rto.current_ns() == 10e6  # backoff capped at max
    with pytest.raises(ValueError):
        rto.sample(-1.0)
    with pytest.raises(ValueError):
        RtoEstimator(initial_ns=0, min_ns=1, max_ns=2)
    with pytest.raises(ValueError):
        RtoEstimator(initial_ns=1, min_ns=5, max_ns=2)


def test_sender_timer_uses_adaptive_rto():
    from repro.protocols.reliability import RtoEstimator

    env = Environment()
    retx = []
    rto = RtoEstimator(initial_ns=500.0, min_ns=100.0, max_ns=1e9)
    sender = WindowedSender(
        env, window=4, retransmit_timeout_ns=999_999.0, max_retries=50,
        retransmit=lambda pkts, kind: retx.extend(pkts), rto=rto,
    )
    sender.register("a")
    env.run(until=600)  # initial 500 ns from the estimator, not 999999
    assert retx == ["a"]
    assert rto.backoff == 2.0


def test_karn_rule_no_sample_from_retransmitted():
    from repro.protocols.reliability import RtoEstimator

    env = Environment()
    rto = RtoEstimator(initial_ns=500.0, min_ns=100.0, max_ns=1e9)
    sender = WindowedSender(
        env, window=4, retransmit_timeout_ns=500.0, max_retries=50,
        retransmit=lambda pkts, kind: None, rto=rto,
    )
    sender.register("a")
    env.run(until=600)  # RTO fires: "a" is now retransmitted/ambiguous

    def acker(env):
        yield env.timeout(100)
        sender.on_ack(1)

    env.process(acker(env))
    env.run(until=800)
    assert rto.samples == 0  # Karn: the ambiguous RTT was never sampled
    assert sender.in_flight == 0


def test_acked_through_is_a_gauge_level():
    env = Environment()
    sender, _ = make_sender(env, window=8, timeout=1e9)
    for _ in range(6):
        sender.register("p")
    sender.on_ack(2)
    assert sender.metrics.value("acked_through") == 2
    sender.on_ack(5)
    assert sender.metrics.value("acked_through") == 5
    # A stale/duplicate ack must not drag the level backwards.
    sender.on_ack(3)
    assert sender.metrics.value("acked_through") == 5


# -- fast retransmit: once per window of data (RFC 6582 recovery point) -------
def test_fast_retransmit_fires_once_per_window():
    env = Environment()
    retx = []
    sender, _ = make_sender(env, window=8, timeout=1e9, sink=retx)
    sender.dupack_threshold = 3
    for _ in range(4):
        sender.register("p")
    for _ in range(3):
        sender.on_ack(0)  # three dupacks -> fast retransmit
    assert sender.metrics.value("fast_retransmits") == 1
    # More dupacks for the same base are echoes of our own resend (or of
    # duplicated frames on the wire): re-triggering would hand a duplicate
    # storm a positive feedback loop, so recovery waits for the RTO.
    for _ in range(6):
        sender.on_ack(0)
    assert sender.metrics.value("fast_retransmits") == 1
    assert len(retx) == 1


def test_fast_retransmit_rearms_after_recovery_completes():
    env = Environment()
    retx = []
    sender, _ = make_sender(env, window=8, timeout=1e9, sink=retx)
    sender.dupack_threshold = 3
    for _ in range(4):
        sender.register("p")
    for _ in range(3):
        sender.on_ack(0)  # recovery point = highest outstanding seq (3)
    assert sender.metrics.value("fast_retransmits") == 1
    sender.on_ack(4)  # cumulative ack passes the recovery point
    for _ in range(2):
        sender.register("p")
    for _ in range(3):
        sender.on_ack(4)  # a stall in the NEW window may trigger again
    assert sender.metrics.value("fast_retransmits") == 2
    assert len(retx) == 2


def test_fast_retransmit_counts_reset_after_progress():
    env = Environment()
    retx = []
    sender, _ = make_sender(env, window=8, timeout=1e9, sink=retx)
    sender.dupack_threshold = 3
    for _ in range(4):
        sender.register("p")
    sender.on_ack(0)
    sender.on_ack(0)
    sender.on_ack(2)  # progress resets the dupack count
    sender.on_ack(2)
    sender.on_ack(2)
    assert sender.metrics.value("fast_retransmits") == 0
    sender.on_ack(2)
    assert sender.metrics.value("fast_retransmits") == 1


def test_retry_exhaustion_fails_waiters_and_rejects_future_sends():
    env = Environment()
    sender, _ = make_sender(env, window=1, timeout=100, retries=1)
    sender.register("stuck")
    outcomes = []

    def producer(env):
        try:
            yield from sender.reserve()
        except DeliveryFailed:
            outcomes.append("failed")

    env.process(producer(env))
    env.run(until=10)
    reasons = []
    sender.fail_listener = reasons.append
    # one retry at t=100, the budget is spent when the RTO fires again
    env.run(until=1000)
    assert outcomes == ["failed"]
    assert reasons == ["no ack after 1 retries (base=0, in flight=1)"]
    assert sender.failed
    with pytest.raises(DeliveryFailed):
        sender.register("more")


# -- stale acks vs duplicate acks ---------------------------------------------
def test_stale_ack_counted_separately_from_dupacks():
    env = Environment()
    sender, _ = make_sender(env, window=8, timeout=1e9)
    for _ in range(6):
        sender.register("p")
    sender.on_ack(3)
    sender.on_ack(1)  # late/reordered ack from the past
    assert sender.metrics.value("stale_acks") == 1
    assert sender.metrics.value("duplicate_acks") == 0


def test_stale_acks_never_trigger_fast_retransmit():
    """Jittered wires deliver old acks late; they carry no evidence about
    the current window and must not fire spurious fast retransmits."""
    env = Environment()
    retx = []
    sender, _ = make_sender(env, window=8, timeout=1e9, sink=retx)
    sender.dupack_threshold = 3
    for _ in range(6):
        sender.register("p")
    sender.on_ack(4)
    for _ in range(5):
        sender.on_ack(2)  # all stale
    assert sender.metrics.value("fast_retransmits") == 0
    assert retx == []
    assert sender.metrics.value("stale_acks") == 5


def test_window_waiters_wake_in_fifo_order():
    env = Environment()
    sender, _ = make_sender(env, window=1, timeout=1e9)
    sender.register("head")
    order = []

    def producer(env, n):
        yield from sender.reserve()
        sender.register(n)
        order.append(n)

    for n in range(5):
        env.process(producer(env, n))

    def acker(env):
        for ack in range(1, 7):
            yield env.timeout(10)
            sender.on_ack(ack)

    env.process(acker(env))
    env.run()
    assert order == [0, 1, 2, 3, 4]


# -- out-of-order stash accounting --------------------------------------------
def test_duplicate_of_stashed_packet_counts_as_duplicate():
    env = Environment()
    receiver, delivered, acks = make_receiver(env, ack_every=10)
    receiver.on_packet(2, "c")
    receiver.on_packet(2, "c")  # wire duplication of a stashed frame
    assert receiver.metrics.value("stashed") == 1
    assert receiver.metrics.value("duplicates") == 1
    assert delivered == []


def test_max_stash_high_water_mark():
    env = Environment()
    receiver, delivered, acks = make_receiver(env, ack_every=10, stash=8)
    for seq in (3, 1, 2):
        receiver.on_packet(seq, seq)
    assert receiver.max_stash == 3
    assert receiver.metrics.value("max_stash") == 3
    receiver.on_packet(0, 0)  # drains the stash completely
    assert delivered == [0, 1, 2, 3]
    assert receiver.max_stash == 3  # high-water mark survives the drain
