"""A run of packets crosses the reliability channel in one call exactly
as one call per packet does.

:meth:`WindowedSender.register_run` must do what ``register`` does for
each packet, and :meth:`OrderedReceiver.on_run` what ``on_packet`` does
for each (consecutive) packet, apart from the dead queue entries the
per-packet delayed-ack re-arms leave behind.  Random cases drive two
channel pairs side by side from the same prior state, one through the
run calls and one packet by packet, and compare everything observable:
the delivery order, the acks sent (value and time), the retransmissions,
sender and receiver state, the tallies, the probe's event log, the live
queue entries and, after draining the queue, what the timers did.

The sender keeps a run as one record and an in-order run reaches the
owner in one ``deliver_run`` call, so the sender's window is compared
as ``{seq: (packet, sent_at)}`` flattened from its runs, and the
deliveries and the other owner callbacks are compared as two separate
ordered logs (a run is delivered before the acks it triggers).  The run
side passes a sequence that counts element reads: the in-order path
must read none, with or without a probe.
"""

import random
from operator import attrgetter

import pytest

from tests.sim.reference_resources import pending

from repro.cluster.cluster import _reset_global_ids
from repro.obs import MetricsRegistry
from repro.protocols.headers import ClicAck, ClicPacket, ClicPacketType, ClicTrain
from repro.protocols.reliability import (ChannelProbe, DeliveryFailed, OrderedReceiver,
                                         RtoEstimator, WindowedSender, install_channel_probe)
from repro.sim import Environment


class _Counted:
    """A run that counts how often an element is read."""

    def __init__(self, items):
        self.items = list(items)
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __iter__(self):
        for item in self.items:
            self.reads += 1
            yield item


def _elements(run):
    """A run's packets, read without counting."""
    return run.items if isinstance(run, _Counted) else list(run)


def _window(sender):
    """The sender's in-flight packets as ``{seq: (packet, sent_at)}``."""
    window = {}
    for first, run, sent_at in sender._runs:
        for seq, packet in enumerate(_elements(run), first):
            if seq >= sender.base:
                window[seq] = (packet, sent_at)
    return window


class _Log(ChannelProbe):
    """Every probe hook as a plain tuple, in firing order."""

    def __init__(self):
        self.events = []

    def on_register(self, sender, seq):
        self.events.append(("register", seq, sender.in_flight))

    def on_ack_applied(self, sender, base_before, cum):
        self.events.append(("ack", base_before, cum))

    def on_rtt_sample(self, sender, seq, rtt_ns):
        self.events.append(("rtt", seq, rtt_ns))

    def on_retransmit(self, sender, seqs, kind):
        self.events.append(("retx", kind, list(seqs)))

    def on_timeout(self, sender, rto_before_ns, rto_after_ns):
        self.events.append(("timeout", rto_before_ns, rto_after_ns))

    def on_fail(self, sender, reason):
        self.events.append(("fail", reason))

    def on_deliver(self, receiver, seq):
        self.events.append(("deliver", seq))

    def on_ack_emitted(self, receiver, cum):
        self.events.append(("ack_emitted", cum))


class _Pair:
    """A sender and a receiver channel on one environment, logging what
    they hand to their owner."""

    def __init__(self, case, probe):
        self.env = env = Environment()
        self.metrics = MetricsRegistry()
        self.log = []
        self.delivered = []  # (time, run) in delivery order
        previous = install_channel_probe(probe)
        try:
            self.sender = WindowedSender(
                env, window=case["window"], retransmit_timeout_ns=case["rto_ns"],
                max_retries=100, retransmit=lambda pkts, kind: self.log.append(
                    ("retx", env.now, kind, list(pkts))),
                metrics=self.metrics, prefix="tx.")
            self.receiver = OrderedReceiver(
                env, deliver=lambda pkt: self.delivered.append((env.now, (pkt,))),
                deliver_run=lambda run: self.delivered.append((env.now, run)),
                send_ack=lambda cum: self.log.append(("send_ack", env.now, cum)),
                ack_every=case["ack_every"], ack_delay_ns=case["ack_delay_ns"],
                stash_limit=case["stash_limit"], metrics=self.metrics, prefix="rx.")
        finally:
            install_channel_probe(previous)

    def state(self):
        s, r = self.sender, self.receiver
        return {
            "now": self.env.now,
            "sender": (s.next_seq, s.base, _window(s), sorted(s._retx_seqs),
                       s._retries, s.failed, s._timer is not None and s._timer.active),
            "receiver": (r.expected, dict(r._stash), r._unacked, r.max_stash,
                         r._ack_timer is not None and r._ack_timer.active),
            "counters": self.metrics.snapshot(),
            "delivered": [(t, pkt) for t, run in self.delivered for pkt in _elements(run)],
            "log": list(self.log),
            "live": pending(self.env, live=True),
        }


def _case(seed):
    """A random prior state and run, as plain data."""
    rng = random.Random(seed)
    ack_every = rng.choice((1, 2, 8, 16))
    prior_rx = rng.randrange(0, 40)
    prior_tx = rng.randrange(0, 6)
    n = rng.randrange(2, rng.choice((9, 17, 65)))  # often under an ack_every of 16
    case = {
        "ack_every": ack_every,
        "ack_delay_ns": rng.choice((0.0, 500.0, 50_000.0)),
        "rto_ns": rng.choice((1_000.0, 100_000.0)),
        "stash_limit": rng.choice((4, 64)),
        "prior_tx": prior_tx,
        "prior_acked": rng.randrange(0, prior_tx + 1),
        "prior_rx": prior_rx,
        # time passing before the run: none, less than the ack delay, or
        # enough for the delayed ack (and perhaps the RTO) to fire
        "wait_ns": rng.choice((0.0, 0.0, 200.0, 60_000.0)),
        "stashed": rng.sample(range(1, 80), rng.choice((0, 0, 0, 1, 3))),
        "where": rng.choice(("at", "at", "at", "behind", "ahead")),
        "offset": rng.randrange(1, 70),
        "probe": rng.random() < 0.5,
    }
    if rng.random() < 0.4:
        # end the run exactly on an ack: after the prior deliveries,
        # ``_unacked`` is ``prior_rx % ack_every`` unless time passed
        n = max(2, n - (prior_rx + n) % ack_every)
    case["n"] = n
    case["window"] = prior_tx + n + rng.randrange(0, 4)
    return case


def _prepare(case, probe):
    pair = _Pair(case, probe)
    sender, receiver = pair.sender, pair.receiver
    for i in range(case["prior_tx"]):
        sender.register(("old", i))
    if case["prior_acked"]:
        sender.on_ack(case["prior_acked"])
    for seq in range(case["prior_rx"]):
        receiver.on_packet(seq, ("old", seq))
    for ahead in case["stashed"]:
        receiver.on_packet(receiver.expected + ahead, ("stashed", ahead))
    if case["wait_ns"]:
        pair.env.run(until=pair.env.now + case["wait_ns"])
    if case["where"] == "at":
        first = receiver.expected
    elif case["where"] == "behind":
        first = max(0, receiver.expected - case["offset"])
    else:
        first = receiver.expected + case["offset"]
    packets = [("run", first + i) for i in range(case["n"])]
    return pair, first, packets


def _replay(case, runs):
    probe = _Log() if case["probe"] else None
    pair, first, packets = _prepare(case, probe)
    in_order = first == pair.receiver.expected and not pair.receiver._stash
    reads = None
    if runs:
        run = _Counted(packets)
        registered = pair.sender.register_run(run)
        pair.receiver.on_run(first, run)
        reads = run.reads
        # the in-order path hands the run up whole and reads no element
        assert not in_order or reads == 0, reads
    else:
        registered = [pair.sender.register(pkt) for pkt in packets][0]
        for i, pkt in enumerate(packets):
            pair.receiver.on_packet(first + i, pkt)
    after_run = pair.state()
    pair.env.run()
    return (registered, after_run, pair.state(), probe.events if probe else None), reads


def _check(seed):
    case = _case(seed)
    expected, _ = _replay(case, runs=False)
    got, _ = _replay(case, runs=True)
    assert got == expected, (seed, case)


@pytest.mark.parametrize("seed", range(300))
def test_run_calls_match_per_packet_calls(seed):
    """``register_run`` + ``on_run`` leave what ``k`` calls of
    ``register`` + ``on_packet`` leave: deliveries, acks, state,
    tallies, probe log and live queue entries, before and after the
    timers fire."""
    _check(seed)


@pytest.mark.slow
def test_run_calls_match_per_packet_calls_long():
    """The same differential over 3,000 further cases."""
    for seed in range(300, 3300):
        _check(seed)


def _sender_ops(seed):
    """Random registrations, cumulative acks (stale, duplicate, partial
    or whole) and waits that let the RTO fire, as plain data."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randrange(5, 40)):
        r = rng.random()
        if r < 0.35:
            ops.append(("run", rng.randrange(1, 10)))
        elif r < 0.85:
            ops.append(("ack", rng.randrange(-2, 12)))  # relative to the base
        else:
            ops.append(("wait", rng.choice((300.0, 1_500.0, 6_000.0))))
    return ops


def _drive_sender(ops, runs):
    env = Environment()
    retx, states, probe = [], [], _Log()
    previous = install_channel_probe(probe)
    try:
        sender = WindowedSender(
            env, window=24, retransmit_timeout_ns=1_000.0, max_retries=50,
            retransmit=lambda pkts, kind: retx.append((env.now, kind, list(pkts))),
            rto=RtoEstimator(initial_ns=1_000.0, min_ns=200.0, max_ns=1e6))
    finally:
        install_channel_probe(previous)
    sender.dupack_threshold = 2
    sent = 0
    for op, arg in ops:
        if op == "run":
            k = min(arg, sender.window - sender.in_flight)
            packets = [("pkt", sent + i) for i in range(k)]
            sent += k
            if runs and k:
                sender.register_run(_Counted(packets))
            else:
                for packet in packets:
                    sender.register(packet)
        elif op == "ack":
            sender.on_ack(max(0, min(sender.next_seq, sender.base + arg)))
        else:
            env.run(until=env.now + arg)
        states.append((env.now, sender.next_seq, sender.base, _window(sender),
                       sorted(sender._retx_seqs), sender.in_flight,
                       sender.current_timeout_ns(), dict(sender.counters)))
    return retx, states, probe.events


def _karn_samples_hold(events):
    """Each advancing ack samples the RTT of the newest seq it acks that
    was never retransmitted, and no ack samples when there is none."""
    registered, resent, sampled = 0, set(), None
    for event in events:
        if event[0] == "register":
            registered = event[1] + 1
        elif event[0] == "retx":
            resent.update(event[2])
        elif event[0] == "rtt":
            sampled = event[1]
        elif event[0] == "ack":
            clean = [seq for seq in range(event[1], min(event[2], registered))
                     if seq not in resent]
            assert sampled == (clean[-1] if clean else None), (event, sampled)
            sampled = None


@pytest.mark.parametrize("seed", range(100))
def test_sender_runs_match_runs_of_one(seed):
    """Registering runs of ``k`` leaves what ``k`` registrations leave
    through every ack the sender can get: stale, duplicate (fast
    retransmit), partial (a run split at the new base, partial-ack
    retransmit) and whole, and through RTO retransmissions: the same
    retransmitted packets, RTT samples (Karn's rule, checked against
    the log), window and tallies."""
    ops = _sender_ops(seed)
    got = _drive_sender(ops, runs=True)
    assert got == _drive_sender(ops, runs=False), ops
    _karn_samples_hold(got[2])


def test_in_order_run_arms_the_delayed_ack_once():
    """An in-order run below the ack threshold queues one delayed-ack
    entry where per-packet calls queue one per packet (all but the last
    dead)."""
    def entries(runs):
        case = {"window": 64, "rto_ns": 1e9, "ack_every": 64, "ack_delay_ns": 500.0,
                "stash_limit": 4}
        pair = _Pair(case, None)
        packets = list(range(16))
        if runs:
            pair.receiver.on_run(0, packets)
        else:
            for seq, pkt in enumerate(packets):
                pair.receiver.on_packet(seq, pkt)
        return pending(pair.env), pending(pair.env, live=True)

    assert entries(runs=True) == ([(500.0, 1)], [(500.0, 1)])
    assert entries(runs=False) == ([(500.0, 1)] * 16, [(500.0, 1)])


def test_in_order_run_reads_no_element_and_probes_per_seq():
    """An in-order run crossing both ends reads none of its elements,
    with or without a probe; the probe's per-seq log (deliveries and
    acks in firing order) is the per-packet calls' log."""
    case = {"window": 64, "rto_ns": 1e9, "ack_every": 4, "ack_delay_ns": 500.0,
            "stash_limit": 4, "prior_tx": 0, "prior_acked": 0, "prior_rx": 3,
            "wait_ns": 0.0, "stashed": [], "where": "at", "offset": 1, "n": 11}
    for probe in (False, True):
        case["probe"] = probe
        expected, _ = _replay(case, runs=False)
        got, reads = _replay(case, runs=True)
        assert reads == 0
        assert got == expected
    assert [e for e in got[3] if e[0] in ("deliver", "ack_emitted")] == (
        [("deliver", s) for s in range(4)] + [("ack_emitted", 4)]
        + [("deliver", s) for s in range(4, 8)] + [("ack_emitted", 8)]
        + [("deliver", s) for s in range(8, 12)] + [("ack_emitted", 12)]
        + [("deliver", 12), ("deliver", 13), ("ack_emitted", 14)])


def _eager(head, k):
    """Fragments ``1 .. k - 1`` of ``head``'s train as eager building
    gives them (one ``ClicPacket`` each, drawing consecutive packet
    ids)."""
    return [ClicPacket(ptype=head.ptype, src_node=head.src_node, dst_node=head.dst_node,
                       port=head.port, msg_id=head.msg_id, seq=head.seq + i,
                       frag_offset=head.frag_offset + i * head.frag_bytes,
                       frag_bytes=head.frag_bytes, msg_bytes=head.msg_bytes,
                       tag=head.tag, payload=head.payload)
            for i in range(1, k)]


def test_lazy_train_fragments_equal_eager_packets():
    """Fragment ``i`` of a train equals, field by field, the packet eager
    building gives, ``packet_id`` included, and the next packet drawn
    after either gets the same id."""
    def build(lazy):
        _reset_global_ids()
        head = ClicPacket(ClicPacketType.MPI, 0, 1, 7, 42, 0, 3 * 1474, 1474,
                          20 * 1474 + 9, tag=5, payload="p")
        if lazy:
            train = ClicTrain(head, 6)
            head.seq = 17
            fragments = list(train)
            assert [train[i] for i in range(6)] == fragments
            assert fragments[0] is head and len(train) == 6
            with pytest.raises(IndexError):
                train[6]
        else:
            rest = _eager(head, 6)
            head.seq = 17
            for i, pkt in enumerate(rest, 1):
                pkt.seq = 17 + i
            fragments = [head] + rest
        return fragments, ClicAck(0, 1, 0).packet_id

    assert build(lazy=True) == build(lazy=False)


def test_in_flight_sum_over_a_partly_acked_train():
    """``unacked()`` chains the runs in C: over a partly acked train it
    skips the acked prefix, and summing ``frag_bytes`` over it gives the
    bytes still in flight."""
    env = Environment()
    retx = []
    sender = WindowedSender(env, window=32, retransmit_timeout_ns=1e3, max_retries=3,
                            retransmit=lambda pkts, kind: retx.append(pkts))
    lone = ClicPacket(ClicPacketType.DATA, 0, 1, 7, 1, 0, 0, 100, 100)
    sender.register(lone)
    head = ClicPacket(ClicPacketType.DATA, 0, 1, 7, 2, 0, 0, 1000, 20_000)
    train = ClicTrain(head, 8)
    head.seq = sender.register_run(train)
    tail = ClicPacket(ClicPacketType.DATA, 0, 1, 7, 2, 9, 8000, 500, 20_000)
    sender.register(tail)
    frag_bytes = attrgetter("frag_bytes")
    assert sum(map(frag_bytes, sender.unacked())) == 100 + 8 * 1000 + 500
    sender.on_ack(4)  # the lone packet and the train's first three fragments
    assert [p.seq for p in sender.unacked()] == list(range(4, 10))
    assert sum(map(frag_bytes, sender.unacked())) == 5 * 1000 + 500
    assert len(sender._runs) == 2 and sender.in_flight == 6
    env.run(until=1.5e3)  # the RTO resends the window: fragments indexed from the run
    assert retx == [[train[i] for i in range(3, 8)] + [tail]]
    sender.on_ack(10)
    assert list(sender.unacked()) == [] and not sender._runs


def test_register_run_that_does_not_fit_changes_nothing():
    env = Environment()
    sender = WindowedSender(env, window=4, retransmit_timeout_ns=1e3, max_retries=1,
                            retransmit=lambda pkts, kind: None)
    sender.register("a")
    before = (sender.next_seq, _window(sender), dict(sender.counters), pending(env))
    with pytest.raises(RuntimeError):
        sender.register_run(["b", "c", "d", "e"])
    assert (sender.next_seq, _window(sender), dict(sender.counters),
            pending(env)) == before
    assert sender.register_run(["b", "c", "d"]) == 1
    assert sender.in_flight == 4


def test_register_run_on_a_failed_sender_raises():
    env = Environment()
    sender = WindowedSender(env, window=4, retransmit_timeout_ns=1e3, max_retries=1,
                            retransmit=lambda pkts, kind: None)
    sender.register("stuck")
    env.run(until=1e4)  # one retry, then the retry budget is spent
    assert sender.failed
    with pytest.raises(DeliveryFailed):
        sender.register_run(["a", "b"])
    assert sender.next_seq == 1 and sender.in_flight == 1
