"""A run of packets crosses the reliability channel in one call exactly
as one call per packet does.

:meth:`WindowedSender.register_run` must do what ``register`` does for
each packet, and :meth:`OrderedReceiver.on_run` what ``on_packet`` does
for each (consecutive) packet, apart from the dead queue entries the
per-packet delayed-ack re-arms leave behind.  Random cases drive two
channel pairs side by side from the same prior state, one through the
run calls and one packet by packet, and compare everything observable:
the delivery order, the acks sent (value and time), sender and receiver
state, the tallies, the probe's event log, the live queue entries and,
after draining the queue, what the timers did.
"""

import random

import pytest

from tests.sim.reference_resources import pending

from repro.obs import MetricsRegistry
from repro.protocols.reliability import (ChannelProbe, DeliveryFailed, OrderedReceiver,
                                         WindowedSender, install_channel_probe)
from repro.sim import Environment


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
        previous = install_channel_probe(probe)
        try:
            self.sender = WindowedSender(
                env, window=case["window"], retransmit_timeout_ns=case["rto_ns"],
                max_retries=100, retransmit=lambda pkts, kind: self.log.append(
                    ("retx", env.now, kind, list(pkts))),
                metrics=self.metrics, prefix="tx.")
            self.receiver = OrderedReceiver(
                env, deliver=lambda pkt: self.log.append(("deliver", env.now, pkt)),
                send_ack=lambda cum: self.log.append(("send_ack", env.now, cum)),
                ack_every=case["ack_every"], ack_delay_ns=case["ack_delay_ns"],
                stash_limit=case["stash_limit"], metrics=self.metrics, prefix="rx.")
        finally:
            install_channel_probe(previous)

    def state(self):
        s, r = self.sender, self.receiver
        return {
            "now": self.env.now,
            "sender": (s.next_seq, s.base, dict(s._in_flight), dict(s._sent_at),
                       sorted(s._retx_seqs), s._retries, s.failed,
                       s._timer is not None and s._timer.active),
            "receiver": (r.expected, dict(r._stash), r._unacked, r.max_stash,
                         r._ack_timer is not None and r._ack_timer.active),
            "counters": self.metrics.snapshot(),
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
    if runs:
        registered = pair.sender.register_run(packets)
        pair.receiver.on_run(first, packets)
    else:
        registered = [pair.sender.register(pkt) for pkt in packets][0]
        for i, pkt in enumerate(packets):
            pair.receiver.on_packet(first + i, pkt)
    after_run = pair.state()
    pair.env.run()
    return (registered, after_run, pair.state(), probe.events if probe else None)


def _check(seed):
    case = _case(seed)
    expected = _replay(case, runs=False)
    assert _replay(case, runs=True) == expected, (seed, case)


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


def test_register_run_that_does_not_fit_changes_nothing():
    env = Environment()
    sender = WindowedSender(env, window=4, retransmit_timeout_ns=1e3, max_retries=1,
                            retransmit=lambda pkts, kind: None)
    sender.register("a")
    before = (sender.next_seq, dict(sender._in_flight), dict(sender.counters), pending(env))
    with pytest.raises(RuntimeError):
        sender.register_run(["b", "c", "d", "e"])
    assert (sender.next_seq, dict(sender._in_flight), dict(sender.counters),
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
