"""Randomized stress test: the reliability pair over a hostile channel.

The shared ``seeded_rng`` fixture couples a :class:`WindowedSender` to
an :class:`OrderedReceiver` through a channel that loses, reorders and
duplicates both data packets and acks.  Whatever the channel does, the
receiver must see every sequence number exactly once, in order, and the
sender must finish with an empty window — with a retransmission bill
bounded by the injected adversity (no retransmission storms).  Every
trial derives from the test's seed, which pytest prints on failure.
"""

import pytest

from repro.protocols.reliability import OrderedReceiver, RtoEstimator, WindowedSender
from repro.sim import Environment


class HostileChannel:
    """Delivers callbacks after a random delay; loses, duplicates and
    (via the random delays) reorders traffic.  Deterministic per seed."""

    def __init__(self, env, rng, loss=0.2, dup=0.1, min_ns=50.0, max_ns=400.0):
        self.env = env
        self.rng = rng
        self.loss = loss
        self.dup = dup
        self.min_ns = min_ns
        self.max_ns = max_ns
        self.dropped = 0
        self.duplicated = 0

    def push(self, deliver, item) -> None:
        """Submit one message for (possible) delivery."""
        copies = 0
        if self.rng.random() >= self.loss:
            copies += 1
        else:
            self.dropped += 1
        if copies and self.rng.random() < self.dup:
            copies += 1
            self.duplicated += 1
        for _ in range(copies):
            delay = self.min_ns + self.rng.random() * (self.max_ns - self.min_ns)
            self.env.process(self._deliver(deliver, item, delay))

    def _deliver(self, deliver, item, delay):
        yield self.env.timeout(delay)
        deliver(item)


def _run_stress(rng, total: int = 60, loss: float = 0.2):
    env = Environment()
    channel = HostileChannel(env, rng, loss=loss)
    delivered = []

    sender = WindowedSender(
        env,
        window=8,
        retransmit_timeout_ns=2_000.0,
        max_retries=200,
        retransmit=lambda pkts, kind: [channel.push(on_data, p) for p in pkts],
        rto=RtoEstimator(initial_ns=2_000.0, min_ns=500.0, max_ns=50_000.0),
    )
    sender.dupack_threshold = 3
    receiver = OrderedReceiver(
        env,
        deliver=delivered.append,
        send_ack=lambda cum: channel.push(sender.on_ack, cum),
        ack_every=2,
        ack_delay_ns=300.0,
        stash_limit=16,
    )

    def on_data(item):
        seq, payload = item
        receiver.on_packet(seq, payload)

    def producer(env):
        for i in range(total):
            yield from sender.reserve()
            pkt = [None, i]  # seq filled in below; carried for retransmission
            pkt[0] = sender.register(pkt)
            channel.push(on_data, pkt)
        yield from sender.drain()

    done = env.process(producer(env))
    env.run(done)
    return sender, receiver, channel, delivered


@pytest.mark.parametrize("trial", range(5))
def test_exactly_once_in_order_under_loss_reorder_dup(seeded_rng, trial):
    total = 60
    sender, receiver, channel, delivered = _run_stress(seeded_rng(trial), total=total)
    assert delivered == list(range(total))  # exactly once, in order
    assert sender.in_flight == 0
    assert channel.dropped > 0  # the channel was actually hostile
    assert receiver.metrics.value("duplicates") + receiver.metrics.value("stashed") > 0


@pytest.mark.parametrize("trial", range(3))
def test_retransmissions_bounded(seeded_rng, trial):
    """Go-back-N may resend a window per loss event, but must not melt
    down: bound total (re)transmissions by a window's worth per drop."""
    total = 60
    sender, receiver, channel, delivered = _run_stress(seeded_rng(trial), total=total)
    resent = sender.metrics.value("retransmitted") + sender.metrics.value("fast_retransmits")
    budget = (channel.dropped + channel.duplicated + 1) * sender.window
    assert resent <= budget
    assert delivered == list(range(total))


def test_stress_deterministic_per_seed(seeded_rng):
    a = _run_stress(seeded_rng())
    b = _run_stress(seeded_rng())
    assert a[3] == b[3]
    assert a[0].metrics.value("retransmitted") == b[0].metrics.value("retransmitted")
    assert a[2].dropped == b[2].dropped
