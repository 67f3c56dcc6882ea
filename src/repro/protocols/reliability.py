"""Reliable, in-order delivery over an unreliable frame service.

CLIC is "a reliable transport protocol" (§3.1) — the gap between what
Ethernet guarantees (nothing: frames can be dropped by full NIC rings or
switch queues) and what MPI needs (in-order, exactly-once) is closed
here, once, and reused by both the CLIC module and the simplified TCP
model:

* :class:`WindowedSender` — sliding window with cumulative acks,
  go-back-N retransmission on timeout, bounded retries; blocks producers
  when the window is full (back-pressure all the way to the user's
  ``send``).
* :class:`OrderedReceiver` — in-order delivery with a bounded
  out-of-order stash (so slight reordering from channel bonding does not
  trigger spurious retransmission storms), duplicate suppression, and a
  configurable cumulative-ack cadence.
* :class:`RtoEstimator` — adaptive retransmission timeout in the
  Jacobson/Karels style (SRTT/RTTVAR smoothing, Karn's rule on
  retransmitted samples, exponential backoff with a cap).  Without one,
  the sender keeps the historical fixed timer.

Both sides are transport-agnostic: they call back into their owner to
actually emit packets/acks, so the full cost of every retransmission and
ack (CPU, PCI, wire) is charged through the normal send path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Set

from ..obs import MetricsRegistry
from ..sim import Environment, Event, TimerHandle

__all__ = [
    "WindowedSender",
    "OrderedReceiver",
    "RtoEstimator",
    "DeliveryFailed",
    "ChannelProbe",
    "install_channel_probe",
]


class DeliveryFailed(Exception):
    """Raised when a packet exhausts its retransmission budget (or the
    peer is declared dead by the aliveness machinery)."""


class ChannelProbe:
    """Observer interface over reliability-channel events.

    The invariant harness (:mod:`repro.validate`) subscribes to the raw
    event stream of every sender/receiver pair — registrations, applied
    cumulative acks, RTT samples, retransmissions, timeouts, failures,
    deliveries — and asserts protocol invariants over it after the run
    (Karn's rule, ack monotonicity, exactly-once in-order delivery).

    Every method is a no-op; subclass and override what you need.  A
    probe observes only: it must not mutate the channel state or the
    simulation (the same run with and without a probe is bit-identical).
    """

    def on_sender(self, sender: "WindowedSender") -> None:
        """A new sender channel was built."""

    def on_receiver(self, receiver: "OrderedReceiver") -> None:
        """A new receiver channel was built."""

    def on_register(self, sender: "WindowedSender", seq: int) -> None:
        """``seq`` entered the network for the first time."""

    def on_ack_applied(self, sender: "WindowedSender", base_before: int, cum: int) -> None:
        """A cumulative ack advanced the window base."""

    def on_rtt_sample(self, sender: "WindowedSender", seq: int, rtt_ns: float) -> None:
        """The RTO estimator consumed an RTT measurement from ``seq``."""

    def on_retransmit(self, sender: "WindowedSender", seqs: List[int], kind: str) -> None:
        """``seqs`` were re-emitted (``kind``: ``"rto"`` or ``"fast"``)."""

    def on_timeout(self, sender: "WindowedSender", rto_before_ns: float,
                   rto_after_ns: float) -> None:
        """A retransmission timer fired (RTO before/after backoff)."""

    def on_fail(self, sender: "WindowedSender", reason: str) -> None:
        """The channel was declared dead."""

    def on_deliver(self, receiver: "OrderedReceiver", seq: int) -> None:
        """``seq`` was handed to the application, in order."""

    def on_ack_emitted(self, receiver: "OrderedReceiver", cum: int) -> None:
        """The receiver emitted a cumulative ack for everything < ``cum``."""


#: process-global probe picked up by channels at construction (the
#: senders/receivers of a cluster are built lazily deep inside the
#: protocol engines, so a validation harness installs the probe before
#: traffic starts and every channel born afterwards reports to it).
_active_probe: Optional[ChannelProbe] = None


def install_channel_probe(probe: Optional[ChannelProbe]) -> Optional[ChannelProbe]:
    """Install (or, with ``None``, remove) the global channel probe.

    Returns the previously installed probe so callers can restore it;
    use ``try/finally`` — a leaked probe would observe unrelated runs.
    """
    global _active_probe
    previous = _active_probe
    _active_probe = probe
    return previous


class RtoEstimator:
    """Jacobson/Karels adaptive retransmission-timeout estimation.

    ``RTO = clamp(SRTT + k * RTTVAR, min, max)``, with SRTT/RTTVAR
    smoothed by the RFC 6298 gains (alpha = 1/8, beta = 1/4).  Karn's
    rule is enforced by the *caller*: only RTT samples from packets that
    were never retransmitted reach :meth:`sample`.  Each timeout doubles
    the effective timeout (exponential backoff) until a fresh,
    unambiguous sample resets the backoff; ``max_ns`` caps everything so
    a flapping link cannot push the timer to infinity.

    Until the first sample arrives, the configured ``initial_ns`` is
    used verbatim (not clamped) so explicitly-shortened retry budgets in
    tests and fast-fail configs behave as written.
    """

    #: ceiling on the backoff multiplier (beyond this the max_ns clamp
    #: dominates anyway; the bound keeps the float well-behaved)
    MAX_BACKOFF = 65536.0

    def __init__(
        self,
        initial_ns: float,
        min_ns: float,
        max_ns: float,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
    ):
        if initial_ns <= 0 or min_ns <= 0:
            raise ValueError("RTO bounds must be positive")
        if max_ns < min_ns:
            raise ValueError("max_ns must be >= min_ns")
        self.initial_ns = initial_ns
        self.min_ns = min_ns
        self.max_ns = max_ns
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0
        self.backoff = 1.0
        self._base = initial_ns

    def current_ns(self) -> float:
        """The timeout to arm right now (smoothed base x backoff, capped)."""
        return min(self._base * self.backoff, self.max_ns)

    def sample(self, rtt_ns: float) -> None:
        """Fold in one RTT measurement from a never-retransmitted packet."""
        if rtt_ns < 0:
            raise ValueError("negative RTT sample")
        if self.srtt is None:
            self.srtt = rtt_ns
            self.rttvar = rtt_ns / 2.0
        else:
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt_ns)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt_ns
        self.samples += 1
        self._base = min(max(self.srtt + self.k * self.rttvar, self.min_ns), self.max_ns)
        self.backoff = 1.0  # an unambiguous sample ends the backoff episode

    def on_timeout(self) -> None:
        """Exponential backoff: each consecutive timeout doubles the timer."""
        self.backoff = min(self.backoff * 2.0, self.MAX_BACKOFF)

    def __repr__(self) -> str:
        return (
            f"RtoEstimator(rto={self.current_ns():.0f}ns, srtt={self.srtt}, "
            f"backoff={self.backoff:g}, samples={self.samples})"
        )


class WindowedSender:
    """Per-destination sliding-window sender state.

    Parameters
    ----------
    env:
        Simulation environment.
    window:
        Maximum unacknowledged packets in flight.
    retransmit_timeout_ns:
        Go-back-N timer (fixed, unless an ``rto`` estimator is given).
    max_retries:
        Rounds of retransmission before declaring the peer dead.
    retransmit:
        Callback ``(packets: list) -> None`` that re-emits the given
        in-flight packets (owner schedules the actual sends).
    rto:
        Optional :class:`RtoEstimator`; when present the retransmission
        timer adapts to measured RTTs and backs off exponentially on
        consecutive timeouts instead of firing at a fixed cadence.
    metrics, prefix:
        Registry the channel's tallies land in, under ``prefix`` (e.g.
        the cluster registry and ``node0.clic.tx1.``) — defaults to a
        fresh one.
    fail_listener:
        Called with a reason string when the retry budget is exhausted
        (or :meth:`abort` is invoked) — the peer-death hook.
    """

    def __init__(
        self,
        env: Environment,
        window: int,
        retransmit_timeout_ns: float,
        max_retries: int,
        retransmit: Callable[[List[Any]], None],
        name: str = "sender",
        rto: Optional[RtoEstimator] = None,
        metrics: Optional[MetricsRegistry] = None,
        prefix: str = "",
        fail_listener: Optional[Callable[[str], None]] = None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.env = env
        self.window = window
        self.timeout_ns = retransmit_timeout_ns
        self.max_retries = max_retries
        self.retransmit = retransmit
        self.name = name
        self.rto = rto
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.prefix = prefix
        self.fail_listener = fail_listener
        #: captured at construction (see :func:`install_channel_probe`)
        self.probe = _active_probe

        self.next_seq = 0
        self.base = 0  # lowest unacked seq
        self._in_flight: Dict[int, Any] = {}
        self._sent_at: Dict[int, float] = {}
        self._retx_seqs: Set[int] = set()  # Karn's rule: ambiguous RTTs
        # Deques: waiters wake FIFO from the left, and a long stall can
        # park thousands of producers — list.pop(0) would be O(n) each.
        self._window_waiters: Deque[Event] = deque()
        self._drained_waiters: Deque[Event] = deque()
        self._timer: Optional[TimerHandle] = None
        self._retries = 0
        self._failed: Optional[DeliveryFailed] = None
        #: optional congestion-control hooks (TCP wires these up):
        #: called with the number of newly acked packets / on RTO /
        #: when fast retransmit triggers.
        self.ack_listener: Optional[Callable[[int], None]] = None
        self.timeout_listener: Optional[Callable[[], None]] = None
        self.fast_retransmit_listener: Optional[Callable[[], None]] = None
        #: duplicate cumulative acks before fast retransmit (0 = off)
        self.dupack_threshold = 0
        self._dupacks = 0
        #: NewReno-style recovery point (RFC 6582): after a fast
        #: retransmit (or an RTO flood), further dupacks must not fire
        #: again until the cumulative ack passes the highest sequence
        #: outstanding at trigger time.  Without it, duplicated frames
        #: feed a self-sustaining dupack -> fast-retransmit -> duplicate
        #: -> dupack storm (each resend manufactures the dupacks that
        #: trigger the next resend).
        self._recover = -1
        if self.probe is not None:
            self.probe.on_sender(self)

    # -- producer side ---------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def window_full(self) -> bool:
        """True when no more packets may enter the network."""
        return self.in_flight >= self.window

    def reserve(self) -> Generator:
        """Block (as a generator) until there is window space."""
        self._check_failed()
        while self.window_full():
            event = self.env.event()
            self._window_waiters.append(event)
            self.metrics.counter(f"{self.prefix}window_stalls").value += 1
            yield event
            self._check_failed()

    def register(self, packet: Any) -> int:
        """Assign the next sequence number to ``packet`` and track it.

        The caller must have reserved window space; the packet object is
        retained for retransmission until acknowledged.
        """
        self._check_failed()
        if self.window_full():
            raise RuntimeError(f"{self.name}: register() without window space")
        seq = self.next_seq
        self.next_seq += 1
        self._in_flight[seq] = packet
        self._sent_at[seq] = self.env.now
        self.metrics.counter(f"{self.prefix}registered").value += 1
        if self.probe is not None:
            self.probe.on_register(self, seq)
        if len(self._in_flight) == 1:
            self._start_timer()
        return seq

    @property
    def retransmitting(self) -> bool:
        """True while any in-flight packet's RTT is retransmission-
        ambiguous (Karn) — i.e. a recovery episode is in progress."""
        return bool(self._retx_seqs)

    def drain(self) -> Generator:
        """Block until everything sent so far is acknowledged."""
        self._check_failed()
        while self._in_flight:
            event = self.env.event()
            self._drained_waiters.append(event)
            yield event
            self._check_failed()

    # -- ack side ----------------------------------------------------------
    def on_ack(self, cumulative_seq: int) -> None:
        """Process a cumulative ack: everything below ``cumulative_seq``."""
        if cumulative_seq < self.base:
            # Stale: the window already advanced past this ack (it was
            # delayed or reordered on the wire, or is a duplicated-frame
            # copy).  It carries no information about the *current* base,
            # so it must not feed the dupack counter — otherwise jittered
            # ack arrivals would fire spurious fast retransmissions.
            self.metrics.counter(f"{self.prefix}stale_acks").value += 1
            return
        if cumulative_seq == self.base:
            self.metrics.counter(f"{self.prefix}duplicate_acks").value += 1
            self._dupacks += 1
            if (
                self.dupack_threshold
                and self._dupacks >= self.dupack_threshold
                and self.base > self._recover
            ):
                # Fast retransmit: resend the oldest unacked packet now.
                # One trigger per window of data (the ``_recover`` guard):
                # if the resend is lost too, the RTO repairs it — more
                # dupacks for the same base are echoes of our own resend
                # (or of duplicated frames) and must not re-trigger.
                self._dupacks = 0
                if self.base in self._in_flight:
                    self._recover = self.next_seq - 1
                    self.metrics.counter(f"{self.prefix}fast_retransmits").value += 1
                    self._note_retransmitted([self.base])  # Karn: RTT now ambiguous
                    if self.fast_retransmit_listener is not None:
                        self.fast_retransmit_listener()
                    if self.probe is not None:
                        self.probe.on_retransmit(self, [self.base], "fast")
                    self._start_timer()
                    self.retransmit([self._in_flight[self.base]])
            return
        base_before = self.base
        acked = cumulative_seq - self.base
        self._dupacks = 0
        rtt_sample_sent_at: Optional[float] = None
        rtt_sample_seq: Optional[int] = None
        for seq in range(self.base, cumulative_seq):
            self._in_flight.pop(seq, None)
            sent_at = self._sent_at.pop(seq, None)
            if seq in self._retx_seqs:
                self._retx_seqs.discard(seq)  # Karn's rule: never sample these
            elif sent_at is not None:
                rtt_sample_sent_at = sent_at  # newest unambiguous packet wins
                rtt_sample_seq = seq
        if self.rto is not None and rtt_sample_sent_at is not None:
            self.rto.sample(self.env.now - rtt_sample_sent_at)
            self.metrics.gauge(f"{self.prefix}rto_ns").set(self.rto.current_ns())
            if self.probe is not None:
                self.probe.on_rtt_sample(
                    self, rtt_sample_seq, self.env.now - rtt_sample_sent_at
                )
        self.base = cumulative_seq
        if self.probe is not None:
            self.probe.on_ack_applied(self, base_before, cumulative_seq)
        self._retries = 0
        if self.ack_listener is not None:
            self.ack_listener(acked)
        self.metrics.gauge(f"{self.prefix}acked_through").set(cumulative_seq)
        if self.base <= self._recover and self.base in self._in_flight:
            # RFC 6582 partial ack: the cumulative ack advanced without
            # passing the recovery point, so the next hole is known lost
            # (reordering would have filled it) — resend it now instead
            # of waiting out the RTO.  Driven only by *new* cumulative
            # progress, so duplicated ack copies cannot amplify it, and
            # bounded by one resend per hole per recovery episode.
            self.metrics.counter(f"{self.prefix}partial_ack_retransmits").value += 1
            self._note_retransmitted([self.base])  # Karn: RTT now ambiguous
            if self.probe is not None:
                self.probe.on_retransmit(self, [self.base], "partial_ack")
            self.retransmit([self._in_flight[self.base]])
        if self._in_flight:
            self._start_timer()  # restart for the new oldest packet
        else:
            self._cancel_timer()
            for event in self._drained_waiters:
                event.succeed()
            self._drained_waiters.clear()
        # Wake window waiters that now fit.
        while self._window_waiters and not self.window_full():
            self._window_waiters.popleft().succeed()

    # -- timer / retransmission ---------------------------------------------
    def current_timeout_ns(self) -> float:
        """The retransmission timeout that would be armed right now."""
        return self.rto.current_ns() if self.rto is not None else self.timeout_ns

    def _note_retransmitted(self, seqs: Iterable[int]) -> None:
        """Karn bookkeeping: mark ``seqs`` as RTT-ambiguous.

        Kept as a dedicated seam so the invariant harness can mutate it
        (disable it) and prove the fuzzer catches the resulting Karn's
        rule violation — see ``tests/validate``.
        """
        self._retx_seqs.update(seqs)

    def _start_timer(self) -> None:
        # Re-arming cancels the previous timer lazily (dead heap entry),
        # so ack-by-ack restarts cost one handle + one push, not a
        # process spawn.
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.env.call_later(self.current_timeout_ns(), self._on_rto)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_rto(self) -> None:
        self._timer = None
        if not self._in_flight:
            return
        self._retries += 1
        if self._retries > self.max_retries:
            self._fail(
                f"no ack after {self.max_retries} retries "
                f"(base={self.base}, in flight={self.in_flight})"
            )
            return
        self.metrics.counter(f"{self.prefix}timeouts").value += 1
        rto_before = self.current_timeout_ns()
        if self.rto is not None:
            self.rto.on_timeout()
            self.metrics.gauge(f"{self.prefix}rto_ns").set(self.rto.current_ns())
        if self.probe is not None:
            self.probe.on_timeout(self, rto_before, self.current_timeout_ns())
        if self.timeout_listener is not None:
            self.timeout_listener()
        seqs = sorted(self._in_flight)
        packets = [self._in_flight[s] for s in seqs]
        # The go-back-N flood will echo back as dupacks; none of them is
        # evidence of a *new* hole (RFC 6582 applies the recovery point
        # to timeout retransmissions for the same reason).
        self._recover = self.next_seq - 1
        self._note_retransmitted(seqs)  # Karn: all resent, all ambiguous
        if self.probe is not None:
            self.probe.on_retransmit(self, seqs, "rto")
        self.metrics.counter(f"{self.prefix}retransmitted").value += len(packets)
        self._start_timer()
        self.retransmit(packets)

    # -- failure ------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True once the retry budget is exhausted or :meth:`abort` ran."""
        return self._failed is not None

    @property
    def failure(self) -> Optional[DeliveryFailed]:
        """The error a failed channel raises (names it and why); None
        while the channel is healthy."""
        return self._failed

    def abort(self, reason: str) -> None:
        """Externally declare this channel dead (e.g. the aliveness
        tracker lost the peer): fail all waiters, reject future sends."""
        if self._failed is None:
            self._fail(reason)

    def _fail(self, reason: str) -> None:
        self._failed = DeliveryFailed(f"{self.name}: {reason}")
        self._cancel_timer()
        self.metrics.counter(f"{self.prefix}failed").value += 1
        if self.probe is not None:
            self.probe.on_fail(self, reason)
        for event in (*self._window_waiters, *self._drained_waiters):
            event.fail(self._failed)
        self._window_waiters.clear()
        self._drained_waiters.clear()
        if self.fail_listener is not None:
            self.fail_listener(reason)

    def _check_failed(self) -> None:
        if self._failed is not None:
            raise self._failed


class OrderedReceiver:
    """Per-source in-order receive state with bounded reorder stash.

    Like :class:`WindowedSender`, it tallies into ``metrics`` (a fresh
    registry by default) under ``prefix``, e.g. ``node1.clic.rx0.``.
    """

    def __init__(
        self,
        env: Environment,
        deliver: Callable[[Any], None],
        send_ack: Callable[[int], None],
        ack_every: int = 1,
        ack_delay_ns: float = 50_000.0,
        stash_limit: int = 64,
        name: str = "receiver",
        metrics: Optional[MetricsRegistry] = None,
        prefix: str = "",
    ):
        if ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        self.env = env
        self.deliver = deliver
        self.send_ack = send_ack
        self.ack_every = ack_every
        self.ack_delay_ns = ack_delay_ns
        self.stash_limit = stash_limit
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.prefix = prefix
        #: captured at construction (see :func:`install_channel_probe`)
        self.probe = _active_probe
        if self.probe is not None:
            self.probe.on_receiver(self)

        self.expected = 0
        self._stash: Dict[int, Any] = {}
        self._unacked = 0
        self._ack_timer: Optional[TimerHandle] = None
        #: highest stash occupancy ever reached (bounded-memory audit)
        self.max_stash = 0

    @property
    def stash_depth(self) -> int:
        """Current out-of-order stash occupancy (flow-mode eligibility
        reads this: a non-empty stash means reordering is being
        repaired, which forces exact per-packet simulation)."""
        return len(self._stash)

    def _already_delivered(self, seq: int) -> bool:
        """True when ``seq`` was already handed to the application.

        Kept as a dedicated seam so the invariant harness can mutate it
        (break duplicate suppression) and prove the fuzzer catches the
        resulting exactly-once violation — see ``tests/validate``.
        """
        return seq < self.expected

    def _deliver_next(self, seq: int, packet: Any) -> None:
        """Hand ``packet`` (sequence ``seq``) up and advance ``expected``."""
        if self.probe is not None:
            self.probe.on_deliver(self, seq)
        self.deliver(packet)
        self.expected = seq + 1
        self._unacked += 1

    def on_packet(self, seq: int, packet: Any) -> None:
        """Handle an arriving data packet with channel sequence ``seq``."""
        if seq <= self.expected and self._already_delivered(seq):
            # Duplicate (a retransmission, or an extra copy from a
            # duplication fault): suppress, but re-ack so the sender's
            # window can advance.
            self.metrics.counter(f"{self.prefix}duplicates").value += 1
            self._emit_ack()
            return
        if seq <= self.expected:
            self._deliver_next(seq, packet)
            # Drain any stashed successors.
            while self.expected in self._stash:
                self._deliver_next(self.expected, self._stash.pop(self.expected))
            self.metrics.counter(f"{self.prefix}delivered_in_order").value += 1
            if self._unacked >= self.ack_every:
                self._emit_ack()
            else:
                self._schedule_delayed_ack()
            return
        # Future packet: a duplicate of something already stashed is
        # suppressed; otherwise stash if room (tolerates bonding skew and
        # delay jitter).  At capacity the overrun policy is drop-newest
        # (counted) — the frame is repaired by go-back-N retransmission,
        # so adversarial reordering can never grow memory without bound.
        if seq in self._stash:
            self.metrics.counter(f"{self.prefix}duplicates").value += 1
        elif len(self._stash) < self.stash_limit:
            self._stash[seq] = packet
            self.metrics.counter(f"{self.prefix}stashed").value += 1
            if len(self._stash) > self.max_stash:
                self.max_stash = len(self._stash)
                self.metrics.gauge(f"{self.prefix}max_stash").set(self.max_stash)
        else:
            self.metrics.counter(f"{self.prefix}stash_overflow_drops").value += 1
        # Remind the sender where we are (acts like a duplicate ack).
        self._emit_ack()

    # -- ack cadence --------------------------------------------------------
    def _emit_ack(self) -> None:
        self._unacked = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.metrics.counter(f"{self.prefix}acks_sent").value += 1
        if self.probe is not None:
            self.probe.on_ack_emitted(self, self.expected)
        self.send_ack(self.expected)

    def _schedule_delayed_ack(self) -> None:
        # Each sub-threshold delivery restarts the full delay (matching
        # the historical per-packet timer process, where only the newest
        # generation was live).
        if self._ack_timer is not None:
            self._ack_timer.cancel()
        self._ack_timer = self.env.call_later(self.ack_delay_ns, self._on_delayed_ack)

    def _on_delayed_ack(self) -> None:
        self._ack_timer = None
        if self._unacked:
            self.metrics.counter(f"{self.prefix}delayed_acks").value += 1
            self._emit_ack()
