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

A run of consecutive packets (a flow-mode train's fragments) can cross
the channel in one call on each side: :meth:`WindowedSender.register_run`
and :meth:`OrderedReceiver.on_run` take any sequence of packets (a
lazy train included) and do what ``k`` calls of ``register``/
``on_packet`` would, except that an in-order run arms the delayed-ack
timer once instead of re-arming it per packet.  Neither reads an
element on the steady-state path; see their docstrings.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from operator import itemgetter
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

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


#: a run record's packets (``(first_seq, packets, sent_at)``)
_packets_of = itemgetter(1)


class DeliveryFailed(Exception):
    """Raised when a packet exhausts its retransmission budget."""


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
        """``seqs`` were re-emitted (``kind``: ``"fast"``, ``"partial_ack"``
        or ``"rto"``)."""

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


#: RFC 6298 smoothing gains of SRTT and RTTVAR, and the RTTVAR weight
RTT_ALPHA = 0.125
RTT_BETA = 0.25
RTO_K = 4.0


class RtoEstimator:
    """Jacobson/Karels adaptive retransmission-timeout estimation.

    ``RTO = clamp(SRTT + k * RTTVAR, min, max)``, with SRTT/RTTVAR
    smoothed by the RFC 6298 gains (alpha = 1/8, beta = 1/4, k = 4).  Karn's
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

    def __init__(self, initial_ns: float, min_ns: float, max_ns: float):
        if initial_ns <= 0 or min_ns <= 0:
            raise ValueError("RTO bounds must be positive")
        if max_ns < min_ns:
            raise ValueError("max_ns must be >= min_ns")
        self.initial_ns = initial_ns
        self.min_ns = min_ns
        self.max_ns = max_ns
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
            self.rttvar = (1 - RTT_BETA) * self.rttvar + RTT_BETA * abs(self.srtt - rtt_ns)
            self.srtt = (1 - RTT_ALPHA) * self.srtt + RTT_ALPHA * rtt_ns
        self.samples += 1
        self._base = min(max(self.srtt + RTO_K * self.rttvar, self.min_ns), self.max_ns)
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
        Callback ``(packets: list, kind: str) -> None`` that re-emits
        the given in-flight packets (owner schedules the actual sends);
        ``kind`` is why: ``"fast"``, ``"partial_ack"`` or ``"rto"``.
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
        (the peer-death hook).
    """

    def __init__(
        self,
        env: Environment,
        window: int,
        retransmit_timeout_ns: float,
        max_retries: int,
        retransmit: Callable[[List[Any], str], None],
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
        self.counters = self.metrics.tallies(prefix.rstrip("."))
        # gauges registered on first use: one that never fires stays
        # out of the snapshot
        self._rto_gauge = None
        self._acked_gauge = None
        self.fail_listener = fail_listener
        #: captured at construction (see :func:`install_channel_probe`)
        self.probe = _active_probe

        self.next_seq = 0
        self.base = 0  # lowest unacked seq
        #: registered runs not yet wholly acked, oldest first, each
        #: ``(first_seq, packets, sent_at)``; together they hold every
        #: seq in ``[base, next_seq)`` (the head run may start below
        #: ``base`` when an ack split it)
        self._runs: Deque[Tuple[int, Sequence[Any], float]] = deque()
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
        return self.next_seq - self.base

    def window_full(self) -> bool:
        """True when no more packets may enter the network."""
        return self.in_flight >= self.window

    def reserve(self) -> Generator:
        """Block (as a generator) until there is window space."""
        self._check_failed()
        while self.window_full():
            event = self.env.event()
            self._window_waiters.append(event)
            self.counters["window_stalls"] += 1
            yield event
            self._check_failed()

    def register(self, packet: Any) -> int:
        """Assign the next sequence number to ``packet`` and track it: a
        run of one (:meth:`register_run`).

        The caller must have reserved window space; the packet object is
        retained for retransmission until acknowledged.
        """
        return self.register_run((packet,))

    def register_run(self, packets: Sequence[Any]) -> int:
        """Register a run of packets at once, as one registration per
        packet in order would; returns the first one's sequence number
        (the rest follow consecutively).

        The run is kept whole, as one ``(first_seq, packets, sent_at)``
        record, and no element is read: ``packets`` may be a lazy train
        whose fragments exist only when indexed (a retransmission
        indexes into its run).  The run must fit the window whole;
        otherwise this raises before changing any state.  The
        retransmission timer starts once, if the window was empty,
        exactly as the first ``register`` would have started it.
        """
        self._check_failed()
        n = len(packets)
        first = self.next_seq
        if first - self.base + n > self.window:
            raise RuntimeError(f"{self.name}: register_run() of {n} without window space")
        was_empty = first == self.base
        self._runs.append((first, packets, self.env.now))
        probe = self.probe
        if probe is not None:
            for seq in range(first, first + n):
                self.next_seq = seq + 1  # the probe sees each seq in flight
                probe.on_register(self, seq)
        self.next_seq = first + n
        self.counters["registered"] += n
        if was_empty and n:
            self._start_timer()
        return first

    def unacked(self) -> Iterator[Any]:
        """The packets in flight, oldest first (seqs ``base`` to
        ``next_seq - 1``).  The iterator is chained in C over the runs,
        so summing a field over it (the in-flight bytes probe) runs no
        Python loop."""
        runs = self._runs
        if not runs:
            return iter(())
        first, packets, _ = runs[0]
        if first < self.base:  # an ack split the head run
            return chain(islice(packets, self.base - first, None),
                         chain.from_iterable(map(_packets_of, islice(runs, 1, None))))
        return chain.from_iterable(map(_packets_of, runs))

    def _packet(self, seq: int) -> Any:
        """The in-flight packet with sequence ``seq``."""
        for first, packets, _ in self._runs:
            if seq < first + len(packets):
                return packets[seq - first]
        raise KeyError(seq)

    @property
    def retransmitting(self) -> bool:
        """True while any in-flight packet's RTT is retransmission-
        ambiguous (Karn) — i.e. a recovery episode is in progress."""
        return bool(self._retx_seqs)

    def drain(self) -> Generator:
        """Block until everything sent so far is acknowledged."""
        self._check_failed()
        while self.base < self.next_seq:
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
            self.counters["stale_acks"] += 1
            return
        if cumulative_seq == self.base:
            self.counters["duplicate_acks"] += 1
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
                if self.base < self.next_seq:
                    self._recover = self.next_seq - 1
                    self.counters["fast_retransmits"] += 1
                    self._note_retransmitted([self.base])  # Karn: RTT now ambiguous
                    if self.fast_retransmit_listener is not None:
                        self.fast_retransmit_listener()
                    if self.probe is not None:
                        self.probe.on_retransmit(self, [self.base], "fast")
                    self._start_timer()
                    self.retransmit([self._packet(self.base)], "fast")
            return
        base_before = self.base
        acked = cumulative_seq - self.base
        self._dupacks = 0
        # The RTT sample comes from the newest acked seq that was never
        # retransmitted (Karn's rule), taken from the run that holds it.
        sample_seq = min(cumulative_seq, self.next_seq) - 1
        retx = self._retx_seqs
        if retx:
            while sample_seq >= base_before and sample_seq in retx:
                sample_seq -= 1
            retx -= {seq for seq in retx if seq < cumulative_seq}
        rtt_sample_sent_at: Optional[float] = None
        rtt_sample_seq: Optional[int] = None
        runs = self._runs
        while runs:
            first, packets, sent_at = runs[0]
            end = first + len(packets)
            if base_before <= sample_seq and first <= sample_seq < end:
                rtt_sample_sent_at = sent_at
                rtt_sample_seq = sample_seq
            if end > cumulative_seq:
                break  # partly acked: the run stays, split at the new base
            runs.popleft()
        if self.rto is not None and rtt_sample_sent_at is not None:
            self.rto.sample(self.env.now - rtt_sample_sent_at)
            self._note_rto()
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
        if self._acked_gauge is None:
            self._acked_gauge = self.metrics.gauge(f"{self.prefix}acked_through")
        self._acked_gauge.set(cumulative_seq)
        if self.base <= self._recover and self.base < self.next_seq:
            # RFC 6582 partial ack: the cumulative ack advanced without
            # passing the recovery point, so the next hole is known lost
            # (reordering would have filled it) — resend it now instead
            # of waiting out the RTO.  Driven only by *new* cumulative
            # progress, so duplicated ack copies cannot amplify it, and
            # bounded by one resend per hole per recovery episode.
            self.counters["partial_ack_retransmits"] += 1
            self._note_retransmitted([self.base])  # Karn: RTT now ambiguous
            if self.probe is not None:
                self.probe.on_retransmit(self, [self.base], "partial_ack")
            self.retransmit([self._packet(self.base)], "partial_ack")
        if self.base < self.next_seq:
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
    def _note_rto(self) -> None:
        """Publish the current RTO on its gauge."""
        if self._rto_gauge is None:
            self._rto_gauge = self.metrics.gauge(f"{self.prefix}rto_ns")
        self._rto_gauge.set(self.rto.current_ns())

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
        # Re-arming cancels the previous timer lazily (dead queue entry),
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
        if self.base >= self.next_seq:
            return
        self._retries += 1
        if self._retries > self.max_retries:
            self._fail(
                f"no ack after {self.max_retries} retries "
                f"(base={self.base}, in flight={self.in_flight})"
            )
            return
        self.counters["timeouts"] += 1
        rto_before = self.current_timeout_ns()
        if self.rto is not None:
            self.rto.on_timeout()
            self._note_rto()
        if self.probe is not None:
            self.probe.on_timeout(self, rto_before, self.current_timeout_ns())
        if self.timeout_listener is not None:
            self.timeout_listener()
        seqs = list(range(self.base, self.next_seq))
        packets = list(self.unacked())
        # The go-back-N flood will echo back as dupacks; none of them is
        # evidence of a *new* hole (RFC 6582 applies the recovery point
        # to timeout retransmissions for the same reason).
        self._recover = self.next_seq - 1
        self._note_retransmitted(seqs)  # Karn: all resent, all ambiguous
        if self.probe is not None:
            self.probe.on_retransmit(self, seqs, "rto")
        self.counters["retransmitted"] += len(packets)
        self._start_timer()
        self.retransmit(packets, "rto")

    # -- failure ------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True once the retry budget is exhausted."""
        return self._failed is not None

    @property
    def failure(self) -> Optional[DeliveryFailed]:
        """The error a failed channel raises (names it and why); None
        while the channel is healthy."""
        return self._failed

    def _fail(self, reason: str) -> None:
        self._failed = DeliveryFailed(f"{self.name}: {reason}")
        self._cancel_timer()
        self.counters["failed"] += 1
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

    ``deliver`` hands one packet to the owner, in order; ``deliver_run``
    hands it a whole in-order run (the sequence :meth:`on_run` got) in
    one call, and an owner that calls :meth:`on_run` must give it.
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
        deliver_run: Optional[Callable[[Sequence[Any]], None]] = None,
    ):
        if ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        self.env = env
        self.deliver = deliver
        self.deliver_run = deliver_run
        self.send_ack = send_ack
        self.ack_every = ack_every
        self.ack_delay_ns = ack_delay_ns
        self.stash_limit = stash_limit
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.prefix = prefix
        self.counters = self.metrics.tallies(prefix.rstrip("."))
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
        self._max_stash_gauge = None  # registered on first use

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
            self.counters["duplicates"] += 1
            self._emit_ack()
            return
        if seq <= self.expected:
            self._deliver_next(seq, packet)
            # Drain any stashed successors.
            while self.expected in self._stash:
                self._deliver_next(self.expected, self._stash.pop(self.expected))
            self.counters["delivered_in_order"] += 1
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
            self.counters["duplicates"] += 1
        elif len(self._stash) < self.stash_limit:
            self._stash[seq] = packet
            self.counters["stashed"] += 1
            if len(self._stash) > self.max_stash:
                self.max_stash = len(self._stash)
                if self._max_stash_gauge is None:
                    self._max_stash_gauge = self.metrics.gauge(f"{self.prefix}max_stash")
                self._max_stash_gauge.set(self.max_stash)
        else:
            self.counters["stash_overflow_drops"] += 1
        # Remind the sender where we are (acts like a duplicate ack).
        self._emit_ack()

    def on_run(self, seq: int, packets: Sequence[Any]) -> None:
        """Handle a run of arriving packets with the consecutive channel
        sequence numbers ``seq, seq + 1, ...``, as one :meth:`on_packet`
        call per packet would.

        An in-order run (it starts at ``expected`` and nothing is
        stashed) goes to the owner whole, in one ``deliver_run`` call,
        and no element is read.  Acks go out where the ``ack_every``
        cadence falls, after ``ack_every - unacked`` packets and every
        ``ack_every`` after that, each with ``expected`` at the seq it
        would have had; an installed probe sees the per-packet calls'
        ``on_deliver`` / ``on_ack_emitted`` sequence from this same
        path.  The delayed-ack timer is armed once, at the end, and only
        if the run ends below the threshold: of the per-packet calls'
        re-arms only the last would stay live, in the same queue slot.
        Any other run (a duplicate, one ahead of ``expected``, or a
        non-empty stash) goes through :meth:`on_packet` packet by packet.
        """
        if seq != self.expected or self._stash:
            for packet in packets:
                self.on_packet(seq, packet)
                seq += 1
            return
        k = len(packets)
        self.deliver_run(packets)
        probe = self.probe
        ack_every = self.ack_every
        unacked = self._unacked
        delivered = 0  # packets the probe has seen delivered
        for done in range(ack_every - unacked, k + 1, ack_every):
            if probe is not None:
                for s in range(seq + delivered, seq + done):
                    probe.on_deliver(self, s)
                delivered = done
            self.expected = seq + done
            self._emit_ack()
        if probe is not None:
            for s in range(seq + delivered, seq + k):
                probe.on_deliver(self, s)
        self.expected = seq + k
        self._unacked = (unacked + k) % ack_every
        self.counters["delivered_in_order"] += k
        if self._unacked and k:
            self._schedule_delayed_ack()

    # -- ack cadence --------------------------------------------------------
    def _emit_ack(self) -> None:
        self._unacked = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.counters["acks_sent"] += 1
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
            self.counters["delayed_acks"] += 1
            self._emit_ack()
