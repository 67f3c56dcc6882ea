"""Declarative fault plans.

A plan is configuration, not machinery: frozen dataclasses naming loss
models, outage timelines and switch blackouts.  The
cluster builder resolves one :class:`LinkFaultSpec` per link direction
(``node -> switch`` is ``"up"``, ``switch -> node`` is ``"down"``) and
compiles it into a :class:`~repro.faults.inject.ChannelFaults` engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "OutageWindow",
    "BurstLoss",
    "DelayJitter",
    "Duplication",
    "CongestionWindow",
    "LinkFaultSpec",
    "SwitchBlackout",
    "FaultPlan",
    "flap_timeline",
]

#: link directions a spec can address
DIRECTIONS = ("up", "down")


@dataclass(frozen=True, order=True)
class OutageWindow:
    """A half-open interval ``[start_ns, end_ns)`` during which a link
    (or switch port) transmits nothing."""

    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.start_ns < 0:
            raise ValueError("outage start must be >= 0")
        if self.end_ns <= self.start_ns:
            raise ValueError("outage must end after it starts")

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def covers(self, now: float) -> bool:
        """True when ``now`` falls inside the window."""
        return self.start_ns <= now < self.end_ns


def flap_timeline(
    first_down_ns: float, down_ns: float, up_ns: float, flaps: int
) -> Tuple[OutageWindow, ...]:
    """A periodic down/up timeline: ``flaps`` outages of ``down_ns`` each,
    separated by ``up_ns`` of healthy link."""
    if flaps < 1:
        raise ValueError("need at least one flap")
    if down_ns <= 0 or up_ns < 0:
        raise ValueError("down_ns must be positive and up_ns non-negative")
    windows = []
    start = first_down_ns
    for _ in range(flaps):
        windows.append(OutageWindow(start, start + down_ns))
        start += down_ns + up_ns
    return tuple(windows)


@dataclass(frozen=True)
class BurstLoss:
    """Gilbert–Elliott two-state loss channel.

    The channel sits in a *good* or *bad* state; each offered frame
    first steps the state machine (``p_good_to_bad`` / ``p_bad_to_good``
    per frame), then is dropped with the state's loss probability.  Mean
    burst length is ``1 / p_bad_to_good`` frames.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability (got {v!r})")
        if self.p_bad_to_good == 0.0:
            raise ValueError("p_bad_to_good must be > 0 (the bad state must be escapable)")

    @property
    def bad_fraction(self) -> float:
        """Stationary fraction of frames seen in the bad state."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / denom if denom else 0.0

    @property
    def average_loss_rate(self) -> float:
        """Long-run loss rate (for comparing against a uniform model)."""
        bad = self.bad_fraction
        return (1.0 - bad) * self.loss_good + bad * self.loss_bad

    @classmethod
    def from_average(
        cls,
        average: float,
        mean_burst_frames: float = 8.0,
        loss_bad: float = 0.6,
    ) -> "BurstLoss":
        """A bursty channel with the given *average* loss rate.

        Useful for apples-to-apples burst-vs-uniform comparisons: same
        long-run rate, different clustering.
        """
        if not 0.0 < average < loss_bad:
            raise ValueError(
                f"average rate must be in (0, loss_bad={loss_bad}) (got {average!r})"
            )
        p_bad_to_good = 1.0 / mean_burst_frames
        bad_fraction = average / loss_bad
        p_good_to_bad = p_bad_to_good * bad_fraction / (1.0 - bad_fraction)
        return cls(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_good=0.0,
            loss_bad=loss_bad,
        )


def _require_probability(owner: str, name: str, value: float) -> None:
    """Shared ``__post_init__`` range check: ``value`` must be in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{owner}.{name} must be a probability (got {value!r})")


@dataclass(frozen=True)
class DelayJitter:
    """Per-frame extra delivery delay — the *reordering* fault family.

    Each delivered frame is independently jittered with probability
    ``rate``; a jittered frame arrives up to ``max_delay_ns`` late
    (uniform draw), so it can be overtaken by later frames.  The delay
    bound makes the displacement bound explicit: a frame can be passed
    only by frames serialized within ``max_delay_ns`` behind it.
    """

    #: probability a delivered frame is delayed
    rate: float
    #: upper bound of the uniform extra delay (ns)
    max_delay_ns: float

    def __post_init__(self) -> None:
        _require_probability("DelayJitter", "rate", self.rate)
        if self.max_delay_ns <= 0:
            raise ValueError(
                f"DelayJitter.max_delay_ns must be positive (got {self.max_delay_ns!r})"
            )


@dataclass(frozen=True)
class Duplication:
    """Frame duplication: a delivered frame arrives more than once.

    Each delivered frame is duplicated with probability ``rate``; a
    duplicated frame arrives as ``1 + k`` copies with ``k`` drawn
    uniformly from ``[1, max_copies]``.  Models switch flooding during
    table churn and ARQ bridges re-emitting frames.
    """

    #: probability a delivered frame is duplicated
    rate: float
    #: most *extra* copies one duplication event can produce
    max_copies: int = 1

    def __post_init__(self) -> None:
        _require_probability("Duplication", "rate", self.rate)
        copies = self.max_copies
        if isinstance(copies, bool) or not isinstance(copies, int) or copies < 1:
            raise ValueError(
                f"Duplication.max_copies must be an int >= 1 (got {copies!r})"
            )


@dataclass(frozen=True)
class CongestionWindow:
    """A transient congestion spike on a link (or switch uplink).

    While ``window`` covers the current time, the link's effective
    bandwidth collapses by ``bandwidth_factor`` (serialization takes
    that many times longer) and every delivery picks up
    ``extra_latency_ns`` of queueing delay.  Deterministic — no RNG
    draws — so adding a congestion schedule never perturbs the loss
    draw sequence of an existing plan.
    """

    window: OutageWindow
    #: serialization-time multiplier while congested (>= 1)
    bandwidth_factor: float = 1.0
    #: added one-way latency while congested (ns)
    extra_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_factor < 1.0:
            raise ValueError(
                "CongestionWindow.bandwidth_factor must be >= 1 "
                f"(got {self.bandwidth_factor!r})"
            )
        if self.extra_latency_ns < 0:
            raise ValueError(
                "CongestionWindow.extra_latency_ns must be >= 0 "
                f"(got {self.extra_latency_ns!r})"
            )
        if self.bandwidth_factor == 1.0 and self.extra_latency_ns == 0.0:
            raise ValueError("CongestionWindow must collapse bandwidth or add latency")


@dataclass(frozen=True)
class LinkFaultSpec:
    """Everything that can go wrong on one link direction."""

    #: Bernoulli frame-loss probability (ignored when ``burst`` is set)
    loss_rate: float = 0.0
    #: Gilbert–Elliott burst model (overrides ``loss_rate``)
    burst: Optional[BurstLoss] = None
    #: down/up timeline for this direction
    outages: Tuple[OutageWindow, ...] = ()
    #: bounded-displacement reordering via delay jitter
    jitter: Optional[DelayJitter] = None
    #: frame duplication (rate + max extra copies)
    duplicate: Optional[Duplication] = None
    #: transient congestion spikes (deterministic timeline)
    congestion: Tuple[CongestionWindow, ...] = ()

    def __post_init__(self) -> None:
        _require_probability("LinkFaultSpec", "loss_rate", self.loss_rate)

    @property
    def active(self) -> bool:
        """True when this spec injects anything at all."""
        return bool(
            self.loss_rate or self.burst is not None or self.outages or self.jitter is not None
            or self.duplicate is not None or self.congestion
        )


@dataclass(frozen=True)
class SwitchBlackout:
    """An egress blackout of the switch ports feeding one (or every) node."""

    window: OutageWindow
    #: target node (None = every port)
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node is not None and self.node < 0:
            raise ValueError(f"SwitchBlackout.node must be >= 0 (got {self.node!r})")

    def matches(self, node_id: int) -> bool:
        """Does this blackout target the ports feeding ``node_id``?"""
        return self.node is None or self.node == node_id


@dataclass
class FaultPlan:
    """The full fault schedule for one cluster run.

    ``default_link`` applies to every link direction unless an entry in
    ``links`` (keyed by ``(node_id, channel, direction)``) overrides it.
    """

    default_link: LinkFaultSpec = field(default_factory=LinkFaultSpec)
    links: Dict[Tuple[int, int, str], LinkFaultSpec] = field(default_factory=dict)
    switch_blackouts: Tuple[SwitchBlackout, ...] = ()

    def __post_init__(self) -> None:
        for key in self.links:
            node_id, channel, direction = key
            if direction not in DIRECTIONS:
                raise ValueError(f"direction must be one of {DIRECTIONS} (got {direction!r})")

    def link_spec(self, node_id: int, channel: int, direction: str) -> LinkFaultSpec:
        """The effective spec for one link direction."""
        return self.links.get((node_id, channel, direction), self.default_link)

    def blackouts_for(self, node_id: int) -> Tuple[OutageWindow, ...]:
        """The egress-blackout windows of the switch ports feeding
        ``node_id``'s NICs."""
        return tuple(b.window for b in self.switch_blackouts if b.matches(node_id))

    # -- convenience constructors -------------------------------------------
    @classmethod
    def uniform(cls, loss_rate: float) -> "FaultPlan":
        """Bernoulli (i.i.d.) loss on every link direction."""
        return cls(default_link=LinkFaultSpec(loss_rate=loss_rate))

    @classmethod
    def bursty(
        cls,
        average_loss_rate: float,
        mean_burst_frames: float = 8.0,
        loss_bad: float = 0.6,
    ) -> "FaultPlan":
        """Gilbert–Elliott burst loss on every link direction, tuned to a
        given long-run average rate."""
        burst = BurstLoss.from_average(
            average_loss_rate, mean_burst_frames=mean_burst_frames, loss_bad=loss_bad
        )
        return cls(default_link=LinkFaultSpec(burst=burst))

    @classmethod
    def reordering(cls, rate: float, max_delay_ns: float) -> "FaultPlan":
        """Bounded-displacement reordering (delay jitter) on every link
        direction."""
        return cls(default_link=LinkFaultSpec(
            jitter=DelayJitter(rate=rate, max_delay_ns=max_delay_ns)
        ))

    @classmethod
    def duplication(cls, rate: float, max_copies: int = 1) -> "FaultPlan":
        """Frame duplication on every link direction."""
        return cls(default_link=LinkFaultSpec(
            duplicate=Duplication(rate=rate, max_copies=max_copies)
        ))

    @classmethod
    def congestion_spike(
        cls,
        start_ns: float,
        end_ns: float,
        bandwidth_factor: float = 1.0,
        extra_latency_ns: float = 0.0,
    ) -> "FaultPlan":
        """A transient congestion spike on every link direction (which
        includes the switch uplinks: each ``down`` channel is a switch
        egress)."""
        spike = CongestionWindow(
            window=OutageWindow(start_ns, end_ns),
            bandwidth_factor=bandwidth_factor,
            extra_latency_ns=extra_latency_ns,
        )
        return cls(default_link=LinkFaultSpec(congestion=(spike,)))

    @classmethod
    def link_outage(
        cls,
        start_ns: float,
        end_ns: float,
        node: Optional[int] = None,
        channel: int = 0,
    ) -> "FaultPlan":
        """Both directions of one node's link (or of every link when
        ``node`` is None) go dark for ``[start_ns, end_ns)``."""
        spec = LinkFaultSpec(outages=(OutageWindow(start_ns, end_ns),))
        if node is None:
            return cls(default_link=spec)
        return cls(links={(node, channel, "up"): spec, (node, channel, "down"): spec})
