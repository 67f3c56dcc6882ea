"""Fault injection: declarative plans, deterministic injectors.

CLIC is "a reliable transport protocol" (§3.1); this package supplies the
adversity that claim is tested against.  A :class:`FaultPlan` is pure
data — *what* goes wrong, *where* and *when* — and the cluster builder
compiles it into per-channel :class:`ChannelFaults` engines driven by
the cluster's seeded :class:`~repro.sim.RngStreams`, so every fault
schedule is bit-reproducible from ``(seed, plan)``:

* **uniform loss** — the historical Bernoulli frame-drop model;
* **bursty loss** — a Gilbert–Elliott two-state channel
  (:class:`BurstLoss`), matching how real links actually fail (clock
  slips, EMI bursts, congested queues) rather than i.i.d. coin flips;
* **link outages / flaps** — a down/up timeline per link direction
  (:class:`OutageWindow`, :func:`flap_timeline`);
* **switch egress blackouts** — a switch port stops transmitting for a
  window (:class:`SwitchBlackout`), modelling e.g. a spanning-tree
  reconvergence or a misbehaving line card;
* **frame reordering** — bounded-displacement reordering via a per-link
  delay-jitter distribution (:class:`DelayJitter`): jittered frames are
  delivered late and can be overtaken by their successors;
* **frame duplication** — delivered frames arrive more than once
  (:class:`Duplication`: rate + max extra copies), as flooding switches
  and ARQ bridges produce in practice;
* **congestion spikes** — transient bandwidth collapse / added latency
  on links and switch uplinks (:class:`CongestionWindow`), deterministic
  timelines that never perturb the stochastic draw sequence.

Every injected fault is observable: drop and delivery tallies land in the
cluster's :class:`~repro.obs.MetricsRegistry` under ``faults.*`` and
scheduled windows are emitted as ``link_outage`` / ``egress_blackout``
spans on the cluster tracer.
"""

from .. import _lazy_exports
from .plan import (
    BurstLoss,
    CongestionWindow,
    DelayJitter,
    Duplication,
    FaultPlan,
    LinkFaultSpec,
    OutageWindow,
    SwitchBlackout,
    flap_timeline,
)

#: the injectors, imported when a cluster compiles an active plan
_LAZY = {
    "inject": (
        "ChannelFaults", "FrameDecision", "FrameVerdict", "GilbertElliottModel",
        "UniformLossModel",
    ),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "BurstLoss",
    "ChannelFaults",
    "CongestionWindow",
    "DelayJitter",
    "Duplication",
    "FaultPlan",
    "FrameDecision",
    "FrameVerdict",
    "GilbertElliottModel",
    "LinkFaultSpec",
    "OutageWindow",
    "SwitchBlackout",
    "UniformLossModel",
    "flap_timeline",
]
