"""Fault decisions replay exactly.

Each case drives one :class:`ChannelFaults` engine through 500
``decide(t)`` calls, one every microsecond, on a fixed ``Pcg64`` stream
and compares three things with literals recorded from the reference
engine (the one that checked every family on every frame):

* a sha256 over every decision's ``(verdict, extra_delay_ns, copies,
  congested)``;
* the engine's tallies;
* the next draw of its RNG stream, which proves the engine consumed
  exactly the draws it always did.

Any change to the draw order, to which families a frame is checked
for, or to a counter moves one of them.
"""

import dataclasses
import hashlib

import pytest

from repro.faults import (
    ChannelFaults,
    CongestionWindow,
    DelayJitter,
    Duplication,
    FaultPlan,
    FrameVerdict,
    LinkFaultSpec,
    OutageWindow,
)
from repro.sim import Pcg64

SPECS = {
    "uniform": FaultPlan.uniform(0.05).default_link,
    "bursty": FaultPlan.bursty(0.05, mean_burst_frames=8.0, loss_bad=1.0).default_link,
    "reordering": FaultPlan.reordering(0.3, 20_000.0).default_link,
    "duplication": FaultPlan.duplication(0.2, max_copies=3).default_link,
    "congestion_spike": FaultPlan.congestion_spike(
        100_000.0, 300_000.0, bandwidth_factor=4.0, extra_latency_ns=2_000.0).default_link,
    "link_outage": FaultPlan.link_outage(200_000.0, 260_000.0).default_link,
    # every family at once: the draw order across families
    "everything": LinkFaultSpec(
        loss_rate=0.1,
        outages=(OutageWindow(50_000.0, 80_000.0),),
        jitter=DelayJitter(rate=0.3, max_delay_ns=10_000.0),
        duplicate=Duplication(rate=0.2, max_copies=2),
        congestion=(
            CongestionWindow(OutageWindow(100_000.0, 300_000.0),
                             bandwidth_factor=2.0, extra_latency_ns=500.0),
            CongestionWindow(OutageWindow(250_000.0, 400_000.0),
                             extra_latency_ns=1_000.0),
        )),
}

#: name -> (sha256 of the decisions, tallies, next RNG draw)
EXPECTED = {
    "uniform": ("f0da9d985cf89d47313e4f2d350f654a4003d130c53f45f50b42d63547194512",
                {"loss_drops": 24}, 0.4202426227262105),
    "bursty": ("47c53cf71a8c46a35e80a8722c70d7885ea4693acd41804a1d95b76df7135143",
               {"burst_drops": 32}, 0.4202426227262105),
    "reordering": ("465de1b8bd4ba44776b5683d1fc86141c1c365fe6ff673656aed05c5f6ff5f18",
                   {"jittered": 145}, 0.7249210189304145),
    "duplication": ("3a1f01266c71d13f84904082ac19af19a1a1bb3d317d6ba4d7345e01667c92c4",
                    {"dup_copies": 209, "duplicated": 97}, 0.14172277042391912),
    "congestion_spike": ("94eac46b740ab9a855c714d19066918103362616ba09c1a987705e5a83789a22",
                         {"congested": 200}, 0.625095466604667),
    "link_outage": ("f12e9d0dacd89ba0f80f8e9c5ef254c80e585d506a7d18ea55a987596a086c9f",
                    {"outage_drops": 60}, 0.625095466604667),
    "everything": ("9f241511882b4275b77a1a5da1259347b35f33b2269faee95d149224b8e1a97b",
                   {"congested": 300, "dup_copies": 123, "duplicated": 83,
                    "jittered": 138, "loss_drops": 43, "outage_drops": 30},
                   0.3089802466173387),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_decisions_replay_exactly(name):
    eng = ChannelFaults(SPECS[name], Pcg64(7))
    digest = hashlib.sha256()
    for i in range(500):
        d = eng.decide(i * 1_000.0)
        digest.update(repr(
            (d.verdict.value, d.extra_delay_ns, d.copies, d.congested)).encode())
    sha, tallies, next_draw = EXPECTED[name]
    assert digest.hexdigest() == sha
    assert dict(sorted(eng.counters.items())) == tallies
    assert eng.rng.random() == next_draw


def test_a_plain_decision_is_shared_and_frozen():
    eng = ChannelFaults(LinkFaultSpec(loss_rate=0.5), Pcg64(7))
    decisions = [eng.decide(float(t)) for t in range(40)]
    by_verdict = {}
    for d in decisions:
        assert by_verdict.setdefault(d.verdict, d) is d
    assert set(by_verdict) == {FrameVerdict.DELIVER, FrameVerdict.LOST}
    shared = by_verdict[FrameVerdict.DELIVER]
    assert not shared.dropped
    assert by_verdict[FrameVerdict.LOST].dropped
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.copies = 2
    assert shared.copies == 1
