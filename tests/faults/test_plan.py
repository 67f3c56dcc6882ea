"""Unit tests for the declarative fault-plan layer."""

import numpy as np
import pytest

from repro.faults import (
    BurstLoss,
    ChannelFaults,
    CongestionWindow,
    DelayJitter,
    Duplication,
    FaultPlan,
    FrameVerdict,
    GilbertElliottModel,
    LinkFaultSpec,
    OutageWindow,
    SwitchBlackout,
    flap_timeline,
)


# -- OutageWindow / flap_timeline -------------------------------------------
def test_outage_window_half_open():
    w = OutageWindow(100.0, 200.0)
    assert not w.covers(99.9)
    assert w.covers(100.0)
    assert w.covers(199.9)
    assert not w.covers(200.0)
    assert w.duration_ns == 100.0


def test_outage_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(-1.0, 10.0)
    with pytest.raises(ValueError):
        OutageWindow(10.0, 10.0)


def test_flap_timeline_periodic():
    windows = flap_timeline(first_down_ns=1_000.0, down_ns=100.0, up_ns=400.0, flaps=3)
    assert windows == (
        OutageWindow(1_000.0, 1_100.0),
        OutageWindow(1_500.0, 1_600.0),
        OutageWindow(2_000.0, 2_100.0),
    )
    with pytest.raises(ValueError):
        flap_timeline(0.0, 100.0, 100.0, flaps=0)
    with pytest.raises(ValueError):
        flap_timeline(0.0, 0.0, 100.0, flaps=1)


# -- BurstLoss ---------------------------------------------------------------
def test_burst_loss_from_average_hits_target_rate():
    for avg in (0.01, 0.05, 0.2):
        burst = BurstLoss.from_average(avg, mean_burst_frames=8.0, loss_bad=0.6)
        assert burst.average_loss_rate == pytest.approx(avg)
        assert 1.0 / burst.p_bad_to_good == pytest.approx(8.0)


def test_burst_loss_validation():
    with pytest.raises(ValueError):
        BurstLoss(p_good_to_bad=0.1, p_bad_to_good=0.0)
    with pytest.raises(ValueError):
        BurstLoss(p_good_to_bad=1.5, p_bad_to_good=0.1)
    with pytest.raises(ValueError):
        BurstLoss.from_average(0.7, loss_bad=0.6)  # average must stay below loss_bad


def test_gilbert_elliott_converges_to_average_rate():
    spec = BurstLoss.from_average(0.05, mean_burst_frames=8.0, loss_bad=1.0)
    model = GilbertElliottModel(spec)
    rng = np.random.default_rng(7)
    n = 200_000
    lost = sum(model.frame_lost(rng) for _ in range(n))
    assert lost / n == pytest.approx(0.05, rel=0.15)
    assert model.bursts > 100  # the loss really arrives in bursts


def test_gilbert_elliott_deterministic_per_seed():
    spec = BurstLoss.from_average(0.1, mean_burst_frames=4.0, loss_bad=1.0)
    runs = []
    for _ in range(2):
        model = GilbertElliottModel(spec)
        rng = np.random.default_rng(99)
        runs.append([model.frame_lost(rng) for _ in range(500)])
    assert runs[0] == runs[1]


# -- plan resolution ---------------------------------------------------------
def test_plan_link_overrides_default():
    special = LinkFaultSpec(loss_rate=0.5)
    plan = FaultPlan(
        default_link=LinkFaultSpec(loss_rate=0.01),
        links={(1, 0, "down"): special},
    )
    assert plan.link_spec(1, 0, "down") is special
    assert plan.link_spec(1, 0, "up").loss_rate == 0.01
    assert plan.link_spec(0, 0, "down").loss_rate == 0.01


def test_plan_rejects_bad_direction():
    with pytest.raises(ValueError):
        FaultPlan(links={(0, 0, "sideways"): LinkFaultSpec()})


def test_blackouts_for_matches_wildcards():
    w = OutageWindow(0.0, 10.0)
    plan = FaultPlan(switch_blackouts=(
        SwitchBlackout(window=w),                 # every port
        SwitchBlackout(window=OutageWindow(5.0, 6.0), node=1),
    ))
    assert plan.blackouts_for(0) == (w,)
    assert len(plan.blackouts_for(1)) == 2


def test_link_outage_constructor_targets_both_directions():
    plan = FaultPlan.link_outage(10.0, 20.0, node=0, channel=0)
    assert plan.link_spec(0, 0, "up").outages == (OutageWindow(10.0, 20.0),)
    assert plan.link_spec(0, 0, "down").outages == (OutageWindow(10.0, 20.0),)
    assert not plan.link_spec(1, 0, "up").active


# -- ChannelFaults engine ----------------------------------------------------
def test_channel_faults_outage_beats_loss_model():
    spec = LinkFaultSpec(loss_rate=0.0, outages=(OutageWindow(100.0, 200.0),))
    eng = ChannelFaults(spec, rng=None)
    assert eng.decide(150.0).verdict is FrameVerdict.OUTAGE
    assert eng.decide(250.0).verdict is FrameVerdict.DELIVER
    assert eng.metrics.value("outage_drops") == 1
    assert FrameVerdict.LOST.dropped and FrameVerdict.OUTAGE.dropped


def test_channel_faults_requires_rng_for_stochastic_models():
    with pytest.raises(ValueError):
        ChannelFaults(LinkFaultSpec(loss_rate=0.1), rng=None)


# -- adversarial-delivery spec validation ------------------------------------
def test_delay_jitter_validation():
    with pytest.raises(ValueError):
        DelayJitter(rate=1.5, max_delay_ns=100.0)
    with pytest.raises(ValueError):
        DelayJitter(rate=-0.1, max_delay_ns=100.0)
    with pytest.raises(ValueError):
        DelayJitter(rate=0.5, max_delay_ns=0.0)
    with pytest.raises(ValueError):
        DelayJitter(rate=0.5, max_delay_ns=-10.0)
    assert DelayJitter(rate=0.0, max_delay_ns=1.0).rate == 0.0  # bounds are legal


def test_duplication_validation():
    with pytest.raises(ValueError):
        Duplication(rate=2.0)
    with pytest.raises(ValueError):
        Duplication(rate=-0.5)
    with pytest.raises(ValueError):
        Duplication(rate=0.5, max_copies=0)
    assert Duplication(rate=1.0, max_copies=1).max_copies == 1


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_duplication_max_copies_must_be_an_int(bad):
    # a float bound used to be truncated silently by the draw
    with pytest.raises(ValueError, match="max_copies"):
        Duplication(rate=0.2, max_copies=bad)
    with pytest.raises(ValueError, match="max_copies"):
        FaultPlan.duplication(0.2, max_copies=bad)


def test_congestion_window_validation():
    w = OutageWindow(0.0, 100.0)
    with pytest.raises(ValueError):
        CongestionWindow(window=w, bandwidth_factor=0.5)
    with pytest.raises(ValueError):
        CongestionWindow(window=w, extra_latency_ns=-1.0)
    with pytest.raises(ValueError):
        CongestionWindow(window=w)  # a no-op spike is a configuration bug
    ok = CongestionWindow(window=w, bandwidth_factor=4.0)
    assert ok.extra_latency_ns == 0.0


def test_switch_blackout_validation():
    with pytest.raises(ValueError):
        SwitchBlackout(window=OutageWindow(0.0, 1.0), node=-1)


def test_new_families_make_a_spec_active():
    assert not LinkFaultSpec().active
    assert LinkFaultSpec(jitter=DelayJitter(rate=0.1, max_delay_ns=1.0)).active
    assert LinkFaultSpec(duplicate=Duplication(rate=0.1)).active
    assert LinkFaultSpec(congestion=(
        CongestionWindow(window=OutageWindow(0.0, 1.0), bandwidth_factor=2.0),
    )).active


def test_adversarial_plan_constructors():
    reorder = FaultPlan.reordering(0.2, max_delay_ns=50_000.0)
    assert reorder.default_link.jitter == DelayJitter(rate=0.2, max_delay_ns=50_000.0)

    dup = FaultPlan.duplication(0.1, max_copies=3)
    assert dup.default_link.duplicate == Duplication(rate=0.1, max_copies=3)

    spike = FaultPlan.congestion_spike(1_000.0, 2_000.0, bandwidth_factor=8.0,
                                       extra_latency_ns=500.0)
    (cw,) = spike.default_link.congestion
    assert cw.window == OutageWindow(1_000.0, 2_000.0)
    assert cw.bandwidth_factor == 8.0 and cw.extra_latency_ns == 500.0

    with pytest.raises(ValueError):
        FaultPlan.reordering(0.2, max_delay_ns=0.0)
    with pytest.raises(ValueError):
        FaultPlan.duplication(1.2)
    with pytest.raises(ValueError):
        FaultPlan.congestion_spike(0.0, 1.0)  # neither knob engaged


# -- ChannelFaults.decide ----------------------------------------------------
def test_decide_draw_order_for_legacy_plans():
    """A uniform-loss plan draws one loss trial per frame, nothing
    else — the bit-reproducibility contract."""
    spec = LinkFaultSpec(loss_rate=0.3)
    eng = ChannelFaults(spec, rng=np.random.default_rng(42))
    ref = np.random.default_rng(42)
    expected = []
    for _ in range(200):
        if ref.random() < 0.3:
            expected.append(FrameVerdict.LOST)
        else:
            expected.append(FrameVerdict.DELIVER)
    decisions = [eng.decide(float(t)) for t in range(200)]
    assert [d.verdict for d in decisions] == expected
    assert all(d.copies == 1 and d.extra_delay_ns == 0.0 for d in decisions)
    assert eng.rng.random() == ref.random()


def test_decide_jitter_bounds_and_counter():
    spec = LinkFaultSpec(jitter=DelayJitter(rate=1.0, max_delay_ns=5_000.0))
    eng = ChannelFaults(spec, rng=np.random.default_rng(3))
    decisions = [eng.decide(float(t)) for t in range(100)]
    assert all(0.0 <= d.extra_delay_ns < 5_000.0 for d in decisions)
    assert any(d.extra_delay_ns > 0.0 for d in decisions)
    assert eng.metrics.value("jittered") == 100


def test_decide_duplication_copy_bounds():
    spec = LinkFaultSpec(duplicate=Duplication(rate=1.0, max_copies=3))
    eng = ChannelFaults(spec, rng=np.random.default_rng(5))
    copies = [eng.decide(float(t)).copies for t in range(200)]
    assert set(copies) <= {2, 3, 4}  # 1 original + [1, max_copies] extras
    assert len(set(copies)) > 1
    assert eng.metrics.value("duplicated") == 200
    assert eng.metrics.value("dup_copies") == sum(c - 1 for c in copies)


def test_decide_dropped_frames_never_draw_for_jitter_or_duplication():
    """Loss draws happen first; jitter/dup draw only for delivered frames,
    so two engines differing only in delivery fate stay draw-aligned."""
    spec = LinkFaultSpec(
        loss_rate=1.0,
        jitter=DelayJitter(rate=1.0, max_delay_ns=100.0),
        duplicate=Duplication(rate=1.0),
    )
    eng = ChannelFaults(spec, rng=np.random.default_rng(1))
    d = eng.decide(0.0)
    assert d.dropped and d.copies == 1 and d.extra_delay_ns == 0.0
    assert eng.metrics.value("jittered") == 0
    assert eng.metrics.value("duplicated") == 0


def test_congestion_is_deterministic_and_zero_draw():
    w1 = CongestionWindow(window=OutageWindow(100.0, 300.0), bandwidth_factor=4.0,
                          extra_latency_ns=1_000.0)
    w2 = CongestionWindow(window=OutageWindow(200.0, 400.0), bandwidth_factor=2.0,
                          extra_latency_ns=500.0)
    eng = ChannelFaults(LinkFaultSpec(congestion=(w1, w2)), rng=None)  # no RNG needed
    assert eng.congestion_factor(50.0) == 1.0
    assert eng.congestion_factor(150.0) == 4.0
    assert eng.congestion_factor(250.0) == 8.0  # overlap compounds
    assert eng.congestion_latency_ns(250.0) == 1_500.0  # overlap sums
    assert eng.congestion_factor(350.0) == 2.0
    d = eng.decide(250.0)
    assert d.congested and d.verdict is FrameVerdict.DELIVER
    assert eng.metrics.value("congested") == 1
