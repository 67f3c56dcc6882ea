"""TXT-RESIL — resilience of CLIC vs TCP under injected faults.

The paper argues CLIC is "a reliable transport protocol" on raw
Ethernet; §5's comparison table shows it is the only lightweight layer
that survives frame loss at all.  This experiment quantifies *how* it
survives: goodput, message latency and retransmission overhead for CLIC
and TCP across a grid of

* uniform (i.i.d.) frame-loss rates,
* bursty loss at the **same average rate** (a Gilbert–Elliott two-state
  channel with total loss in the bad state — real Ethernet errors
  cluster: connector brownouts, switch congestion, EMI bursts), and
* a scheduled full link outage shorter than the retry budget.

Fast retransmit (both protocols) repairs an *isolated* loss in about one
round trip, so uniform loss costs roughly one RTT per dropped frame.  A
burst wipes consecutive frames — including the duplicate acks fast
retransmit feeds on — so the sender ends up in a full RTO stall with
exponential backoff.  At the same long-run loss rate, clustering the
losses therefore hurts goodput *at least as much*, which is the shape
this experiment checks.  Cells are averaged over several RNG seeds (loss
draws on a few-hundred-frame run are noisy).

Shape checks: goodput degrades monotonically with the loss rate for both
protocols; burst loss at the same average rate degrades goodput at least
as much as uniform loss; every fault the plan injects is visible in the
cluster's ``faults.*`` metrics; the outage runs complete with nothing
lost once the link returns.

The adversarial-delivery rows additionally carry *declared* contracts:
each scenario's degraded-mode expectations are an
:func:`adversarial_slo` spec evaluated into a scorecard (data, not
assert statements), and an in-sim :class:`~repro.obs.HealthWatchdog`
rides a sampler cadence during each run — the overload row must be
flagged as a pause storm while leaving the simulated metrics
bit-identical.  Every grid cell also ships its full metrics digest, so
``run()`` folds per-cell histograms into one fleet-wide registry via
:meth:`~repro.obs.MetricsRegistry.merge_from` and reports true global
syscall-latency tails (identical at any ``--jobs`` value).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..analysis import format_table
from ..cluster import Cluster
from ..config import granada2003
from ..faults import FaultPlan
from ..obs import (
    HealthWatchdog,
    Histogram,
    MetricsRegistry,
    Objective,
    SLOSpec,
    TimeSeriesSampler,
    evaluate,
)
from ..parallel import run_tasks
from ..workloads import clic_pair, pingpong, stream, tcp_pair
from .common import check

EXPERIMENT_ID = "TXT-RESIL"

#: Gilbert–Elliott scenario: total loss in the bad state, mean burst of
#: 8 frames — long enough to starve fast retransmit of duplicate acks,
#: short against the sim horizon so several bursts land per run.
MEAN_BURST_FRAMES = 8.0
LOSS_BAD = 1.0

#: per-cell RNG seeds (cells average over them)
SEEDS = (1, 7, 42)


def _cfg(seed: int):
    """The testbed config for resilience runs: MTU 1500 so loss operates
    on a statistically meaningful number of frames per run."""
    return replace(granada2003(mtu=1500), seed=seed)


def _pair(protocol: str):
    return clic_pair() if protocol == "clic" else tcp_pair()


def _sum_counters(cluster: Cluster, suffix: str) -> float:
    """Sum every registry counter whose name ends with ``suffix``."""
    return sum(
        inst.value
        for name, inst in cluster.metrics.items()
        if inst.kind == "counter" and name.endswith(suffix)
    )


def _fault_drops(cluster: Cluster) -> float:
    """Total frames the fault plan removed or damaged, from obs metrics."""
    return sum(
        _sum_counters(cluster, s)
        for s in (".loss_drops", ".burst_drops", ".outage_drops", ".corrupted")
    )


def _plan(model: str, rate: float) -> Optional[FaultPlan]:
    if rate == 0.0:
        return None
    if model == "uniform":
        return FaultPlan.uniform(rate)
    return FaultPlan.bursty(
        rate, mean_burst_frames=MEAN_BURST_FRAMES, loss_bad=LOSS_BAD
    )


def _cell(protocol: str, model: str, rate: float,
          nbytes: int, messages: int) -> Dict:
    """One grid cell, averaged over :data:`SEEDS`.

    The cell also folds every seed run's registry into one digest
    (exact histogram-bucket merges), which travels back to ``run()`` as
    plain JSON so the parent can aggregate fleet-wide percentiles —
    the per-shard half of the :meth:`MetricsRegistry.merge_from` fold.
    """
    goodputs: List[float] = []
    retx_overheads: List[float] = []
    fast_retx = 0.0
    drops = 0.0
    fold = MetricsRegistry()
    for seed in SEEDS:
        cluster = Cluster(_cfg(seed), protocols=(protocol,), faults=_plan(model, rate))
        res = stream(cluster, _pair(protocol), nbytes, messages=messages)
        goodputs.append(res.bandwidth_mbps)
        registered = _sum_counters(cluster, ".registered")
        retransmitted = _sum_counters(cluster, ".retransmitted")
        retx_overheads.append(retransmitted / registered if registered else 0.0)
        fast_retx += _sum_counters(cluster, ".fast_retransmits")
        drops += _fault_drops(cluster)
        fold.merge_from(cluster.metrics)

    # Enough repeats that the loss model actually intersects the pings
    # (a 1024 B exchange is only ~2 frames).
    lat_cluster = Cluster(_cfg(SEEDS[0]), protocols=(protocol,),
                          faults=_plan(model, rate))
    lat = pingpong(lat_cluster, _pair(protocol), 1024, repeats=20, warmup=2)
    fold.merge_from(lat_cluster.metrics)
    return {
        "protocol": protocol,
        "model": model,
        "rate": rate,
        "goodput_mbps": sum(goodputs) / len(goodputs),
        "goodput_per_seed": goodputs,
        "latency_us": lat.one_way_ns / 1000,
        "retx_overhead": sum(retx_overheads) / len(retx_overheads),
        "fast_retransmits": fast_retx,
        "fault_drops": drops,
        "digest": fold.digest(),
    }


def _outage_run(protocol: str, nbytes: int, messages: int) -> Dict:
    """Full link outage shorter than the retry budget: the stream must
    stall, back off, and complete with nothing lost.

    The outage opens at t=1 ms — mid-transfer for this stream length —
    and lasts 10 ms, so the sender is forced through RTO backoff while
    the link is dark and finishes the stream once it returns."""
    plan = FaultPlan.link_outage(1_000_000.0, 11_000_000.0, node=0, channel=0)
    cluster = Cluster(_cfg(SEEDS[0]), protocols=(protocol,), faults=plan)
    res = stream(cluster, _pair(protocol), nbytes, messages=messages)
    return {
        "protocol": protocol,
        "elapsed_ms": res.elapsed_ns / 1e6,
        "goodput_mbps": res.bandwidth_mbps,
        "delivered_bytes": res.nbytes_total,
        "retransmitted": _sum_counters(cluster, ".retransmitted"),
        "outage_drops": _sum_counters(cluster, ".outage_drops"),
    }


def _point_task(spec: Tuple) -> Dict:
    """One grid point from a pure-data spec (module-level: pool-safe)."""
    kind, args = spec[0], spec[1:]
    return _cell(*args) if kind == "cell" else _outage_run(*args)


#: adversarial-delivery scenarios (see :mod:`repro.faults`)
ADVERSARIAL_KINDS = ("reorder", "duplicate", "overload")


def adversarial_slo(kind: str, messages: int) -> SLOSpec:
    """The declared degraded-mode contract of one adversarial scenario.

    These specs replace the former hand-wired counter assertions: each
    scenario's expectations — full delivery, the degraded-mode machinery
    actually engaging, and (for the lossless overload fabric) a strict
    zero loss budget — are data a scorecard is produced from, so the
    same contract gates ``shape_checks`` and rides the run artifact.
    """
    common = (
        Objective("delivered", "summary.delivered", "floor", float(messages),
                  description="every message survives adversarial delivery"),
    )
    extra = {
        "reorder": (
            Objective("reorder-buffered", "degraded.reorder_buffered",
                      "floor", 1.0,
                      description="reordering exercised the out-of-order stash"),
        ),
        "duplicate": (
            Objective("dup-suppressed", "degraded.dup_suppressed",
                      "floor", 1.0,
                      description="duplication absorbed by receiver suppression"),
        ),
        "overload": (
            Objective("pause-engaged", "degraded.pause_events", "floor", 1.0,
                      description="overload engaged PAUSE backpressure"),
            Objective("loss-budget", "degraded.overrun_drops", "budget", 0.0,
                      description="the lossless fabric sheds nothing"),
        ),
    }[kind]
    return SLOSpec(name=f"adversarial.{kind}",
                   description=f"degraded-mode contract of the {kind} scenario",
                   objectives=common + extra)


def _adversarial_setup(kind: str) -> Tuple[FaultPlan, str, int]:
    """(fault plan, switch backpressure mode, switch queue frames) for one
    adversarial-delivery scenario.

    ``reorder``/``duplicate`` stress the receiver's reassembly and
    duplicate suppression over a normal drop-mode switch.  ``overload``
    collapses the *receiver's downlink* bandwidth 4x mid-transfer (the
    ingress keeps arriving at full rate, so the switch egress queue —
    shrunk to 8 frames — backs up) behind a PAUSE-mode (lossless)
    fabric: senders are stalled instead of frames shed — graceful
    degradation, not loss.
    """
    from ..faults import CongestionWindow, LinkFaultSpec, OutageWindow

    if kind == "reorder":
        return FaultPlan.reordering(0.25, max_delay_ns=100_000.0), "drop", 512
    if kind == "duplicate":
        return FaultPlan.duplication(0.2, max_copies=2), "drop", 512
    spike = CongestionWindow(
        window=OutageWindow(200_000.0, 4_200_000.0),
        bandwidth_factor=4.0,
        extra_latency_ns=50_000.0,
    )
    # ``stream`` sends node 0 -> node 1, so (1, 0, "down") is the switch
    # egress feeding the receiver — the only link the spike covers.
    plan = FaultPlan(links={(1, 0, "down"): LinkFaultSpec(congestion=(spike,))})
    return plan, "pause", 8


def _adversarial_run(kind: str, nbytes: int, messages: int) -> Dict:
    """One journey-traced CLIC stream under an adversarial-delivery fault.

    Returns tail latency (p50/p99/p99.9 over per-message journeys) plus
    the degraded-mode accounting: duplicates suppressed, frames parked in
    the reorder stash, overrun drops, and PAUSE backpressure time.  Runs
    serially (one cluster, one seed) so ``--jobs N`` artifacts stay
    byte-identical.

    An in-sim :class:`~repro.obs.HealthWatchdog` watches the run on a
    probe-less sampler cadence — delivery stalls, RTO storms, and pause
    storms are flagged as structured events in simulated time.  The
    watchdog is a pure observer: it registers no instruments and only
    reads counters through non-creating accessors, so the simulated
    metrics are bit-identical with it on or off.
    """
    from ..obs import JourneyProbe, JourneyRecorder, journey_latency_summary

    plan, backpressure, queue_frames = _adversarial_setup(kind)
    cfg = replace(_cfg(SEEDS[0]), switch_backpressure=backpressure)
    cluster = Cluster(cfg, protocols=("clic",), faults=plan)
    cluster.switch.queue_frames = queue_frames
    for port in cluster.switch.ports:
        port.queue.capacity = queue_frames
    recorder = JourneyRecorder(cluster.env)
    cluster.tracer.journeys = recorder
    probe = JourneyProbe.install(recorder)
    sampler = TimeSeriesSampler(cluster.env, interval_ns=50_000.0)
    watchdog = HealthWatchdog(cluster.env).attach(sampler)
    watchdog.watch_progress(
        "delivery", lambda: _sum_counters(cluster, ".pkts_rx"),
        stall_ticks=100)          # 5 ms of silence at the 50 µs cadence
    watchdog.watch_rate(
        "rto-storm", lambda: _sum_counters(cluster, ".timeouts"),
        threshold=8.0, window_ticks=20)
    watchdog.watch_rate(
        "pause-storm", lambda: cluster.metrics.value("switch.pause_time_ns"),
        threshold=100_000.0, window_ticks=20)  # >10% pause duty per 1 ms
    sampler.start()
    try:
        res = stream(cluster, clic_pair(), nbytes, messages=messages)
    finally:
        sampler.stop()
        probe.uninstall()
    metrics = cluster.metrics
    out = {
        "kind": kind,
        "backpressure": backpressure,
        "goodput_mbps": res.bandwidth_mbps,
        "summary": journey_latency_summary(recorder.as_dicts()),
        "degraded": {
            "dup_suppressed": _sum_counters(cluster, ".duplicates"),
            "reorder_buffered": _sum_counters(cluster, ".stashed"),
            "overrun_drops": (
                _sum_counters(cluster, ".stash_overflow_drops")
                + _sum_counters(cluster, ".rx_drops")
                + metrics.value("switch.drops", 0)
            ),
            "pause_events": metrics.value("switch.pause_events", 0),
            "pause_time_ns": metrics.value("switch.pause_time_ns", 0),
        },
        "health": watchdog.to_dicts(),
        "health_summary": watchdog.summary(),
    }
    out["slo"] = evaluate(adversarial_slo(kind, messages), out)
    return out


def _tail_latency(rate: float, nbytes: int, messages: int) -> Dict:
    """Journey-traced CLIC stream under burst loss: the per-message tail.

    This is the ROADMAP item-3 instrument: instead of one averaged
    goodput number, every message's journey is captured, so the p99 /
    p99.9 latency is *attributed* — which hop dominated each outlier and
    whether loss/retransmission drove it there.  Runs serially (one
    cluster, one seed) so ``--jobs N`` artifacts stay byte-identical.
    """
    from ..obs import (JourneyProbe, JourneyRecorder, explain_outliers,
                       journey_latency_summary)

    cluster = Cluster(_cfg(SEEDS[0]), protocols=("clic",),
                      faults=_plan("burst", rate))
    recorder = JourneyRecorder(cluster.env)
    cluster.tracer.journeys = recorder
    probe = JourneyProbe.install(recorder)
    try:
        stream(cluster, clic_pair(), nbytes, messages=messages)
    finally:
        probe.uninstall()
    journeys = recorder.as_dicts()
    return {
        "rate": rate,
        "summary": journey_latency_summary(journeys),
        "outliers": explain_outliers(journeys, top=3),
    }


def run(quick: bool = True, jobs: int = 1) -> Dict:
    """Run the experiment; returns results incl. a printable report.

    Every grid cell and outage run is an independent simulation, so the
    whole sweep fans out over ``jobs`` worker processes (results land in
    grid order — byte-identical to a serial run)."""
    rates = [0.0, 0.02, 0.05] if quick else [0.0, 0.01, 0.02, 0.05]
    nbytes, messages = (16_384, 48) if quick else (16_384, 96)

    specs: List[Tuple] = []
    for protocol in ("clic", "tcp"):
        for rate in rates:
            specs.append(("cell", protocol, "uniform", rate, nbytes, messages))
        for rate in rates:
            if rate > 0.0:
                specs.append(("cell", protocol, "burst", rate, nbytes, messages))
    outage_protocols = ("clic", "tcp")
    for protocol in outage_protocols:
        specs.append(("outage", protocol, nbytes, 24))

    points = run_tasks(_point_task, specs, jobs=jobs)
    cells = points[: -len(outage_protocols)]
    outages = dict(zip(outage_protocols, points[-len(outage_protocols):]))
    tail = _tail_latency(rates[1], nbytes, messages)
    adversarial = {
        kind: _adversarial_run(kind, nbytes, messages)
        for kind in ADVERSARIAL_KINDS
    }

    # Fold every cell's digest (submission order — identical at any
    # --jobs value) into one fleet registry: bucket merges are exact, so
    # these are the *true* global percentiles over every seed of every
    # cell, not an average of per-cell percentiles.
    fleet_reg = MetricsRegistry()
    for c in cells:
        fleet_reg.merge_from(c["digest"])
    syscall = Histogram("kernel.syscall_ns")
    for name, inst in fleet_reg.items():
        if inst.kind == "histogram" and name.endswith("kernel.syscall_ns"):
            syscall.merge(inst)
    fleet = {
        "cells": len(cells),
        "seeds_per_cell": len(SEEDS),
        "syscall_ns": syscall.as_dict(),
        "histograms": {
            name: inst.as_dict()
            for name, inst in fleet_reg.items() if inst.kind == "histogram"
        },
    }

    rows = [
        (c["protocol"].upper(), c["model"], f"{c['rate']:.2f}",
         round(c["goodput_mbps"], 1), round(c["latency_us"], 1),
         f"{c['retx_overhead'] * 100:.1f}%", int(c["fault_drops"]))
        for c in cells
    ]
    for p, o in outages.items():
        rows.append((p.upper(), "outage(10ms)", "-", round(o["goodput_mbps"], 1),
                     "-", "-", int(o["outage_drops"])))
    report = format_table(
        ["proto", "fault model", "loss", "goodput (Mb/s)", "1024B lat (us)",
         "retx overhead", "frames dropped"],
        rows,
        title="TXT-RESIL: CLIC vs TCP under loss, burst loss, and link outage",
    )
    s = tail["summary"]
    report += (
        f"\n\nCLIC message-latency tail under burst loss @ {tail['rate']:.2f} "
        f"(journey-traced): p50 {s['p50_us']:.0f} us, p99 {s['p99_us']:.0f} us, "
        f"p99.9 {s['p999_us']:.0f} us over {s['delivered']} messages "
        f"({s['retransmitted']} retransmitted); slowest dominated by "
        + ", ".join(f"{o['dominant_hop']} ({o['latency_us']:.0f} us, "
                    f"{o['retransmits']} retx)" for o in tail["outliers"])
    )
    adv_rows = [
        (a["kind"], a["backpressure"], round(a["goodput_mbps"], 1),
         round(a["summary"]["p50_us"], 1), round(a["summary"]["p99_us"], 1),
         round(a["summary"]["p999_us"], 1),
         int(a["degraded"]["dup_suppressed"]),
         int(a["degraded"]["reorder_buffered"]),
         int(a["degraded"]["overrun_drops"]),
         round(a["degraded"]["pause_time_ns"] / 1e6, 2))
        for a in adversarial.values()
    ]
    report += "\n\n" + format_table(
        ["fault", "backpressure", "goodput (Mb/s)", "p50 (us)", "p99 (us)",
         "p99.9 (us)", "dups suppressed", "reorder buffered", "overrun drops",
         "pause (ms)"],
        adv_rows,
        title="CLIC under adversarial delivery (journey-traced, degraded-mode accounting)",
    )
    slo_bits = []
    for kind, a in adversarial.items():
        verdict = "PASS" if a["slo"]["ok"] else (
            "FAIL " + ",".join(a["slo"]["violations"]))
        flags = [e["rule"] for e in a["health"] if e["kind"] != "recovered"]
        slo_bits.append(f"{kind}: SLO {verdict}"
                        + (f", watchdog flagged {'+'.join(flags)}" if flags else ""))
    sc = fleet["syscall_ns"]
    report += (
        "\n\nAdversarial SLO scorecards — " + "; ".join(slo_bits)
        + f"\nFleet-wide syscall tails (exact digest merge over "
        f"{fleet['cells']} cells x {fleet['seeds_per_cell']} seeds, "
        f"{sc['count']} samples): p50 {sc['p50'] / 1e3:.1f} us, "
        f"p99 {sc['p99'] / 1e3:.1f} us, p99.9 {sc['p999'] / 1e3:.1f} us"
    )
    result = {
        "id": EXPERIMENT_ID,
        "rates": rates,
        "cells": cells,
        "outages": outages,
        "tail_latency": tail,
        "adversarial": adversarial,
        "fleet": fleet,
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the qualitative resilience claims on the measured data."""
    cells = result["cells"]

    def series(protocol: str, model: str) -> List[Tuple[float, Dict]]:
        return sorted(
            ((c["rate"], c) for c in cells
             if c["protocol"] == protocol and c["model"] == model),
            key=lambda rc: rc[0],
        )

    for protocol in ("clic", "tcp"):
        uni = series(protocol, "uniform")
        for (r0, a), (r1, b) in zip(uni, uni[1:]):
            check(
                b["goodput_mbps"] <= a["goodput_mbps"] * 1.02,
                f"{protocol} goodput degrades monotonically with uniform loss",
                f"{a['goodput_mbps']:.1f} @ {r0} -> {b['goodput_mbps']:.1f} @ {r1}",
            )
        for rate, burst_cell in series(protocol, "burst"):
            uni_cell = next(c for _, c in uni if c["rate"] == rate)
            check(
                burst_cell["goodput_mbps"] <= uni_cell["goodput_mbps"] * 1.1,
                f"{protocol}: burst loss at the same average rate hurts at "
                "least as much as uniform loss",
                f"@{rate}: burst {burst_cell['goodput_mbps']:.1f} vs "
                f"uniform {uni_cell['goodput_mbps']:.1f} Mb/s",
            )
        for c in cells:
            if c["protocol"] == protocol and c["rate"] > 0.0:
                check(c["fault_drops"] > 0,
                      f"{protocol}: injected faults show up in the obs metrics",
                      f"{c['model']} @ {c['rate']}: {c['fault_drops']} drops")
                check(c["retx_overhead"] > 0,
                      f"{protocol}: loss costs retransmissions",
                      f"{c['model']} @ {c['rate']}: {c['retx_overhead']:.3f}")
        outage = result["outages"][protocol]
        check(outage["outage_drops"] > 0,
              f"{protocol}: the outage actually dropped frames",
              str(outage["outage_drops"]))
        check(outage["retransmitted"] > 0,
              f"{protocol}: the outage was survived by retransmission",
              str(outage["retransmitted"]))

    tail = result.get("tail_latency")
    if tail is not None:
        s = tail["summary"]
        check(s["delivered"] == s["messages"],
              "tail-latency run: every message's journey completed",
              f"{s['delivered']}/{s['messages']}")
        check(s["p50_us"] <= s["p99_us"] <= s["p999_us"],
              "tail-latency percentiles are ordered p50 <= p99 <= p99.9",
              f"{s['p50_us']:.0f} / {s['p99_us']:.0f} / {s['p999_us']:.0f}")
        check(s["retransmitted"] > 0,
              "burst loss produced at least one retransmit-genealogy child",
              str(s["retransmitted"]))
        for o in tail["outliers"]:
            check(bool(o["dominant_hop"]),
                  "every explained outlier names a dominant hop",
                  str(o))

    for kind, a in result.get("adversarial", {}).items():
        s = a["summary"]
        check(s["p50_us"] <= s["p99_us"] <= s["p999_us"],
              f"{kind}: tail percentiles are ordered p50 <= p99 <= p99.9",
              f"{s['p50_us']:.0f} / {s['p99_us']:.0f} / {s['p999_us']:.0f}")
        # the degraded-mode expectations are the *declared* SLO spec:
        # full delivery plus the per-scenario machinery objectives
        card = a.get("slo") or evaluate(
            adversarial_slo(kind, int(s["messages"])), a)
        check(card["ok"],
              f"{kind}: declared SLO {card['slo']!r} met",
              ", ".join(card["violations"]) or "all objectives ok")
        if kind == "overload":
            storms = [e for e in a.get("health", ())
                      if e["rule"] == "pause-storm" and e["kind"] == "storm"]
            check(bool(storms),
                  "overload: the in-sim watchdog flagged the pause storm",
                  str(a.get("health_summary")))


if __name__ == "__main__":
    print(run()["report"])
