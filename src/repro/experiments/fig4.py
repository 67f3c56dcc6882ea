"""FIG4 — CLIC bandwidth for MTU x copy-mode (paper Figure 4).

Four curves: {MTU 9000, MTU 1500} x {0-copy, 1-copy}, bandwidth vs
message size, all with coalesced interrupts (as in the paper).

Paper claims (shape checks):

* jumbo frames improve the asymptote more than 0-copy does;
* 0-copy never hurts, and its visible effect lives in the
  latency-sensitive (ping-pong) regime where the staging copy sits on
  the critical path;
* asymptotes land near 600 Mb/s (MTU 9000) and 450 Mb/s (MTU 1500) —
  we accept a generous band since the substrate is a simulator.

Measured both ways: ping-pong (NetPIPE convention; exposes the 0-copy
cost) and pipelined stream (ttcp convention; exposes the per-frame
overhead gap between the MTUs).  The paper's prose emphasises the
stream-style asymptotes; EXPERIMENTS.md discusses the correspondence.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_series_table, logx_plot
from ..config import MTU_JUMBO, MTU_STANDARD, granada2003
from ..workloads import clic_pair
from .common import check, full_sizes, quick_sizes, sweep_pingpong, sweep_stream

EXPERIMENT_ID = "FIG4"

CONFIGS = [
    ("9000/0-copy", MTU_JUMBO, True),
    ("9000/1-copy", MTU_JUMBO, False),
    ("1500/0-copy", MTU_STANDARD, True),
    ("1500/1-copy", MTU_STANDARD, False),
]


def run(quick: bool = True, jobs: int = 1) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    sizes = quick_sizes() if quick else full_sizes()
    pp_series = []
    st_series = []
    for label, mtu, zero_copy in CONFIGS:
        cfg = granada2003(mtu=mtu, zero_copy=zero_copy)
        pp_series.append(sweep_pingpong(f"pp {label}", cfg, clic_pair, sizes, jobs=jobs))
        st_series.append(sweep_stream(f"st {label}", cfg, clic_pair, sizes, jobs=jobs))

    report = "\n\n".join(
        [
            format_series_table(pp_series, title="FIG4 (ping-pong, Mb/s)"),
            format_series_table(st_series, title="FIG4 (stream, Mb/s)"),
            logx_plot(st_series, title="FIG4: CLIC bandwidth vs size (stream)"),
        ]
    )
    result = {
        "id": EXPERIMENT_ID,
        "sizes": sizes,
        "pingpong": {s.label: s.mbps for s in pp_series},
        "stream": {s.label: s.mbps for s in st_series},
        "asymptotes": {s.label: s.asymptote() for s in st_series},
        "report": report,
    }
    shape_checks(result, pp_series, st_series)
    return result


def shape_checks(result: Dict, pp_series: List, st_series: List) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    st = {s.label.removeprefix("st "): s for s in st_series}
    pp = {s.label.removeprefix("pp "): s for s in pp_series}

    jumbo0, jumbo1 = st["9000/0-copy"], st["9000/1-copy"]
    std0, std1 = st["1500/0-copy"], st["1500/1-copy"]

    check(
        jumbo0.asymptote() > std0.asymptote() * 1.1,
        "jumbo frames raise the asymptotic bandwidth over MTU 1500",
        f"{jumbo0.asymptote():.0f} vs {std0.asymptote():.0f} Mb/s",
    )
    jumbo_gain = jumbo0.asymptote() - std0.asymptote()
    copy_gain = max(
        pp["9000/0-copy"].asymptote() - pp["9000/1-copy"].asymptote(),
        pp["1500/0-copy"].asymptote() - pp["1500/1-copy"].asymptote(),
    )
    check(
        jumbo_gain > copy_gain,
        "the improvement from jumbo frames exceeds the one from 0-copy",
        f"jumbo +{jumbo_gain:.0f} vs 0-copy +{copy_gain:.0f} Mb/s",
    )
    for mtu_label in ("9000", "1500"):
        zc, oc = pp[f"{mtu_label}/0-copy"], pp[f"{mtu_label}/1-copy"]
        for n, a, b in zip(zc.sizes, zc.mbps, oc.mbps):
            check(
                a >= b * 0.98,
                "0-copy never loses to 1-copy (ping-pong)",
                f"MTU {mtu_label}, {n} B: {a:.1f} vs {b:.1f}",
            )
    # Someplace the 0-copy gain must actually be visible (>3%).
    gains = [
        a / b
        for mtu_label in ("9000", "1500")
        for a, b in zip(pp[f"{mtu_label}/0-copy"].mbps, pp[f"{mtu_label}/1-copy"].mbps)
    ]
    check(max(gains) > 1.03, "0-copy shows a visible gain somewhere on the curves")
    # Calibration bands around the paper's asymptotes (simulator: wide).
    check(450 < jumbo0.asymptote() < 750, "MTU 9000 asymptote near the paper's ~600 Mb/s",
          f"{jumbo0.asymptote():.0f}")
    check(350 < std0.asymptote() < 600, "MTU 1500 asymptote near the paper's ~450 Mb/s",
          f"{std0.asymptote():.0f}")


if __name__ == "__main__":
    print(run(quick=True)["report"])
