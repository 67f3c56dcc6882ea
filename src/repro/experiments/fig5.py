"""FIG5 — CLIC vs TCP/IP at MTU 9000 and 1500 (paper Figure 5).

All configurations use 0-copy CLIC and coalesced interrupts.  Paper
claims (shape checks):

* CLIC beats TCP/IP at every message size, for both MTUs;
* at TCP's best configuration (MTU 9000) CLIC's asymptote is close to
  twofold ("more than twofold" in the paper; we require >= 1.7);
* CLIC's curve rises faster than TCP's (reaches 80% of its own
  asymptote at a smaller size).
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_series_table, logx_plot, size_reaching
from ..config import MTU_JUMBO, MTU_STANDARD, granada2003
from ..workloads import clic_pair, tcp_pair
from .common import check, full_sizes, quick_sizes, sweep_pingpong

EXPERIMENT_ID = "FIG5"


def run(quick: bool = True, jobs: int = 1) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    sizes = quick_sizes() if quick else full_sizes()
    series = [
        sweep_pingpong("CLIC 9000", granada2003(mtu=MTU_JUMBO), clic_pair, sizes, jobs=jobs),
        sweep_pingpong("CLIC 1500", granada2003(mtu=MTU_STANDARD), clic_pair, sizes, jobs=jobs),
        sweep_pingpong("TCP 9000", granada2003(mtu=MTU_JUMBO), tcp_pair, sizes, jobs=jobs),
        sweep_pingpong("TCP 1500", granada2003(mtu=MTU_STANDARD), tcp_pair, sizes, jobs=jobs),
    ]
    report = "\n\n".join(
        [
            format_series_table(series, title="FIG5: CLIC vs TCP/IP (ping-pong, Mb/s)"),
            logx_plot(series, title="FIG5: CLIC vs TCP/IP"),
        ]
    )
    result = {
        "id": EXPERIMENT_ID,
        "sizes": sizes,
        "curves": {s.label: s.mbps for s in series},
        "asymptotes": {s.label: s.asymptote() for s in series},
        "report": report,
    }
    shape_checks(result, series)
    return result


def shape_checks(result: Dict, series) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    by = {s.label: s for s in series}
    clic9, clic15 = by["CLIC 9000"], by["CLIC 1500"]
    tcp9, tcp15 = by["TCP 9000"], by["TCP 1500"]

    for clic, tcp, mtu in ((clic9, tcp9, 9000), (clic15, tcp15, 1500)):
        for n, c, t in zip(clic.sizes, clic.mbps, tcp.mbps):
            check(c > t, "CLIC beats TCP/IP at every size",
                  f"MTU {mtu}, {n} B: CLIC {c:.1f} vs TCP {t:.1f}")
    ratio = clic9.asymptote() / tcp9.asymptote()
    check(ratio >= 1.7,
          "CLIC ~doubles TCP's bandwidth at TCP's best MTU (paper: >2x)",
          f"ratio {ratio:.2f}")
    # "Rises faster": CLIC reaches any common bandwidth level at a much
    # smaller message size than TCP does.
    threshold = tcp9.asymptote() / 2
    clic_size = size_reaching(clic9.sizes, clic9.mbps, threshold)
    tcp_size = size_reaching(tcp9.sizes, tcp9.mbps, threshold)
    check(
        clic_size is not None and tcp_size is not None and clic_size * 3 < tcp_size,
        "CLIC's curve rises faster than TCP's (reaches the same Mb/s at >=3x smaller size)",
        f"{threshold:.0f} Mb/s at CLIC {clic_size:.0f} B vs TCP {tcp_size:.0f} B",
    )
    check(tcp9.asymptote() > tcp15.asymptote(),
          "MTU 9000 is TCP's best case",
          f"{tcp9.asymptote():.0f} vs {tcp15.asymptote():.0f}")


if __name__ == "__main__":
    print(run(quick=True)["report"])
