"""FIG6 — CLIC, MPI-CLIC, MPI/TCP and PVM/TCP bandwidths (paper Figure 6).

The middleware comparison: the same ping-pong at each size over

* raw CLIC,
* MPI mapped onto CLIC (the paper's LAM-on-CLIC),
* MPI mapped onto TCP/IP,
* PVM over TCP/IP (pack copies + daemon routing).

Paper claims (shape checks):

* CLIC and MPI-CLIC curves sit above MPI/TCP and PVM/TCP everywhere;
* MPI-CLIC tracks raw CLIC closely (thin middleware);
* for long messages MPI-CLIC >= 1.5 x MPI/TCP (the paper's worst case);
* PVM is the slowest contender.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_series_table, logx_plot
from ..cluster import Cluster
from ..config import MTU_JUMBO, granada2003
from ..pvm import pvm_pair
from ..parallel import run_tasks
from ..workloads import SweepSeries, clic_pair, mpi_pingpong, pingpong
from ..workloads.pingpong import PingPongResult
from .common import check, full_sizes, quick_sizes, sweep_pingpong

EXPERIMENT_ID = "FIG6"


def _mpi_point(spec):
    """One MPI sweep point from a pure-data spec (pool-safe)."""
    transport, nbytes = spec
    return mpi_pingpong(granada2003(mtu=MTU_JUMBO), transport, nbytes)


def mpi_sweep(label: str, transport: str, sizes, jobs: int = 1) -> SweepSeries:
    """Bandwidth curve through the MPI layer on the given transport."""
    specs = [(transport, nbytes) for nbytes in sizes]
    return SweepSeries(label, run_tasks(_mpi_point, specs, jobs=jobs))


def _pvm_point(nbytes: int) -> PingPongResult:
    """One PVM sweep point (pool-safe)."""
    cluster = Cluster(granada2003(mtu=MTU_JUMBO))
    return pingpong(cluster, pvm_pair(cluster.cfg.pvm), nbytes, repeats=1, warmup=1)


def pvm_sweep(label: str, sizes, jobs: int = 1) -> SweepSeries:
    """Bandwidth curve through the PVM layer (over TCP)."""
    return SweepSeries(label, run_tasks(_pvm_point, list(sizes), jobs=jobs))


def run(quick: bool = True, jobs: int = 1) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    sizes = quick_sizes() if quick else full_sizes()
    series = [
        sweep_pingpong("CLIC", granada2003(mtu=MTU_JUMBO), clic_pair, sizes, jobs=jobs),
        mpi_sweep("MPI-CLIC", "clic", sizes, jobs=jobs),
        mpi_sweep("MPI/TCP", "tcp", sizes, jobs=jobs),
        pvm_sweep("PVM/TCP", sizes, jobs=jobs),
    ]
    report = "\n\n".join(
        [
            format_series_table(series, title="FIG6: middleware bandwidths (ping-pong, Mb/s)"),
            logx_plot(series, title="FIG6: CLIC / MPI-CLIC / MPI-TCP / PVM-TCP"),
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


def shape_checks(result: Dict, series: List) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    by = {s.label: s for s in series}
    clic, mpi_clic = by["CLIC"], by["MPI-CLIC"]
    mpi_tcp, pvm = by["MPI/TCP"], by["PVM/TCP"]

    for n, a, b in zip(clic.sizes, mpi_clic.mbps, mpi_tcp.mbps):
        check(a > b, "MPI-CLIC beats MPI/TCP at every size",
              f"{n} B: {a:.1f} vs {b:.1f}")
    for n, a, b in zip(clic.sizes, mpi_tcp.mbps, pvm.mbps):
        check(a >= b, "PVM is the slowest contender",
              f"{n} B: MPI/TCP {a:.1f} vs PVM {b:.1f}")
    ratio = mpi_clic.asymptote() / mpi_tcp.asymptote()
    check(ratio >= 1.5,
          "long messages: MPI-CLIC >= 1.5x MPI/TCP (the paper's worst case)",
          f"ratio {ratio:.2f}")
    tracking = mpi_clic.asymptote() / clic.asymptote()
    check(tracking > 0.85, "MPI adds little on top of CLIC for long messages",
          f"MPI-CLIC/CLIC = {tracking:.2f}")


if __name__ == "__main__":
    print(run(quick=True)["report"])
