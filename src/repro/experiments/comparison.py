"""TXT-GAMMA — the §5 comparison against GAMMA (and VIA for context).

Paper: "Compared with GAMMA, CLIC provides higher values for latencies
(36 us vs 32 us with GA620 and 9.5 us with GII), and a slightly lower
bandwidth (~600 Mb/s vs 768 with GII and 824 with GA620).  Nevertheless
CLIC ... can be ported to any system running Linux without modifying
the drivers."

Shape checks: GAMMA (modified driver) has lower latency and higher
bandwidth than CLIC; VIA's user-level path has the lowest small-message
latency; CLIC is the only one of the three that delivers reliably under
frame loss (the price/benefit table of §5).
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_table
from ..cluster import Cluster
from ..config import MTU_JUMBO, granada2003
from ..faults import FaultPlan
from ..workloads import clic_pair, gamma_pair, pingpong, stream, via_pair
from .common import check

EXPERIMENT_ID = "TXT-GAMMA"


def _loss_survivors() -> Dict[str, bool]:
    """Does a 20-fragment message survive 10% frame loss?"""
    outcomes = {}

    # CLIC: reliable transport.
    cluster = Cluster(granada2003(mtu=1500), faults=FaultPlan.uniform(0.1))
    got = []

    def clic_tx(proc):
        from ..protocols.clic import ClicEndpoint

        ep = ClicEndpoint(proc, 2)
        yield from ep.send(1, 30_000)

    def clic_rx(proc):
        from ..protocols.clic import ClicEndpoint

        ep = ClicEndpoint(proc, 2)
        msg = yield from ep.recv()
        got.append(msg.nbytes)

    cluster.nodes[0].spawn().run(clic_tx)
    cluster.nodes[1].spawn().run(clic_rx)
    cluster.env.run(until=2e9)
    outcomes["CLIC"] = got == [30_000]

    # GAMMA: no retransmission.
    cluster = Cluster(granada2003(mtu=1500), protocols=("gamma",),
                      faults=FaultPlan.uniform(0.1))
    got_g = []

    def gamma_tx(proc):
        yield from proc.node.gamma.send(1, 2, 30_000)

    def gamma_rx(proc):
        msg = yield from proc.node.gamma.recv(2)
        got_g.append(msg.nbytes)

    cluster.nodes[0].spawn().run(gamma_tx)
    cluster.nodes[1].spawn().run(gamma_rx)
    cluster.env.run(until=2e9)
    outcomes["GAMMA"] = got_g == [30_000]

    # VIA: no reliability either.
    cluster = Cluster(granada2003(mtu=1500), protocols=("via",),
                      faults=FaultPlan.uniform(0.1))
    vi_a = cluster.nodes[0].via.create_vi(3)
    vi_b = cluster.nodes[1].via.create_vi(3)
    got_v = []

    def via_tx(proc):
        yield from vi_a.send(1, 30_000)

    cluster.nodes[0].spawn().run(via_tx)
    cluster.env.run(until=2e9)
    got_v = [m.nbytes for m in vi_b.completions]
    outcomes["VIA"] = got_v == [30_000]
    return outcomes


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    clic_lat = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=2, warmup=1)
    gamma_lat = pingpong(
        Cluster(granada2003(), protocols=("gamma",)), gamma_pair(), 0, repeats=2, warmup=1
    )
    via_lat = pingpong(
        Cluster(granada2003(), protocols=("via",)), via_pair(), 0, repeats=2, warmup=1
    )
    clic_bw = stream(Cluster(granada2003(mtu=MTU_JUMBO)), clic_pair(), 2_000_000).bandwidth_mbps
    gamma_bw = stream(
        Cluster(granada2003(mtu=MTU_JUMBO), protocols=("gamma",)), gamma_pair(), 2_000_000
    ).bandwidth_mbps
    via_bw = stream(
        Cluster(granada2003(mtu=MTU_JUMBO), protocols=("via",)), via_pair(), 2_000_000
    ).bandwidth_mbps
    survivors = _loss_survivors()

    rows = [
        ("CLIC", round(clic_lat.one_way_ns / 1000, 1), round(clic_bw, 0),
         "yes" if survivors["CLIC"] else "no", "stock"),
        ("GAMMA", round(gamma_lat.one_way_ns / 1000, 1), round(gamma_bw, 0),
         "yes" if survivors["GAMMA"] else "no", "patched"),
        ("VIA", round(via_lat.one_way_ns / 1000, 1), round(via_bw, 0),
         "yes" if survivors["VIA"] else "no", "user-level"),
    ]
    report = format_table(
        ["layer", "0B latency (us)", "bandwidth (Mb/s)", "survives loss", "driver"],
        rows,
        title="TXT-GAMMA: CLIC vs GAMMA vs VIA (paper: 36us/600Mb vs 32us/824Mb; CLIC is portable+reliable)",
    )
    result = {
        "id": EXPERIMENT_ID,
        "latency_us": {
            "CLIC": clic_lat.one_way_ns / 1000,
            "GAMMA": gamma_lat.one_way_ns / 1000,
            "VIA": via_lat.one_way_ns / 1000,
        },
        "bandwidth": {"CLIC": clic_bw, "GAMMA": gamma_bw, "VIA": via_bw},
        "survives_loss": survivors,
        "report": report,
    }
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    lat, bw, loss = result["latency_us"], result["bandwidth"], result["survives_loss"]
    check(lat["GAMMA"] < lat["CLIC"], "GAMMA's latency beats CLIC's (paper: 32 vs 36 us)",
          f"{lat['GAMMA']:.1f} vs {lat['CLIC']:.1f}")
    check(bw["GAMMA"] > bw["CLIC"], "GAMMA's bandwidth beats CLIC's (paper: 768-824 vs ~600)",
          f"{bw['GAMMA']:.0f} vs {bw['CLIC']:.0f}")
    check(bw["GAMMA"] < bw["CLIC"] * 1.8, "...but not by much (same hardware limits)",
          f"{bw['GAMMA']:.0f} vs {bw['CLIC']:.0f}")
    check(loss == {"CLIC": True, "GAMMA": False, "VIA": False},
          "only CLIC delivers reliably under frame loss", str(loss))


if __name__ == "__main__":
    print(run()["report"])
