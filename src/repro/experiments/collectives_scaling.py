"""EXT-COLL — MPI collective scaling over CLIC vs TCP (extension).

Not a figure in this paper, but the evaluation its §5 points at: "An
efficient LAM-MPI implementation on top of CLIC has also been developed
[12].  The results obtained show an improvement in the communication
performance" — we reproduce that claim for the collectives parallel
codes actually block on.

Measures barrier / bcast / allreduce wall time at 2, 4 and 8 nodes over
both transports.  Shape checks:

* every collective is faster over CLIC than over TCP at every size;
* barrier time grows sub-linearly with node count (dissemination is
  O(log P) rounds);
* an 8-node CLIC barrier still completes in O(100 us) — cheap enough
  for fine-grained codes, the paper's motivating workload class;
* at 8 nodes the TCP barrier takes more than twice as long as CLIC's.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import format_table
from ..config import granada2003
from ..workloads.mpibench import collective_time
from .common import check

EXPERIMENT_ID = "EXT-COLL"

NODE_COUNTS = (2, 4, 8)
OPS = ("barrier", "bcast", "allreduce")
PAYLOAD = 8_192


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    times: Dict[str, Dict[str, float]] = {}
    for op in OPS:
        times[op] = {}
        for nodes in NODE_COUNTS:
            for transport in ("clic", "tcp"):
                cfg = granada2003(num_nodes=nodes)
                times[op][f"{transport}/{nodes}"] = collective_time(
                    cfg, transport, op, PAYLOAD, repeats=2
                )
    rows = []
    for op in OPS:
        for nodes in NODE_COUNTS:
            clic_us = times[op][f"clic/{nodes}"] / 1000
            tcp_us = times[op][f"tcp/{nodes}"] / 1000
            rows.append((op, nodes, round(clic_us, 1), round(tcp_us, 1),
                         round(tcp_us / clic_us, 2)))
    report = format_table(
        ["collective", "nodes", "CLIC (us)", "TCP (us)", "TCP/CLIC"],
        rows,
        title=f"EXT-COLL: collective wall time ({PAYLOAD} B payload)",
    )
    result = {"id": EXPERIMENT_ID, "times": times, "report": report}
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    times = result["times"]
    for op in OPS:
        for nodes in NODE_COUNTS:
            clic = times[op][f"clic/{nodes}"]
            tcp = times[op][f"tcp/{nodes}"]
            check(clic < tcp,
                  "collectives over CLIC beat collectives over TCP",
                  f"{op}@{nodes}: {clic/1000:.1f} vs {tcp/1000:.1f} us")
    # Dissemination barrier: doubling nodes adds ~one round, not ~double.
    b2 = times["barrier"]["clic/2"]
    b8 = times["barrier"]["clic/8"]
    check(b8 < b2 * 3.5,
          "barrier scales sub-linearly (log2 P rounds)",
          f"2 nodes {b2/1000:.1f} us vs 8 nodes {b8/1000:.1f} us")
    check(b8 < 1_000_000,
          "an 8-node CLIC barrier completes within O(100 us)",
          f"{b8/1000:.1f} us")
    tcp_b8 = times["barrier"]["tcp/8"]
    check(tcp_b8 > 2 * b8,
          "CLIC's advantage holds for the synchronization-heavy barrier "
          "(TCP takes more than twice as long at 8 nodes)",
          f"{tcp_b8/1000:.1f} vs {b8/1000:.1f} us")


if __name__ == "__main__":
    print(run()["report"])
