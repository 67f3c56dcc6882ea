"""Heap totals of two fixed runs, pinned.

The exclusive servers (CPU, PCI bus, memory bus, wire) and the store
take exactly the heap entries of the resource-holding processes they
stand for: a start trampoline or zero timeout sits where a resource
grant sat, and a release takes none.  Only the event type that carries
an entry may differ, so a seed-1 CLIC bulk stream and a TCP ping-pong
pin the totals, and no resource request or release event is left.
"""

import pytest

from repro import Cluster, granada2003, pingpong, stream
from repro.obs import aggregate_profiles
from repro.sim import profiled
from repro.workloads import clic_pair, tcp_pair


def _clic_bulk():
    cluster = Cluster(granada2003(mtu=1500).with_flow_mode("off"), protocols=("clic",))
    stream(cluster, clic_pair(), 524_718, messages=2)


def _tcp_pingpong():
    pingpong(Cluster(granada2003()), tcp_pair(), 1039, repeats=40, warmup=1)


@pytest.mark.parametrize("run, processed, scheduled", [
    (_clic_bulk, 21_995, 24_316),
    (_tcp_pingpong, 6_677, 6_761),
], ids=["clic-bulk", "tcp-pingpong"])
def test_heap_totals_are_pinned(run, processed, scheduled):
    with profiled() as sink:
        run()
    profile = aggregate_profiles(sink)
    assert (profile["events_processed"], profile["events_scheduled"]) == (processed, scheduled)
    assert not {"Request", "PriorityRequest", "Release"} & set(profile["per_type"])
