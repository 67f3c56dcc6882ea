"""Queue totals of four fixed runs, pinned.

The exclusive servers (CPU, PCI bus, memory bus, wire) and the store
take the queue entries of the resource-holding processes they stand
for, less the completion timers nothing could observe: a start
trampoline or zero timeout sits where a resource grant sat, a release
takes none, and a timed hold whose timer would be the next entry popped
completes in place with none (DESIGN.md §9).  A process started with
``Environment.spawn``, which nobody can wait on, ends with no entry, a
put nobody waits on makes no event, and a link or switch hop that ends
its step takes one entry, not a trampoline and a later entry.  The
event queue's lanes and buckets hold what one heap held, cancelled
entries included.  A seed-1 CLIC bulk stream, a TCP ping-pong, a
16-node fat-tree host allreduce and a CLIC stream whose links duplicate
half the frames (the link's fault-copy branch) pin the processed,
scheduled and high-water totals, and no resource request or release
event is left.  The fat-tree's lockstep ranks keep the queue busy, so
none of its holds completes in place.

The same CLIC bulk stream under ``flow_mode="auto"`` pins the flow
engine's totals.  A train's in-order fragments cross the reliability
channel in one call, so its delayed ack is armed once instead of once
per fragment, and the run peaks at 23 queued entries instead of 83.
"""

import pytest

from repro import Cluster, granada2003, pingpong, stream
from repro.config import Topology
from repro.faults import FaultPlan
from repro.obs import aggregate_profiles
from repro.sim import profiled
from repro.workloads import clic_pair, tcp_pair
from repro.workloads.mpibench import collective_rank_times


def _clic_bulk(flow_mode="off"):
    cluster = Cluster(granada2003(mtu=1500).with_flow_mode(flow_mode), protocols=("clic",))
    stream(cluster, clic_pair(), 524_718, messages=2)


def _clic_bulk_flow():
    _clic_bulk("auto")


def _tcp_pingpong():
    pingpong(Cluster(granada2003()), tcp_pair(), 1039, repeats=40, warmup=1)


def _fat_tree_allreduce():
    cfg = granada2003(num_nodes=16).with_topology(
        Topology("fat-tree", leaf_fan=4, uplink_fan=2))
    collective_rank_times(cfg, "clic", "allreduce", 64, repeats=2, collectives="host")


def _clic_duplicated():
    cluster = Cluster(granada2003(mtu=1500), protocols=("clic",),
                      faults=FaultPlan.duplication(0.5))
    stream(cluster, clic_pair(), 65_536, messages=2)


@pytest.mark.parametrize("run, processed, scheduled, high_water", [
    (_clic_bulk, 14_320, 16_641, 90),
    (_clic_bulk_flow, 1_064, 1_319, 23),
    (_tcp_pingpong, 3_909, 3_993, 85),
    (_fat_tree_allreduce, 15_547, 15_959, 198),
    (_clic_duplicated, 10_099, 11_885, 72),
], ids=["clic-bulk", "clic-bulk-flow", "tcp-pingpong", "fat-tree-allreduce",
        "clic-duplicated"])
def test_heap_totals_are_pinned(run, processed, scheduled, high_water):
    with profiled() as sink:
        run()
    profile = aggregate_profiles(sink)
    assert (profile["events_processed"], profile["events_scheduled"],
            profile["queue_high_water"]) == (processed, scheduled, high_water)
    assert not {"Request", "PriorityRequest", "Release"} & set(profile["per_type"])
