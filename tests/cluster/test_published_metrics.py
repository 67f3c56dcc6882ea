"""Pin the published metrics: every name and value in a run's snapshot.

A component's tallies reach the run's metrics snapshot only through the
cluster :class:`~repro.obs.MetricsRegistry`.  These small runs cover the
publishing components (kernel, bottom half, driver, NIC, NIC collective
engine, CLIC with its sender/receiver, TCP, switch, channel faults) and
compare the whole snapshot against a recorded fixture, so a dropped,
renamed or eagerly created zero counter fails here.

The two ``flow_mode="auto"`` streams also pin the hybrid engine bit for
bit: their entries add the stream's ``elapsed_ns`` and the controller's
``flow_counters``.  Between them they take every flow-mode lane — the
analytic train hop, the exact-resource train path and the express ack.

The fixture changes only on purpose.  To record it again after a
deliberate change to what a run publishes::

    PYTHONPATH=src python tests/cluster/test_published_metrics.py
"""

import json
import os

import pytest

from repro.cluster import Cluster
from repro.config import Topology, granada2003
from repro.mpi import build_world
from repro.trace import capture_fig4_point
from repro.workloads import clic_pair, pingpong, stream, tcp_pair

FIXTURE = os.path.join(os.path.dirname(__file__), "published_metrics.json")


def _clic_stream():
    cluster = Cluster(granada2003(mtu=1500), protocols=("clic",))
    stream(cluster, clic_pair(), 65536, messages=2)
    return cluster.metrics.snapshot()


def _clic_stream_flow(mtu):
    cluster = Cluster(granada2003(mtu=mtu).with_flow_mode("auto"),
                      protocols=("clic",))
    result = stream(cluster, clic_pair(), 1_000_000, messages=4)
    snapshot = cluster.metrics.snapshot()
    snapshot["elapsed_ns"] = result.elapsed_ns
    snapshot["flow_counters"] = dict(cluster.env.flow.counters)
    return snapshot


def _tcp_pingpong():
    cluster = Cluster(granada2003())
    pingpong(cluster, tcp_pair(), 1024, repeats=3, warmup=1)
    return cluster.metrics.snapshot()


def _nic_barrier():
    topology = Topology("fat-tree", leaf_fan=4, uplink_fan=2)
    cluster = Cluster(granada2003(num_nodes=8).with_topology(topology))
    world = build_world(cluster, "clic", collectives="nic")

    def program(ctx):
        yield from ctx.barrier()
        yield from ctx.barrier()

    world.run(program)
    return cluster.metrics.snapshot()


def _ge_lossy_fig4_point():
    art = capture_fig4_point(nbytes=65536, messages=4, loss=0.05,
                             loss_model="ge", seed=7)
    return art.metrics


RUNS = {
    "clic_stream": _clic_stream,
    "clic_stream_flow_mtu1500": lambda: _clic_stream_flow(1500),
    "clic_stream_flow_mtu9000": lambda: _clic_stream_flow(9000),
    "tcp_pingpong": _tcp_pingpong,
    "nic_barrier": _nic_barrier,
    "ge_lossy_fig4_point": _ge_lossy_fig4_point,
}


def _jsonable(snapshot):
    return json.loads(json.dumps(snapshot, sort_keys=True))


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_snapshot_matches_recorded_fixture(run, recorded):
    snapshot = _jsonable(RUNS[run]())
    expected = recorded[run]
    assert sorted(snapshot) == sorted(expected), "published metric names moved"
    assert snapshot == expected


def test_fixture_covers_every_publishing_layer(recorded):
    names = {name for run in recorded.values() for name in run}
    for scope in ("node0.kernel.", "node0.kernel.bh.", "node0.eth0.", "node0.nic0.",
                  "node0.clic.", "node0.clic.tx1.", "node1.clic.rx0.", "node1.tcp1.",
                  "node0.nic0.coll.", "switch.", "faults."):
        assert any(name.startswith(scope) for name in names), scope


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump({run: _jsonable(RUNS[run]()) for run in sorted(RUNS)},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
