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

The ``multiprogramming`` run pins the CPU's preemption path: ping-pong,
a 1 MB CLIC bulk transfer and a user-priority compute slice share two
nodes, so interrupt and protocol work preempt the compute slice.  Its
entry adds each node's ``cpu.counters`` and ``cpu.total_busy`` and
the time the compute slice finished.

The fixture changes only on purpose.  To record it again after a
deliberate change to what a run publishes::

    PYTHONPATH=src python tests/cluster/test_published_metrics.py
"""

import json
import os

import pytest

from repro.cluster import Cluster
from repro.protocols.clic import ClicEndpoint
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


def multiprogramming_cluster():
    """Run the multiprogramming mix; return the cluster and the time the
    compute slice finished."""
    cluster = Cluster(granada2003(), protocols=("clic",))
    node_a, node_b = cluster.nodes
    finished = {}

    def endpoints(name_a, name_b, port):
        proc_a, proc_b = node_a.spawn(name_a), node_b.spawn(name_b)
        return proc_a, proc_b, ClicEndpoint(proc_a, port), ClicEndpoint(proc_b, port)

    ping_a, ping_b, ep_ping_a, ep_ping_b = endpoints("ping", "pong", 10)
    bulk_a, bulk_b, ep_bulk_a, ep_bulk_b = endpoints("bulk-tx", "bulk-rx", 11)

    def pinger(proc):
        for _ in range(10):
            yield from ep_ping_a.send(1, 64)
            yield from ep_ping_a.recv()

    def ponger(proc):
        for _ in range(10):
            yield from ep_ping_b.recv()
            yield from ep_ping_b.send(0, 64)

    def bulk_tx(proc):
        yield from ep_bulk_a.send(1, 1_000_000)

    def bulk_rx(proc):
        yield from ep_bulk_b.recv()

    def cruncher(proc):
        yield from proc.compute(4e6)
        finished["compute_done_ns"] = proc.env.now

    ping_a.run(pinger)
    ping_b.run(ponger)
    bulk_a.run(bulk_tx)
    bulk_b.run(bulk_rx)
    node_b.spawn("crunch").run(cruncher)
    cluster.run()
    return cluster, finished["compute_done_ns"]


def _multiprogramming():
    cluster, compute_done_ns = multiprogramming_cluster()
    snapshot = cluster.metrics.snapshot()
    snapshot["compute_done_ns"] = compute_done_ns
    for node in cluster.nodes:
        snapshot[f"{node.name}.cpu.counters"] = dict(node.cpu.counters)
        snapshot[f"{node.name}.cpu.total_busy"] = node.cpu.total_busy
    return snapshot


RUNS = {
    "clic_stream": _clic_stream,
    "clic_stream_flow_mtu1500": lambda: _clic_stream_flow(1500),
    "clic_stream_flow_mtu9000": lambda: _clic_stream_flow(9000),
    "tcp_pingpong": _tcp_pingpong,
    "nic_barrier": _nic_barrier,
    "ge_lossy_fig4_point": _ge_lossy_fig4_point,
    "multiprogramming": _multiprogramming,
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
    # Compared as text: ``8 == 8.0``, so ``==`` would miss a counter
    # published as an int where the fixture holds a float.
    assert json.dumps(snapshot, sort_keys=True) == json.dumps(expected, sort_keys=True)


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
