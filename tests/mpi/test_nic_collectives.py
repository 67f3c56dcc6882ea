"""NIC-resident collective tests: correctness across world sizes and
fabric topologies, host/NIC agreement, and the zero-kernel-crossing
property the offload exists for.
"""

import pytest

from repro.cluster import Cluster
from repro.config import Topology, granada2003
from repro.faults import FaultPlan
from repro.mpi import build_world

PAYLOAD = 1_024

TOPOLOGIES = {
    "star": None,
    "fat-tree": Topology("fat-tree", leaf_fan=2, uplink_fan=2),
    "chain": Topology("chain", leaf_fan=2),
}


def make_cluster(nodes, topology="star", trace=False, faults=None):
    cfg = granada2003(num_nodes=nodes, trace=trace)
    topo = TOPOLOGIES[topology]
    if topo is not None:
        cfg = cfg.with_topology(topo)
    return Cluster(cfg, faults=faults)


def collective_suite(cluster, mode, root=0):
    """Barrier + bcast + allreduce on one world; per-rank results."""

    def program(ctx):
        yield from ctx.barrier()
        got = yield from ctx.bcast(PAYLOAD, root=root)
        count = yield from ctx.allreduce(PAYLOAD)
        return (got, count)

    return build_world(cluster, collectives=mode).run(program)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("nodes", [2, 4, 16, 64])
def test_nic_collectives_correct_on_every_fabric(nodes, topology):
    results = collective_suite(make_cluster(nodes, topology), "nic")
    # bcast delivers the full payload and allreduce folds every rank,
    # on every rank, over every topology.
    assert results == [(PAYLOAD, nodes)] * nodes


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("nodes", [2, 4, 16])
def test_host_and_nic_modes_agree(nodes, topology):
    host = collective_suite(make_cluster(nodes, topology), "host", root=1)
    nic = collective_suite(make_cluster(nodes, topology), "nic", root=1)
    assert host == nic == [(PAYLOAD, nodes)] * nodes


@pytest.mark.parametrize("nodes", [4, 8])
def test_nic_barrier_release_ordering(nodes):
    cluster = make_cluster(nodes)
    arrivals = {}

    def program(ctx):
        # Stagger the ranks, then barrier: nobody may leave before the
        # last doorbell rings (the root only releases a full tree).
        yield from ctx.proc.compute(ctx.rank * 50_000)
        arrivals[ctx.rank] = ctx.proc.env.now
        yield from ctx.barrier()
        return ctx.proc.env.now

    leaves = build_world(cluster, collectives="nic").run(program)
    assert min(leaves) >= max(arrivals.values())


def test_nic_allreduce_byte_accounting():
    nodes = 4
    cluster = make_cluster(nodes)

    def program(ctx):
        count = yield from ctx.allreduce(PAYLOAD)
        return count

    assert build_world(cluster, collectives="nic").run(program) == [nodes] * nodes
    # Every rank's engine DMAs the full reduced payload to its host.
    delivered = sum(
        node.nics[0].collective_engine().counters["bytes_delivered"]
        for node in cluster.nodes)
    assert delivered == nodes * PAYLOAD
    completions = sum(
        node.nics[0].collective_engine().counters["completions"]
        for node in cluster.nodes)
    assert completions == nodes


def test_nic_bcast_fragments_to_mtu():
    # A payload spanning several MTUs must arrive whole on every rank.
    cluster = make_cluster(4, "fat-tree")
    big = 40_000

    def program(ctx):
        got = yield from ctx.bcast(big, root=2)
        return got

    assert build_world(cluster, collectives="nic").run(program) == [big] * 4


def test_nic_mode_has_zero_kernel_crossings():
    cluster = make_cluster(4, trace=True)
    world = build_world(cluster, "clic", collectives="nic")
    t0 = []

    def program(ctx):
        yield from ctx.barrier()
        t0.append(ctx.proc.env.now)
        yield from ctx.barrier()
        yield from ctx.bcast(PAYLOAD)
        yield from ctx.allreduce(PAYLOAD)

    world.run(program)
    start = max(t0)
    syscalls = [s for s in cluster.tracer.spans
                if s.name == "syscall" and s.start_ns >= start]
    irqs = [s for s in cluster.tracer.spans
            if s.name == "irq" and s.start_ns >= start]
    assert syscalls == [], f"{len(syscalls)} syscall spans on the NIC path"
    assert irqs == [], f"{len(irqs)} IRQ spans on the NIC path"
    bh = sum(node.kernel.bottom_halves.counters["scheduled"]
             for node in cluster.nodes)
    assert bh == 0, f"{bh} bottom halves scheduled in nic mode"


def test_host_mode_does_cross_the_kernel():
    # The negative control: the same tracer query must light up for the
    # host algorithms, or the zero-crossing assertion proves nothing.
    cluster = make_cluster(4, trace=True)
    world = build_world(cluster, "clic", collectives="host")
    t0 = []

    def program(ctx):
        yield from ctx.barrier()
        t0.append(ctx.proc.env.now)
        yield from ctx.barrier()

    world.run(program)
    start = max(t0)
    syscalls = [s for s in cluster.tracer.spans
                if s.name == "syscall" and s.start_ns >= start]
    assert syscalls, "host barrier ran without a single syscall?"


def test_nic_mode_rejects_faulty_fabric():
    cluster = make_cluster(2, faults=FaultPlan.uniform(0.01))
    with pytest.raises(ValueError, match="fault-free"):
        build_world(cluster, "clic", collectives="nic")


def test_unknown_collectives_mode_rejected():
    with pytest.raises(ValueError, match="collectives"):
        build_world(make_cluster(2), "clic", collectives="offload")
