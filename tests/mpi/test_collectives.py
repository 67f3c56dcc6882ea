"""MPI collective tests (correctness over varying world sizes)."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.mpi import mpirun


def make_cluster(nodes):
    return Cluster(granada2003(num_nodes=nodes))


@pytest.mark.parametrize("nodes", [2, 3, 4, 5, 8])
def test_barrier_synchronizes(nodes):
    cluster = make_cluster(nodes)
    arrivals = {}

    def program(ctx):
        # Stagger the ranks, then barrier: all must leave after the
        # latest arrival.
        yield from ctx.proc.compute(ctx.rank * 10_000)
        arrivals[ctx.rank] = ctx.proc.env.now
        yield from ctx.barrier()
        return ctx.proc.env.now

    leaves = mpirun(cluster, program)
    assert min(leaves) >= max(arrivals.values())


@pytest.mark.parametrize("nodes,root", [(2, 0), (4, 0), (4, 2), (5, 3), (7, 1)])
def test_bcast_reaches_every_rank(nodes, root):
    cluster = make_cluster(nodes)

    def program(ctx):
        got = yield from ctx.bcast(4_000, root=root)
        return got

    assert mpirun(cluster, program) == [4_000] * nodes


@pytest.mark.parametrize("nodes,root", [(2, 0), (4, 1), (5, 0), (8, 7)])
def test_reduce_collects_all_contributions(nodes, root):
    cluster = make_cluster(nodes)

    def program(ctx):
        count = yield from ctx.reduce(1_000, root=root)
        return count

    results = mpirun(cluster, program)
    assert results[root] == nodes


@pytest.mark.parametrize("nodes", [2, 3, 4, 6, 8])
def test_allreduce_everyone_gets_total(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        total = yield from ctx.allreduce(2_000)
        return total

    assert mpirun(cluster, program) == [nodes] * nodes


@pytest.mark.parametrize("nodes", [2, 4, 5])
def test_gather_root_sees_all(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        result = yield from ctx.gather(500, root=0)
        return result

    results = mpirun(cluster, program)
    assert set(results[0].keys()) == set(range(nodes))
    assert all(v == 500 for v in results[0].values())
    assert results[1:] == [None] * (nodes - 1)


@pytest.mark.parametrize("nodes", [2, 4, 5])
def test_scatter_every_rank_gets_slice(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        got = yield from ctx.scatter(750, root=0)
        return got

    assert mpirun(cluster, program) == [750] * nodes


@pytest.mark.parametrize("nodes", [2, 3, 4, 6])
def test_allgather_totals(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        total = yield from ctx.allgather(100)
        return total

    assert mpirun(cluster, program) == [100 * nodes] * nodes


@pytest.mark.parametrize("nodes", [2, 4, 3, 5])
def test_alltoall_totals(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        total = yield from ctx.alltoall(200)
        return total

    assert mpirun(cluster, program) == [200 * nodes] * nodes


def test_bcast_binomial_message_count():
    """A binomial bcast sends exactly P-1 messages in total."""
    nodes = 8
    cluster = make_cluster(nodes)

    def program(ctx):
        yield from ctx.bcast(1_000, root=0)

    mpirun(cluster, program)
    total_msgs = sum(
        cluster.metrics.value(f"{node.name}.clic.msgs_sent") for node in cluster.nodes
    )
    assert total_msgs == nodes - 1


def test_barrier_message_complexity_logarithmic():
    """Dissemination barrier: P * ceil(log2 P) messages."""
    import math

    nodes = 8
    cluster = make_cluster(nodes)

    def program(ctx):
        yield from ctx.barrier()

    mpirun(cluster, program)
    total_msgs = sum(cluster.metrics.value(f"{node.name}.clic.msgs_sent") for node in cluster.nodes)
    assert total_msgs == nodes * math.ceil(math.log2(nodes))


def test_collectives_over_tcp_odd_world_size():
    """Non-power-of-two worlds hit allreduce's remainder fold, which must
    tolerate the TCP binding's payload-free envelopes."""
    cluster = make_cluster(3)

    def program(ctx):
        total = yield from ctx.allreduce(500)
        return total

    assert mpirun(cluster, program, transport="tcp") == [3, 3, 3]


def test_collectives_over_tcp_transport():
    cluster = make_cluster(4)

    def program(ctx):
        yield from ctx.barrier()
        got = yield from ctx.bcast(1_000, root=0)
        total = yield from ctx.allreduce(500)
        return (got, total)

    assert mpirun(cluster, program, transport="tcp") == [(1_000, 4)] * 4
