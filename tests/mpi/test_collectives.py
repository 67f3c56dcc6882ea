"""MPI collective tests (correctness over varying world sizes).

Barrier, bcast and allreduce are the library's collectives (the ones the
experiments and the bench measure).  The reduce, gather, scatter,
allgather and alltoall tests run the LAM-era algorithms as programs over
the point-to-point API, so source matching, payload passing and
``sendrecv`` stay checked under fan-in, fan-out, ring and pairwise
traffic.
"""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.mpi import build_world


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

    leaves = build_world(cluster).run(program)
    assert min(leaves) >= max(arrivals.values())


@pytest.mark.parametrize("nodes,root", [(2, 0), (4, 0), (4, 2), (5, 3), (7, 1)])
def test_bcast_reaches_every_rank(nodes, root):
    cluster = make_cluster(nodes)

    def program(ctx):
        got = yield from ctx.bcast(4_000, root=root)
        return got

    assert build_world(cluster).run(program) == [4_000] * nodes


@pytest.mark.parametrize("nodes,root", [(2, 0), (4, 1), (5, 0), (8, 7)])
def test_reduce_collects_all_contributions(nodes, root):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Binomial tree to the root; the payload counts contributions.
        size, vrank = ctx.size, (ctx.rank - root) % ctx.size
        count, mask = 1, 1
        while mask < size:
            if vrank & mask:
                dest = (vrank - mask + root) % size
                yield from ctx.send(dest, 1_000, tag=3, payload=count)
                break
            if vrank + mask < size:
                msg = yield from ctx.recv(1_000, source=(vrank + mask + root) % size, tag=3)
                count += msg.payload
            mask *= 2
        return count

    results = build_world(cluster).run(program)
    assert results[root] == nodes


@pytest.mark.parametrize("nodes", [2, 3, 4, 6, 8])
def test_allreduce_everyone_gets_total(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        total = yield from ctx.allreduce(2_000)
        return total

    assert build_world(cluster).run(program) == [nodes] * nodes


@pytest.mark.parametrize("nodes", [2, 4, 5])
def test_gather_root_sees_all(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Linear gather: the root receives from each rank in rank order.
        if ctx.rank != 0:
            yield from ctx.send(0, 500, tag=5)
            return None
        received = {0: 500}
        for rank in range(1, ctx.size):
            msg = yield from ctx.recv(500, source=rank, tag=5)
            received[rank] = msg.nbytes
        return received

    results = build_world(cluster).run(program)
    assert set(results[0].keys()) == set(range(nodes))
    assert all(v == 500 for v in results[0].values())
    assert results[1:] == [None] * (nodes - 1)


@pytest.mark.parametrize("nodes", [2, 4, 5])
def test_scatter_every_rank_gets_slice(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Linear scatter from the root.
        if ctx.rank == 0:
            for rank in range(1, ctx.size):
                yield from ctx.send(rank, 750, tag=6)
            return 750
        msg = yield from ctx.recv(750, source=0, tag=6)
        return msg.nbytes

    assert build_world(cluster).run(program) == [750] * nodes


@pytest.mark.parametrize("nodes", [2, 3, 4, 6])
def test_allgather_totals(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Ring allgather: P-1 neighbour exchanges.
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        total = 100
        for _ in range(ctx.size - 1):
            msg = yield from ctx.sendrecv(right, 100, left, 100, tag=7)
            total += msg.nbytes
        return total

    assert build_world(cluster).run(program) == [100 * nodes] * nodes


@pytest.mark.parametrize("nodes", [2, 4, 3, 5])
def test_alltoall_totals(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Pairwise exchange: XOR partners on a power of two, a shifted
        # ring otherwise.
        size, rank = ctx.size, ctx.rank
        pof2 = size & (size - 1) == 0
        total = 200
        for step in range(1, size):
            dest = rank ^ step if pof2 else (rank + step) % size
            source = dest if pof2 else (rank - step) % size
            msg = yield from ctx.sendrecv(dest, 200, source, 200, tag=8)
            total += msg.nbytes
        return total

    assert build_world(cluster).run(program) == [200 * nodes] * nodes


def test_bcast_binomial_message_count():
    """A binomial bcast sends exactly P-1 messages in total."""
    nodes = 8
    cluster = make_cluster(nodes)

    def program(ctx):
        yield from ctx.bcast(1_000, root=0)

    build_world(cluster).run(program)
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

    build_world(cluster).run(program)
    total_msgs = sum(cluster.metrics.value(f"{node.name}.clic.msgs_sent") for node in cluster.nodes)
    assert total_msgs == nodes * math.ceil(math.log2(nodes))


def test_collectives_over_tcp_odd_world_size():
    """Non-power-of-two worlds hit allreduce's remainder fold, which must
    tolerate the TCP binding's payload-free envelopes."""
    cluster = make_cluster(3)

    def program(ctx):
        total = yield from ctx.allreduce(500)
        return total

    assert build_world(cluster, transport="tcp").run(program) == [3, 3, 3]


def test_collectives_over_tcp_transport():
    cluster = make_cluster(4)

    def program(ctx):
        yield from ctx.barrier()
        got = yield from ctx.bcast(1_000, root=0)
        total = yield from ctx.allreduce(500)
        return (got, total)

    assert build_world(cluster, transport="tcp").run(program) == [(1_000, 4)] * 4
