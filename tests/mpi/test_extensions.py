"""Tests for MPI extensions: waitall, and scan / reduce_scatter run as
programs over the point-to-point API (a payload-carrying chain and a
ring of sendrecv steps)."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.mpi import build_world


def make_cluster(nodes=2):
    return Cluster(granada2003(num_nodes=nodes))


def test_waitall_gathers_results_in_order():
    cluster = make_cluster()

    def program(ctx):
        peer = 1 - ctx.rank
        reqs = [ctx.irecv(100 * (i + 1), source=peer, tag=i) for i in range(3)]
        for i in range(3):
            yield from ctx.send(peer, 100 * (i + 1), tag=i)
        msgs = yield from ctx.waitall(reqs)
        return [m.nbytes for m in msgs]

    results = build_world(cluster).run(program)
    assert results == [[100, 200, 300]] * 2


@pytest.mark.parametrize("nodes", [2, 3, 5])
def test_scan_prefix_counts(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Inclusive prefix along a linear chain (LAM's basic scan).
        count = 1
        if ctx.rank > 0:
            msg = yield from ctx.recv(1_000, source=ctx.rank - 1, tag=9)
            count += msg.payload
        if ctx.rank < ctx.size - 1:
            yield from ctx.send(ctx.rank + 1, 1_000, tag=9, payload=count)
        return count

    assert build_world(cluster).run(program) == [r + 1 for r in range(nodes)]


@pytest.mark.parametrize("nodes", [2, 4, 5])
def test_reduce_scatter_everyone_combines_all(nodes):
    cluster = make_cluster(nodes)

    def program(ctx):
        # Ring reduce-scatter: P-1 steps, each folding in one partial.
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        count = 1
        for _ in range(ctx.size - 1):
            yield from ctx.sendrecv(right, 2_000, left, 2_000, tag=10)
            count += 1
        return count

    assert build_world(cluster).run(program) == [nodes] * nodes
