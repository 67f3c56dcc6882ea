"""MPI benchmark kernels: point-to-point and collective timings.

The paper's companion work (Díaz et al., CLUSTER 2001) evaluated a
LAM-MPI port over CLIC; these kernels provide the standard measurements
for that layer — a rank-pair ping-pong (used by Figure 6) and per-
collective timings versus cluster size (used by the EXT-COLL extension
experiment).
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster import Cluster
from ..config import ClusterConfig
from ..mpi import build_world
from .pingpong import PingPongResult

__all__ = ["mpi_pingpong", "collective_time", "collective_rank_times", "COLLECTIVES"]

COLLECTIVES = ("barrier", "bcast", "allreduce")


def mpi_pingpong(
    cfg: ClusterConfig,
    transport: str,
    nbytes: int,
) -> PingPongResult:
    """Ping-pong between ranks 0 and 1 through the MPI layer: one
    warm-up round trip, then one timed."""
    cluster = Cluster(cfg)
    world = build_world(cluster, transport)
    n = max(nbytes, 1) if transport == "tcp" else nbytes

    def program(ctx):
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            yield from ctx.send(peer, n)
            yield from ctx.recv(n, source=peer)
            t0 = ctx.proc.env.now
            yield from ctx.send(peer, n)
            yield from ctx.recv(n, source=peer)
            return ctx.proc.env.now - t0
        for _ in range(2):
            yield from ctx.recv(n, source=peer)
            yield from ctx.send(peer, n)
        return None

    rtt = world.run(program)[0]
    return PingPongResult(nbytes=nbytes, rtt_ns=rtt)


def collective_time(
    cfg: ClusterConfig,
    transport: str,
    collective: str,
    nbytes: int,
    repeats: int = 3,
) -> float:
    """Average wall time (ns) of one host-algorithm collective across
    all ranks.

    Measured the standard way: barrier, timestamp, ``repeats``
    back-to-back collectives, timestamp, max across ranks.
    """
    return max(collective_rank_times(cfg, transport, collective, nbytes, repeats=repeats))


def collective_rank_times(
    cfg: ClusterConfig,
    transport: str,
    collective: str,
    nbytes: int,
    repeats: int = 3,
    collectives: str = "host",
) -> List[float]:
    """Per-rank average wall time (ns) of one collective — the full
    distribution :func:`collective_time` takes the max of."""
    if collective not in COLLECTIVES:
        raise ValueError(f"unknown collective {collective!r}; have {COLLECTIVES}")
    cluster = Cluster(cfg)
    world = build_world(cluster, transport, collectives=collectives)

    def program(ctx):
        op = getattr(ctx, collective)
        yield from ctx.barrier()
        t0 = ctx.proc.env.now
        for _ in range(repeats):
            if collective == "barrier":
                yield from op()
            else:
                yield from op(nbytes)
        return (ctx.proc.env.now - t0) / repeats

    return world.run(program)
