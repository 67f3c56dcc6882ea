"""Shared experiment infrastructure.

Each experiment module exposes ``run(quick=True) -> dict`` returning the
measured series plus a rendered report, and a set of *shape checks* —
the paper's qualitative claims — that the benchmark suite asserts.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..cluster import Cluster
from ..config import ClusterConfig
from ..parallel import run_tasks
from ..workloads import SweepSeries, netpipe_sizes, pingpong, stream

__all__ = [
    "quick_sizes",
    "full_sizes",
    "sweep_pingpong",
    "sweep_stream",
    "check",
    "ShapeCheckFailure",
]


class ShapeCheckFailure(AssertionError):
    """A paper-shape invariant did not hold."""


def check(condition: bool, claim: str, detail: str = "") -> None:
    """Assert a paper-shape claim with a readable message."""
    if not condition:
        raise ShapeCheckFailure(f"shape claim violated: {claim}" + (f" ({detail})" if detail else ""))


def quick_sizes() -> List[int]:
    """Reduced grid for CI/benchmarks: 10^2 .. 10^6."""
    return [100, 1_000, 10_000, 100_000, 1_000_000]


def full_sizes() -> List[int]:
    """The paper's grid: 10^1 .. 10^7, ~2 points per decade."""
    return netpipe_sizes(1, 7, points_per_decade=2)


def _pingpong_point(spec):
    """One ping-pong sweep point from a pure-data spec (pool-safe)."""
    cfg, setup_factory, nbytes = spec
    cluster = Cluster(cfg)
    return pingpong(cluster, setup_factory(), nbytes, repeats=1, warmup=1)


def sweep_pingpong(
    label: str,
    cfg: ClusterConfig,
    setup_factory: Callable,
    sizes: Sequence[int],
    jobs: int = 1,
) -> SweepSeries:
    """NetPIPE-style ping-pong bandwidth curve: a fresh ``Cluster(cfg)``
    per size, so no state carries over between points.

    ``cfg`` is pure data, so with ``jobs > 1`` the points fan out over a
    process pool and workers rebuild each cluster from it;
    ``setup_factory`` must then be a module-level callable
    (``clic_pair``, ``tcp_pair``, ...).  Points come back in size order,
    so the series is identical at any ``jobs`` value.
    """
    specs = [(cfg, setup_factory, nbytes) for nbytes in sizes]
    return SweepSeries(label, run_tasks(_pingpong_point, specs, jobs=jobs))


def _stream_point(spec):
    """One stream sweep point from a pure-data spec (pool-safe)."""
    cfg, setup_factory, nbytes, messages = spec
    cluster = Cluster(cfg)
    return stream(cluster, setup_factory(), nbytes, messages=messages)


def sweep_stream(
    label: str,
    cfg: ClusterConfig,
    setup_factory: Callable,
    sizes: Sequence[int],
    messages: int = 12,
    jobs: int = 1,
) -> "SweepSeries":
    """Pipelined stream bandwidth curve (ttcp-style), wrapped so the
    SweepSeries helpers (asymptote, half-bandwidth) apply.  Parallel
    fan-out works exactly as in :func:`sweep_pingpong`."""
    from ..workloads.pingpong import PingPongResult

    specs = [(cfg, setup_factory, nbytes, messages) for nbytes in sizes]
    series = SweepSeries(label)
    for result in run_tasks(_stream_point, specs, jobs=jobs):
        per_message_ns = result.elapsed_ns / result.messages
        series.add(
            PingPongResult(
                nbytes=result.nbytes_total // result.messages,
                rtt_ns=2 * per_message_ns,
            )
        )
    return series
