"""Ping-pong and streaming measurement workloads.

The paper's bandwidth-vs-size curves (Figures 4–6) are NetPIPE-style
**ping-pong** measurements: node A sends an n-byte message, node B
echoes it back, and bandwidth(n) = n / (RTT/2).  This is why sender-side
critical-path costs (like the 1-copy staging) show up in the curves even
though a pipelined stream would hide them — there is no cross-message
pipelining in a ping-pong.

Latency (the "36 microseconds" headline) is the same measurement at
n = 0.  A unidirectional **stream** workload is also provided for the
utilization/interrupt-rate experiments (Section 2's analysis).

Every workload returns a plain dict of numbers; transports are duck-
typed adapters (CLIC endpoint / TCP socket / GAMMA port / VIA interface
/ MPI communicator) exposing generator ``send``/``recv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..protocols.reliability import DeliveryFailed
from ..sim import SimulationError
from ..units import bandwidth_mbps

__all__ = ["pingpong", "stream", "PingPongResult", "StreamResult", "TransferFailed"]


class TransferFailed(DeliveryFailed):
    """A workload can never finish: a transport channel failed.

    A reliable sender that exhausts its retries declares its peer dead
    and stops retransmitting, so the receiving process waits forever and
    the event queue drains.  This error replaces the event loop's generic
    complaint about that with what went wrong.

    Attributes
    ----------
    channels:
        The failure of every failed sender channel (each names the
        channel and why it failed).
    dead_peers:
        ``(protocol scope, peer node, reason)`` per peer declared dead.
    """

    def __init__(self, workload: str, channels: List[DeliveryFailed],
                 dead_peers: List[tuple]):
        self.channels = channels
        self.dead_peers = dead_peers
        causes = [str(c) for c in channels] + [
            f"{scope} declared peer {peer} dead ({reason})"
            for scope, peer, reason in dead_peers]
        super().__init__(f"{workload} did not complete: " + "; ".join(causes))


def _run_to(cluster, done, workload: str) -> None:
    """Run until ``done``; a stall behind a failed transport channel
    raises :class:`TransferFailed` instead of the generic drain error."""
    try:
        cluster.env.run(done)
    except SimulationError as exc:
        if done.triggered:
            raise
        channels: List[DeliveryFailed] = []
        dead_peers: List[tuple] = []
        for node in cluster.nodes:
            clic = getattr(node, "clic", None)
            if clic is not None:
                channels += clic.failed_channels()
                dead_peers += [(clic.scope, peer, reason)
                               for peer, reason in sorted(clic.dead_peers.items())]
        if not channels and not dead_peers:
            raise
        raise TransferFailed(workload, channels, dead_peers) from exc


@dataclass
class PingPongResult:
    """Outcome of one ping-pong measurement."""

    nbytes: int
    rtt_ns: float  # average round-trip time

    @property
    def one_way_ns(self) -> float:
        return self.rtt_ns / 2

    @property
    def bandwidth_mbps(self) -> float:
        return bandwidth_mbps(self.nbytes, self.one_way_ns)

    def as_dict(self) -> Dict[str, float]:
        """The measurement as a plain dict."""
        return {
            "nbytes": self.nbytes,
            "rtt_us": self.rtt_ns / 1000,
            "one_way_us": self.one_way_ns / 1000,
            "mbps": self.bandwidth_mbps,
        }


@dataclass
class StreamResult:
    """Outcome of one unidirectional stream measurement."""

    nbytes_total: int
    elapsed_ns: float
    messages: int

    @property
    def bandwidth_mbps(self) -> float:
        return bandwidth_mbps(self.nbytes_total, self.elapsed_ns)


def pingpong(cluster, setup, nbytes: int, repeats: int = 3, warmup: int = 1) -> PingPongResult:
    """Run a ping-pong between two transport endpoints.

    ``setup(proc_a, proc_b)`` builds the endpoint pair (see
    :mod:`repro.workloads.adapters`); each endpoint provides generator
    methods ``send(nbytes)`` (to the peer) and ``recv(nbytes)``
    (returning once an ``nbytes`` message sits in user memory).
    """
    node_a, node_b = cluster.nodes[0], cluster.nodes[1]
    proc_a, proc_b = node_a.spawn("ping"), node_b.spawn("pong")
    ep_a, ep_b = setup(proc_a, proc_b)
    result: Dict[str, float] = {}

    def ping(proc) -> Generator:
        env = proc.env
        for _ in range(warmup):
            yield from ep_a.send(nbytes)
            yield from ep_a.recv(nbytes)
        t0 = env.now
        for _ in range(repeats):
            yield from ep_a.send(nbytes)
            yield from ep_a.recv(nbytes)
        result["rtt"] = (env.now - t0) / repeats

    def pong(proc) -> Generator:
        for _ in range(warmup + repeats):
            yield from ep_b.recv(nbytes)
            yield from ep_b.send(nbytes)

    done_a = proc_a.run(ping)
    proc_b.run(pong)
    _run_to(cluster, done_a, "ping-pong")
    if "rtt" not in result:
        raise RuntimeError("ping-pong did not complete")
    return PingPongResult(nbytes=nbytes, rtt_ns=result["rtt"])


def stream(cluster, setup, nbytes: int, messages: int = 1) -> StreamResult:
    """Unidirectional stream: send ``messages`` x ``nbytes`` and time
    until the receiver holds the last byte."""
    node_a, node_b = cluster.nodes[0], cluster.nodes[1]
    proc_a, proc_b = node_a.spawn("tx"), node_b.spawn("rx")
    ep_a, ep_b = setup(proc_a, proc_b)
    result: Dict[str, float] = {}

    def tx(proc) -> Generator:
        for _ in range(messages):
            yield from ep_a.send(nbytes)

    def rx(proc) -> Generator:
        for _ in range(messages):
            yield from ep_b.recv(nbytes)
        result["done"] = proc.env.now

    proc_a.run(tx)
    done_b = proc_b.run(rx)
    _run_to(cluster, done_b, "stream")
    return StreamResult(
        nbytes_total=nbytes * messages,
        elapsed_ns=result["done"],
        messages=messages,
    )
