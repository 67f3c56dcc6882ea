"""MPI point-to-point API.

A deliberately small MPI: blocking send/recv, nonblocking isend/irecv
with requests, sendrecv — the subset LAM/MPICH applications of the era
lived on, and exactly what Figure 6 benchmarks.  Receives specify the
expected byte count (as real MPI posts a typed buffer).

Every call charges the middleware's per-call cost on the caller's CPU
(request bookkeeping, matching) before touching the transport, so
"MPI-CLIC sits slightly below raw CLIC" emerges the same way it does in
the paper's Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..config import MpiParams
from ..hw.cpu import PRIO_USER
from ..sim import Process

__all__ = ["RankContext", "Request", "MpiMessage", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = None
ANY_TAG = None


@dataclass
class MpiMessage:
    """Result of a receive."""

    source: int
    tag: int
    nbytes: int
    payload: object = None


class Request:
    """Handle for a nonblocking operation."""

    def __init__(self, process: Process):
        self._process = process

    def wait(self) -> Generator:
        """Block until the operation completes; returns its result."""
        result = yield self._process
        return result

    @property
    def done(self) -> bool:
        return not self._process.is_alive

    def test(self) -> Optional[object]:
        """Non-blocking completion check (the MPI_Test analogue)."""
        if self._process.is_alive:
            return None
        return self._process.value


class RankContext:
    """One MPI rank: the object application code receives."""

    def __init__(self, world, rank: int, proc, transport):
        self.world = world
        self.rank = rank
        self.proc = proc
        self.transport = transport

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def params(self) -> MpiParams:
        return self.world.params

    def _library_overhead(self) -> Generator:
        yield from self.proc.cpu.execute(
            self.params.per_call_ns, PRIO_USER, label="mpi_call"
        )

    # -- blocking point-to-point ------------------------------------------------
    def send(self, dest: int, nbytes: int, tag: int = 0, payload=None) -> Generator:
        """MPI_Send."""
        self._check_rank(dest)
        yield from self._library_overhead()
        yield from self.transport.send(dest, nbytes, tag, payload=payload)

    def recv(
        self,
        nbytes: int,
        source: Optional[int] = ANY_SOURCE,
        tag: Optional[int] = ANY_TAG,
    ) -> Generator:
        """MPI_Recv into a posted buffer of ``nbytes``."""
        if source is not None:
            self._check_rank(source)
        yield from self._library_overhead()
        env, payload = yield from self.transport.recv(source, tag, nbytes)
        if env.nbytes != nbytes:
            raise AssertionError(
                f"rank {self.rank}: posted {nbytes} B but received {env.nbytes} B"
            )
        source_rank = self.world.node_to_rank(env.source) if source is None else source
        return MpiMessage(source=source_rank, tag=env.tag, nbytes=env.nbytes, payload=payload)

    def sendrecv(
        self,
        dest: int,
        send_bytes: int,
        source: int,
        recv_bytes: int,
        tag: int = 0,
    ) -> Generator:
        """MPI_Sendrecv (deadlock-free exchange)."""
        req = self.isend(dest, send_bytes, tag=tag)
        msg = yield from self.recv(recv_bytes, source=source, tag=tag)
        yield from req.wait()
        return msg

    # -- nonblocking -------------------------------------------------------------
    def isend(self, dest: int, nbytes: int, tag: int = 0) -> Request:
        """MPI_Isend."""
        process = self.proc.env.process(
            self.send(dest, nbytes, tag=tag),
            name=f"rank{self.rank}.isend",
        )
        return Request(process)

    def irecv(
        self,
        nbytes: int,
        source: Optional[int] = ANY_SOURCE,
        tag: Optional[int] = ANY_TAG,
    ) -> Request:
        """MPI_Irecv."""
        process = self.proc.env.process(
            self.recv(nbytes, source=source, tag=tag),
            name=f"rank{self.rank}.irecv",
        )
        return Request(process)

    def waitall(self, requests) -> Generator:
        """MPI_Waitall: block until every request completes; returns
        their results in order."""
        results = []
        for req in requests:
            result = yield from req.wait()
            results.append(result)
        return results

    # -- collectives are provided by mixin-style functions -----------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world.size:
            raise ValueError(f"rank {rank} out of range (world size {self.world.size})")

    # Wire the collective algorithms in (defined in collectives.py to keep
    # this module focused on point-to-point).
    def barrier(self) -> Generator:
        """MPI_Barrier (dissemination; NIC-resident in ``"nic"`` mode)."""
        if self.world.collectives == "nic":
            from .collectives import nic_barrier

            yield from nic_barrier(self)
            return
        from .collectives import barrier

        yield from barrier(self)

    def bcast(self, nbytes: int, root: int = 0) -> Generator:
        """MPI_Bcast (binomial tree; NIC-resident in ``"nic"`` mode)."""
        if self.world.collectives == "nic":
            from .collectives import nic_bcast

            result = yield from nic_bcast(self, nbytes, root)
            return result
        from .collectives import bcast

        result = yield from bcast(self, nbytes, root)
        return result

    def allreduce(self, nbytes: int) -> Generator:
        """MPI_Allreduce (recursive doubling; NIC-resident in ``"nic"``
        mode — combine up the binomial tree, result broadcast down)."""
        if self.world.collectives == "nic":
            from .collectives import nic_allreduce

            result = yield from nic_allreduce(self, nbytes)
            return result
        from .collectives import allreduce

        result = yield from allreduce(self, nbytes)
        return result
