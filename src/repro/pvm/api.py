"""PVM 3-style middleware over TCP (the slowest contender in Figure 6).

PVM's messaging model explains its curve:

* ``pvm_pkbyte`` **packs** the payload into a typed send buffer — an
  extra user-space copy before the socket even sees the data;
* messages are routed via the **pvmd daemons** (task -> local daemon
  -> remote daemon -> task), adding two process hops, as Figure 6
  measures PVM;
* heavier per-call bookkeeping than MPI.

The daemon hop is modeled as added latency plus daemon CPU work on both
hosts (the daemon is a user process competing for the same CPUs).
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator

from ..config import PvmParams
from ..hw.cpu import PRIO_USER
from ..protocols.tcpip import TcpIpStack

__all__ = ["PvmTask", "pvm_pair"]

_task_ids = itertools.count(1)

#: modeled daemon CPU work per relayed message (each daemon)
DAEMON_WORK_NS = 8_000.0


class PvmTask:
    """One PVM task (process) with point-to-point messaging."""

    def __init__(self, proc, params: PvmParams):
        self.proc = proc
        self.params = params
        self.tid = next(_task_ids)
        #: peer tid -> socket
        self._sockets: Dict[int, object] = {}

    # -- wiring -----------------------------------------------------------
    @staticmethod
    def pair(proc_a, proc_b, params_a: PvmParams):
        """Create two connected tasks (one TCP connection between them)."""
        task_a = PvmTask(proc_a, params_a)
        task_b = PvmTask(proc_b, params_a)
        sock_a, sock_b = TcpIpStack.connect_pair(proc_a, proc_b)
        task_a._sockets[task_b.tid] = sock_a
        task_b._sockets[task_a.tid] = sock_b
        return task_a, task_b

    # -- messaging ----------------------------------------------------------
    def _overhead(self) -> Generator:
        yield from self.proc.cpu.execute(
            self.params.per_call_ns, PRIO_USER, label="pvm_call"
        )

    def pack_and_send(self, dest: "PvmTask", nbytes: int) -> Generator:
        """pvm_initsend + pvm_pkbyte + pvm_send."""
        yield from self._overhead()
        # User-space pack copy into the send buffer.
        yield from self.proc.node.memory.cpu_copy(
            self.proc.cpu, nbytes, PRIO_USER, label="pvm_pack"
        )
        sock = self._sockets[dest.tid]
        # Task -> pvmd -> remote pvmd -> task: daemon work both ends
        # plus queueing latency.
        yield from self.proc.cpu.execute(DAEMON_WORK_NS, PRIO_USER, label="pvmd")
        yield self.proc.env.timeout(self.params.daemon_detour_ns)
        yield from sock.send(nbytes + self.params.envelope_bytes)

    def recv(self, source: "PvmTask", nbytes: int) -> Generator:
        """pvm_recv + pvm_upkbyte."""
        yield from self._overhead()
        sock = self._sockets[source.tid]
        got = yield from sock.recv(nbytes + self.params.envelope_bytes)
        yield from self.proc.cpu.execute(DAEMON_WORK_NS, PRIO_USER, label="pvmd")
        # Unpack copy out of the receive buffer.
        yield from self.proc.node.memory.cpu_copy(
            self.proc.cpu, nbytes, PRIO_USER, label="pvm_unpack"
        )
        return got - self.params.envelope_bytes


def pvm_pair(params: PvmParams):
    """Adapter-factory for the workloads: a connected PVM task pair."""

    def setup(proc_a, proc_b):
        task_a, task_b = PvmTask.pair(proc_a, proc_b, params)

        class _Adapter:
            def __init__(self, me, peer):
                self.me, self.peer = me, peer

            def send(self, nbytes: int) -> Generator:
                yield from self.me.pack_and_send(self.peer, max(nbytes, 1))

            def recv(self, nbytes: int) -> Generator:
                got = yield from self.me.recv(self.peer, max(nbytes, 1))
                return got

        return _Adapter(task_a, task_b), _Adapter(task_b, task_a)

    return setup
