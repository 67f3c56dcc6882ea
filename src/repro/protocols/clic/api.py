"""User-level CLIC API.

Applications talk to CLIC through system calls (§3.1: an ``INT 80h``
costing ~0.65 µs round trip — CLIC deliberately keeps the OS in the
path, §3.2(a)).  :class:`ClicEndpoint` binds a user process to a port
and wraps every module operation in :meth:`Kernel.syscall`, so all the
entry/exit and scheduler costs the paper itemizes are charged exactly
once per call.

All methods are generators: application code runs inside the simulation
(``yield from endpoint.send(...)``).
"""

from __future__ import annotations

from typing import Generator, Optional

from ...oskernel import UserProcess
from .module import ClicMessage, ClicModule, RemoteRegion

__all__ = ["ClicEndpoint"]


class ClicEndpoint:
    """A (process, port) binding to the node's CLIC module."""

    def __init__(self, proc: UserProcess, port: int):
        self.proc = proc
        self.port = port
        self.module: ClicModule = proc.node.clic
        self.kernel = proc.node.kernel

    # -- sending -----------------------------------------------------------
    def send(self, dst_node: int, nbytes: int, tag: int = 0, payload=None) -> Generator:
        """Reliable asynchronous send: returns at handoff (msg buffered /
        on the NIC), not at delivery."""
        result = yield from self.kernel.syscall(
            self.module.send(dst_node, self.port, nbytes, tag=tag, payload=payload),
            label="clic_send",
        )
        return result

    def send_confirm(self, dst_node: int, nbytes: int, tag: int = 0, payload=None) -> Generator:
        """Send and wait for acknowledgment of reception (§5 primitive)."""

        def body() -> Generator:
            msg_id = yield from self.module.send(
                dst_node, self.port, nbytes, tag=tag, payload=payload
            )
            yield from self.module.flush(dst_node)
            return msg_id

        result = yield from self.kernel.syscall(body(), label="clic_send_confirm")
        return result

    def flush(self, dst_node: int) -> Generator:
        """Wait until everything sent to ``dst_node`` is acknowledged."""
        yield from self.kernel.syscall(self.module.flush(dst_node), label="clic_flush")

    def remote_write(self, dst_node: int, nbytes: int, tag: int = 0) -> Generator:
        """Asynchronous write into the receiver's registered region; the
        remote process needs no receive call (§3.1)."""
        result = yield from self.kernel.syscall(
            self.module.send(dst_node, self.port, nbytes, tag=tag, remote_write=True),
            label="clic_remote_write",
        )
        return result

    def broadcast(self, nbytes: int, tag: int = 0, payload=None) -> Generator:
        """Ethernet data-link broadcast to every node (unreliable)."""
        result = yield from self.kernel.syscall(
            self.module.broadcast(self.port, nbytes, tag=tag, payload=payload),
            label="clic_bcast",
        )
        return result

    # -- receiving -----------------------------------------------------------
    def recv(self, tag: Optional[int] = None, src: Optional[int] = None) -> Generator:
        """Blocking receive; returns a :class:`ClicMessage`."""
        msg = yield from self.kernel.syscall(
            self.module.recv(self.port, tag=tag, src=src, block=True),
            label="clic_recv",
        )
        return msg

    def recv_nonblocking(self, tag: Optional[int] = None, src: Optional[int] = None) -> Generator:
        """Probe: a complete message or ``None``, never blocks."""
        msg = yield from self.kernel.syscall(
            self.module.recv(self.port, tag=tag, src=src, block=False),
            label="clic_recv_nb",
        )
        return msg

    # -- remote-write regions ---------------------------------------------
    def register_region(self, size: int) -> RemoteRegion:
        """Expose ``size`` bytes for asynchronous remote writes (no
        syscall cost modeled: done once at setup)."""
        return self.module.register_region(self.port, size)

    def wait_remote_write(self) -> Generator:
        """Block until the next remote write into our region completes."""
        msg = yield from self.kernel.syscall(
            self.module.wait_remote_write(self.port), label="clic_wait_rwrite"
        )
        return msg
