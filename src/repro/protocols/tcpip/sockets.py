"""Socket API: the syscall-wrapped face of the TCP/IP stack.

Figure 2 of the paper contrasts the deep ``sockets -> TCP -> IP ->
driver`` column against CLIC's short one; this module is that left-hand
column's top.  Every call pays the socket-layer bookkeeping plus the
full syscall machinery.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...hw.cpu import PRIO_KERNEL
from ...oskernel import UserProcess
from .tcp import TcpConnection

__all__ = ["TcpSocket"]


class TcpSocket:
    """A connected stream socket owned by a user process."""

    def __init__(self, proc: UserProcess, conn: TcpConnection):
        self.proc = proc
        self.conn = conn
        self.kernel = proc.node.kernel
        self.params = proc.node.cfg.tcp

    def send(self, nbytes: int) -> Generator:
        """Blocking stream send of ``nbytes``."""

        def body() -> Generator:
            yield from self.kernel.cpu.execute(
                self.params.socket_call_ns, PRIO_KERNEL, label="sock_send"
            )
            yield from self.conn.send(nbytes)

        yield from self.kernel.syscall(body(), label="tcp_send")

    def recv(self, nbytes: int) -> Generator:
        """Blocking receive of exactly ``nbytes`` from the stream."""

        def body() -> Generator:
            yield from self.kernel.cpu.execute(
                self.params.socket_call_ns, PRIO_KERNEL, label="sock_recv"
            )
            got = yield from self.conn.recv(nbytes)
            return got

        got = yield from self.kernel.syscall(body(), label="tcp_recv")
        return got

