"""Measurement workloads and transport adapters."""

from .. import _lazy_exports
from .adapters import (
    ClicAdapter,
    GammaAdapter,
    TcpAdapter,
    ViaAdapter,
    clic_pair,
    gamma_pair,
    tcp_pair,
    via_pair,
)
from .pingpong import PingPongResult, StreamResult, TransferFailed, pingpong, stream

#: the MPI benchmark and the sweep grid/series, imported when first used
_LAZY = {
    "mpibench": ("COLLECTIVES", "collective_time", "mpi_pingpong"),
    "sweep": ("SweepSeries", "netpipe_sizes"),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "COLLECTIVES",
    "ClicAdapter",
    "collective_time",
    "mpi_pingpong",
    "GammaAdapter",
    "PingPongResult",
    "StreamResult",
    "SweepSeries",
    "TcpAdapter",
    "TransferFailed",
    "ViaAdapter",
    "clic_pair",
    "gamma_pair",
    "netpipe_sizes",
    "pingpong",
    "stream",
    "tcp_pair",
    "via_pair",
]
