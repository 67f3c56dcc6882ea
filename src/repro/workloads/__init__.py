"""Measurement workloads and transport adapters."""

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
from .mpibench import COLLECTIVES, collective_time, mpi_pingpong
from .patterns import HotspotResult, all_pairs, hotspot, overlap_efficiency
from .pingpong import PingPongResult, StreamResult, TransferFailed, pingpong, stream
from .sweep import SweepSeries, bandwidth_sweep, netpipe_sizes

__all__ = [
    "COLLECTIVES",
    "ClicAdapter",
    "HotspotResult",
    "all_pairs",
    "collective_time",
    "hotspot",
    "mpi_pingpong",
    "overlap_efficiency",
    "GammaAdapter",
    "PingPongResult",
    "StreamResult",
    "SweepSeries",
    "TcpAdapter",
    "TransferFailed",
    "ViaAdapter",
    "bandwidth_sweep",
    "clic_pair",
    "gamma_pair",
    "netpipe_sizes",
    "pingpong",
    "stream",
    "tcp_pair",
    "via_pair",
]
