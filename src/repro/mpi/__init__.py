"""MPI middleware over CLIC or TCP transports (Figure 6's contenders)."""

from .. import _lazy_exports

#: every name loads on first use; a world loads its transport when built
_LAZY = {
    "api": ("ANY_SOURCE", "ANY_TAG", "MpiMessage", "RankContext", "Request"),
    "transports": ("ClicTransport", "TcpTransport"),
    "world": ("World", "build_world"),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ClicTransport",
    "MpiMessage",
    "RankContext",
    "Request",
    "TcpTransport",
    "World",
    "build_world",
]
