"""CLIC: the paper's lightweight kernel-level protocol."""

from ... import _lazy_exports
from .api import ClicEndpoint
from .module import ClicMessage, ClicModule, RemoteRegion

#: the control protocol (kernel echo, aliveness), imported when first used
_LAZY = {"control": ("ClicControl", "EchoStats")}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "ClicControl",
    "ClicEndpoint",
    "ClicMessage",
    "ClicModule",
    "EchoStats",
    "RemoteRegion",
]
