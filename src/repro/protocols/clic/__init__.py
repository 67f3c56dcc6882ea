"""CLIC: the paper's lightweight kernel-level protocol."""

from .api import ClicEndpoint
from .module import ClicMessage, ClicModule, RemoteRegion

__all__ = [
    "ClicEndpoint",
    "ClicMessage",
    "ClicModule",
    "RemoteRegion",
]
