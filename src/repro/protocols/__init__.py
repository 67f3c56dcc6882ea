"""Protocol stacks: CLIC (the contribution), TCP/IP (baseline), GAMMA and
VIA (comparators), plus shared wire formats and reliability machinery."""

from .. import _lazy_exports
from .headers import ClicAck, ClicPacket, ClicPacketType, GammaPacket, TcpSegment, ViaPacket
from .reliability import DeliveryFailed, OrderedReceiver, WindowedSender

#: the protocol engines, each imported when first used
_LAZY = {
    "clic": ("ClicEndpoint", "ClicMessage", "ClicModule"),
    "gamma": ("GammaLayer", "GammaMessage"),
    "tcpip": ("TcpIpStack", "TcpSocket"),
    "via": ("ViaMessage", "ViaNic", "VirtualInterface"),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "ClicAck",
    "ClicEndpoint",
    "ClicMessage",
    "ClicModule",
    "ClicPacket",
    "ClicPacketType",
    "DeliveryFailed",
    "GammaLayer",
    "GammaMessage",
    "GammaPacket",
    "OrderedReceiver",
    "TcpIpStack",
    "TcpSegment",
    "TcpSocket",
    "ViaMessage",
    "ViaNic",
    "ViaPacket",
    "VirtualInterface",
    "WindowedSender",
]
