"""TCP/IP baseline stack."""

from .ip import IpDatagram, IpLayer
from .sockets import TcpSocket
from .stack import TcpIpStack
from .tcp import TcpConnection, TcpLayer

__all__ = [
    "IpDatagram",
    "IpLayer",
    "TcpConnection",
    "TcpIpStack",
    "TcpLayer",
    "TcpSocket",
]
