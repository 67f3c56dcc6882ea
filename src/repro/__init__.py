"""repro — reproduction of *The Lightweight Protocol CLIC on Gigabit
Ethernet* (Díaz et al., IPPS 2003) as a discrete-event simulation.

The package builds the paper's entire experimental stack in software: a
mechanism-level cluster node (CPU with interrupt priorities, memory and
PCI buses, Gigabit Ethernet NICs with coalescing/jumbo/scatter-gather,
link + switch), a Linux-2.4-like kernel substrate (syscalls, IRQs,
bottom halves, sk_buffs), the CLIC protocol itself, the TCP/IP baseline,
GAMMA and VIA comparators, and MPI/PVM middleware — then re-runs every
figure of the paper's evaluation on top.

Quickstart::

    from repro import Cluster, granada2003, ClicEndpoint

    cluster = Cluster(granada2003())
    a, b = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    ep_a, ep_b = ClicEndpoint(a, port=5), ClicEndpoint(b, port=5)

    def sender(proc):
        yield from ep_a.send(1, nbytes=64_000)

    def receiver(proc):
        msg = yield from ep_b.recv()
        print(f"{msg.nbytes} bytes at t={proc.env.now/1000:.1f} us")

    a.run(sender); b.run(receiver)
    cluster.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from importlib import import_module as _import_module


def _lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]) -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package that loads
    some of its submodules on first use.

    ``namespace`` is the package's ``globals()``; ``table`` (the package's
    ``_LAZY``) maps a submodule, relative to the package (``"flowmode"``,
    ``"protocols.clic"``), to the public names it exports::

        _LAZY = {"flowmode": ("FlowModeController", "FlowRoute")}
        __getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

    Reading ``package.FlowRoute`` (or ``from package import FlowRoute``)
    then imports ``package.flowmode`` and binds all of its listed names
    in the package, so later reads are plain attribute lookups.  ``dir()``
    lists every name of ``__all__``, loaded or not.  A lazy name must not
    equal a submodule's name: importing that submodule by any other route
    would bind the module object over it.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        """Import the submodule that defines ``name`` and bind its names here."""
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = _import_module(f".{module}", package)
        for export in table[module]:
            namespace[export] = getattr(loaded, export)
        return namespace[name]

    def __dir__():
        """Every public name, loaded or not."""
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


# The subpackages imported below take ``_lazy_exports`` from this module
# while it is still initialising, so it is defined above them.
from .cluster import Cluster, Node  # noqa: E402
from .config import (  # noqa: E402
    ClusterConfig,
    MTU_JUMBO,
    MTU_STANDARD,
    NodeConfig,
    granada2003,
)

#: protocol engines and workloads, imported on first access
_LAZY = {
    "protocols.clic": ("ClicEndpoint", "ClicMessage"),
    "protocols.tcpip": ("TcpIpStack", "TcpSocket"),
    "workloads": ("pingpong", "stream"),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__version__ = "1.0.0"

__all__ = [
    "ClicEndpoint",
    "ClicMessage",
    "Cluster",
    "ClusterConfig",
    "MTU_JUMBO",
    "MTU_STANDARD",
    "Node",
    "NodeConfig",
    "TcpIpStack",
    "TcpSocket",
    "granada2003",
    "pingpong",
    "stream",
]
