"""MPI world construction.

``build_world(cluster, transport=...)`` places one rank per node (the
paper's configuration), wires the chosen transport, and runs each rank's
program as a user process.  ``World.run`` collects per-rank return
values — the moral equivalent of ``mpirun`` over the simulated cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List

from ..cluster import Cluster
from ..config import MpiParams

if TYPE_CHECKING:
    from .api import RankContext

__all__ = ["World", "build_world"]


class World:
    """An MPI_COMM_WORLD over the simulated cluster.

    ``collectives`` selects where barrier/bcast/allreduce run:
    ``"host"`` is the classic 2003 software algorithms over the
    transport; ``"nic"`` offloads them to the NIC-resident engine
    (:mod:`repro.hw.nic.collective` — requires a fault-free fabric and
    one NIC per node).
    """

    def __init__(self, cluster: Cluster, transport: str = "clic",
                 collectives: str = "host"):
        if transport not in ("clic", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        if collectives not in ("host", "nic"):
            raise ValueError(f"unknown collectives mode {collectives!r}")
        self.cluster = cluster
        self.transport_kind = transport
        self.collectives = collectives
        self.params: MpiParams = cluster.cfg.mpi
        self.size = len(cluster.nodes)
        self._rank_to_node: Dict[int, int] = {r: r for r in range(self.size)}
        self._node_to_rank: Dict[int, int] = {n: r for r, n in self._rank_to_node.items()}
        self.ranks: List[RankContext] = []
        self._build()
        if collectives == "nic":
            self._configure_nic_collectives()

    def _build(self) -> None:
        from .api import RankContext
        from .transports import ClicTransport, TcpTransport, fresh_world_port

        procs = [self.cluster.nodes[n].spawn(f"rank{r}") for r, n in self._rank_to_node.items()]
        if self.transport_kind == "clic":
            port = fresh_world_port()
            for rank, proc in enumerate(procs):
                transport = ClicTransport(proc, rank, self._rank_to_node, port)
                self.ranks.append(RankContext(self, rank, proc, transport))
        else:
            from ..protocols.tcpip import TcpIpStack

            transports = [TcpTransport(proc, rank) for rank, proc in enumerate(procs)]
            for a in range(self.size):
                for b in range(a + 1, self.size):
                    sock_a, sock_b = TcpIpStack.connect_pair(procs[a], procs[b])
                    transports[a].connect(transports[b], sock_a)
                    transports[b].connect(transports[a], sock_b)
            for rank, proc in enumerate(procs):
                self.ranks.append(RankContext(self, rank, proc, transports[rank]))

    def _configure_nic_collectives(self) -> None:
        """Bind every rank's NIC collective engine to this world."""
        from ..cluster.node import mac_for

        if self.cluster.faults is not None:
            raise ValueError(
                "NIC collectives need a fault-free fabric — collective "
                "frames carry no reliability; use collectives='host'"
            )
        for node_id in self._rank_to_node.values():
            if len(self.cluster.nodes[node_id].nics) != 1:
                raise ValueError(
                    "NIC collectives need exactly one NIC per node "
                    "(bonded channels take the host algorithms)"
                )

        def _mac(rank: int) -> object:
            return mac_for(self._rank_to_node[rank], 0)

        for rank, node_id in self._rank_to_node.items():
            engine = self.cluster.nodes[node_id].nics[0].collective_engine()
            engine.configure(rank, self.size, _mac)

    def nic_engine(self, rank: int):
        """The collective engine serving ``rank`` (nic mode only)."""
        node_id = self._rank_to_node[rank]
        return self.cluster.nodes[node_id].nics[0].collective_engine()

    def node_to_rank(self, node_id: int) -> int:
        """Rank living on the given node id."""
        return self._node_to_rank[node_id]

    def run(self, program: Callable[[RankContext], Generator]) -> List:
        """Run ``program(ctx)`` on every rank; returns per-rank results.

        Returns once every rank has finished.  A rank that raises is
        never waited on, so its exception leaves ``env.run``.
        """
        env = self.cluster.env
        done = [ctx.proc.run(lambda p, c=ctx: program(c)) for ctx in self.ranks]
        all_done = env.event()
        pending = len(done)

        def count(event) -> None:
            nonlocal pending
            if event.ok:
                pending -= 1
                if not pending:
                    all_done.succeed()

        for event in done:
            event.callbacks.append(count)
        env.run(all_done)
        return [d.value for d in done]


def build_world(cluster: Cluster, transport: str = "clic",
                collectives: str = "host") -> World:
    """Create an MPI world over ``cluster`` with the chosen transport."""
    return World(cluster, transport=transport, collectives=collectives)

