"""Multi-switch fabrics: star, 2-level fat-tree, and linear chain.

The paper's testbed is two PCs behind one switch; scaling the simulated
cluster to hundreds of nodes needs a switched *fabric*.  This module
composes the existing store-and-forward :class:`~repro.hw.switch.Switch`
into three topologies:

* ``star`` — one switch, every node attached directly (the legacy
  layout; a ``topology=None`` cluster builds exactly this fabric, so
  all single-switch artifacts stay byte-identical);
* ``fat-tree`` — a 2-level tree: ``ceil(N / leaf_fan)`` leaf switches
  and ``uplink_fan`` spine switches, with one trunk from every leaf to
  every spine.  Cross-leaf unicast is spread over the spines by
  destination node (``dst_node % uplink_fan``) so each uplink's load is
  deterministic and individually accountable (:meth:`Fabric.uplink_stats`);
* ``chain`` — leaf switches in a line with one trunk between
  neighbours: the worst-case diameter, useful for stressing per-hop
  conservation accounting.

Routing is *static*: nodes register their MACs on attach, and
:meth:`Fabric.finalize` installs each MAC in every other switch's
forwarding table pointing at the correct trunk port (a closed cluster
needs no dynamic learning, and static tables keep runs deterministic).
Trunks are ordinary :class:`~repro.hw.link.Channel` pairs, so the
per-link frame-conservation invariant applies hop by hop; their names
carry a ``trunk.`` prefix (and never the ``.up``/``.down`` suffix of
node links) so the validate harness can tell edge links from trunks.

Broadcast stays loop-free by construction: in the fat-tree only the
uplink to spine 0 floods (the spanning tree through spine 0); a chain
is already a tree.  Trunk ports own synthetic MACs far above the node
MAC space purely to satisfy the switch's attach contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import LinkParams, Topology
from ..sim import Environment
from .link import Channel
from .nic.frames import MacAddress
from .switch import Switch, SwitchPort

__all__ = ["Fabric", "TRUNK_MAC_BASE"]

#: synthetic MACs for trunk ports — far above ``mac_for``'s
#: ``node_id * 16 + ch + 1`` space (node ids stay well under 2**16)
TRUNK_MAC_BASE = 0x0100_0000


class Fabric:
    """A topology of switches plus the trunks and routes between them.

    Build order mirrors :class:`~repro.cluster.Cluster`: the fabric
    creates its switches up front, the cluster attaches every NIC via
    :meth:`attach` (which records the MAC for routing), and
    :meth:`finalize` then wires the trunks and installs the static
    routes.  For the ``star`` (or single-leaf) case the fabric is
    exactly one switch and ``finalize`` is a no-op.
    """

    def __init__(
        self,
        env: Environment,
        link_params: LinkParams,
        topology: Optional[Topology],
        num_nodes: int,
        tracer=None,
        metrics=None,
        backpressure: str = "drop",
    ):
        self.env = env
        self.link_params = link_params
        self.topology = topology if topology is not None else Topology()
        self.num_nodes = num_nodes
        self.tracer = tracer
        kind = self.topology.kind
        if kind == "star":
            self.num_leaves = 1
        else:
            fan = self.topology.leaf_fan
            self.num_leaves = (num_nodes + fan - 1) // fan
        #: spine count (fat-tree with more than one leaf; else 0)
        self.num_spines = (
            self.topology.uplink_fan
            if kind == "fat-tree" and self.num_leaves > 1 else 0
        )
        self.switches: List[Switch] = []
        for index in range(self.num_leaves + self.num_spines):
            self.switches.append(Switch(
                env,
                link_params,
                tracer=tracer,
                metrics=metrics,
                backpressure=backpressure,
                name="switch" if index == 0 else f"switch{index}",
            ))
        #: trunk channels as ``(name, Channel)`` pairs, in wiring order —
        #: the cluster appends these to its link list so the per-link
        #: conservation invariant covers every inter-switch hop
        self.trunks: List[Tuple[str, Channel]] = []
        #: trunk egress ports keyed by trunk channel name (contention audit)
        self._trunk_ports: Dict[str, SwitchPort] = {}
        #: MACs attached so far, in attach order: (node_id, mac)
        self._node_macs: List[Tuple[int, MacAddress]] = []
        self._trunk_macs = 0
        #: leaf uplink ports: ``_uplinks[leaf][spine]`` (fat-tree only)
        self._uplinks: List[List[SwitchPort]] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # layout queries

    @property
    def multi_switch(self) -> bool:
        """True when the fabric has more than one switch."""
        return len(self.switches) > 1

    @property
    def switch(self) -> Switch:
        """The first switch (the whole fabric in the single-switch case)."""
        return self.switches[0]

    def leaf_of(self, node_id: int) -> int:
        """Leaf-switch index hosting ``node_id``."""
        if self.num_leaves == 1:
            return 0
        return node_id // self.topology.leaf_fan

    def leaf_for(self, node_id: int) -> Switch:
        """The leaf switch hosting ``node_id``."""
        return self.switches[self.leaf_of(node_id)]

    def hops(self, src_node: int, dst_node: int) -> int:
        """Analytic switch count on the unicast path src -> dst."""
        src_leaf, dst_leaf = self.leaf_of(src_node), self.leaf_of(dst_node)
        if src_leaf == dst_leaf:
            return 1
        if self.topology.kind == "fat-tree":
            return 3  # leaf -> spine -> leaf
        return abs(dst_leaf - src_leaf) + 1  # chain

    def spine_for(self, dst_node: int) -> int:
        """Spine index carrying cross-leaf traffic *to* ``dst_node``."""
        return dst_node % self.num_spines if self.num_spines else 0

    # ------------------------------------------------------------------
    # wiring

    def attach(self, node_id: int, egress: Channel, mac: MacAddress) -> SwitchPort:
        """Attach a NIC's downlink channel to ``node_id``'s leaf switch."""
        if self._finalized:
            raise RuntimeError("fabric already finalized")
        port = self.leaf_for(node_id).attach(egress, mac)
        self._node_macs.append((node_id, mac))
        return port

    def _next_trunk_mac(self) -> MacAddress:
        self._trunk_macs += 1
        return MacAddress(TRUNK_MAC_BASE + self._trunk_macs)

    def _link_switches(self, a: Switch, b: Switch) -> Tuple[SwitchPort, SwitchPort]:
        """Wire a full-duplex trunk between ``a`` and ``b``.

        Returns ``(port on a toward b, port on b toward a)``.  A frame
        arriving at ``b`` over the trunk ingresses *from* b's port back
        toward ``a``, so the hairpin check (and broadcast replication)
        treats the trunk exactly like any other port.
        """
        a2b = Channel(self.env, self.link_params,
                      f"trunk.{a.name}->{b.name}", tracer=self.tracer)
        b2a = Channel(self.env, self.link_params,
                      f"trunk.{b.name}->{a.name}", tracer=self.tracer)
        port_ab = a.attach(a2b, self._next_trunk_mac())
        port_ba = b.attach(b2a, self._next_trunk_mac())
        a2b.connect(b.ingress(port_ba))
        b2a.connect(a.ingress(port_ab))
        self.trunks.append((a2b.name, a2b))
        self.trunks.append((b2a.name, b2a))
        self._trunk_ports[a2b.name] = port_ab
        self._trunk_ports[b2a.name] = port_ba
        return port_ab, port_ba

    def finalize(self) -> None:
        """Wire trunks and install static routes for all attached MACs."""
        if self._finalized:
            raise RuntimeError("fabric already finalized")
        self._finalized = True
        if not self.multi_switch:
            return
        if self.topology.kind == "fat-tree":
            self._finalize_fat_tree()
        else:
            self._finalize_chain()

    def _finalize_fat_tree(self) -> None:
        leaves = self.switches[:self.num_leaves]
        spines = self.switches[self.num_leaves:]
        # spine_down[s][l]: port on spine s toward leaf l
        spine_down: List[List[SwitchPort]] = [[] for _ in spines]
        self._uplinks = [[] for _ in leaves]
        for leaf_idx, leaf in enumerate(leaves):
            for spine_idx, spine in enumerate(spines):
                up, down = self._link_switches(leaf, spine)
                # Spanning tree through spine 0: redundant uplinks do
                # not flood, so a broadcast reaches each node once.
                up.flood = spine_idx == 0
                self._uplinks[leaf_idx].append(up)
                spine_down[spine_idx].append(down)
        for node_id, mac in self._node_macs:
            home = self.leaf_of(node_id)
            spine_idx = self.spine_for(node_id)
            for leaf_idx, leaf in enumerate(leaves):
                if leaf_idx != home:
                    leaf.add_mac(self._uplinks[leaf_idx][spine_idx], mac)
            for s, spine in enumerate(spines):
                spine.add_mac(spine_down[s][home], mac)

    def _finalize_chain(self) -> None:
        leaves = self.switches
        rightward: List[Optional[SwitchPort]] = [None] * len(leaves)
        leftward: List[Optional[SwitchPort]] = [None] * len(leaves)
        for k in range(len(leaves) - 1):
            right, left = self._link_switches(leaves[k], leaves[k + 1])
            rightward[k] = right      # on switch k, toward k+1
            leftward[k + 1] = left    # on switch k+1, toward k
        for node_id, mac in self._node_macs:
            home = self.leaf_of(node_id)
            for k in range(len(leaves)):
                if k < home:
                    leaves[k].add_mac(rightward[k], mac)
                elif k > home:
                    leaves[k].add_mac(leftward[k], mac)

    # ------------------------------------------------------------------
    # accounting

    def uplink_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-trunk contention accounting.

        Maps trunk channel name to the frames/bytes carried and the
        egress queue's high-water mark — the observable that shows how
        evenly the ``dst % uplink_fan`` spreading loads the spines.
        """
        stats: Dict[str, Dict[str, float]] = {}
        for name, channel in self.trunks:
            port = self._trunk_ports[name]
            stats[name] = {
                "frames": channel.counters["frames"],
                "bytes": channel.counters["bytes"],
                "max_depth": float(port.max_depth),
            }
        return stats

    def counter_sum(self, counter: str) -> float:
        """Sum one switch counter over every switch in the fabric."""
        return sum(s.counters[counter] for s in self.switches)

    @property
    def max_queue_depth(self) -> int:
        """Highest egress-queue occupancy seen on any switch."""
        return max(s.max_queue_depth for s in self.switches)
