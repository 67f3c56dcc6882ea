"""Property tests for the multi-switch fabric (star/fat-tree/chain).

For every topology and every (src, dst) MAC pair: a unicast frame
reaches exactly its destination (no stray deliveries anywhere else),
takes a deterministic loop-free path, and crosses exactly the analytic
number of switches.  Plus the flow-mode regression: ``flow_mode="auto"``
on a multi-switch cluster must fall back to packet simulation with the
``unknown_topology`` reason, not crash or mis-model.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.node import mac_for
from repro.config import LinkParams, Topology, granada2003
from repro.hw import Channel, Fabric
from repro.hw.nic.frames import BROADCAST, EtherType, Frame, MacAddress
from repro.sim import Environment

LINK = LinkParams()

TOPOLOGIES = [
    pytest.param(None, 4, id="star-4"),
    pytest.param(Topology("fat-tree", leaf_fan=2, uplink_fan=2), 8, id="fat-tree-8"),
    pytest.param(Topology("fat-tree", leaf_fan=3, uplink_fan=1), 7, id="fat-tree-7"),
    pytest.param(Topology("chain", leaf_fan=2), 6, id="chain-6"),
    pytest.param(Topology("chain", leaf_fan=1), 4, id="chain-4"),
]


class Harness:
    """A fabric with scripted endpoints instead of full nodes."""

    def __init__(self, topology, num_nodes):
        self.env = Environment()
        self.n = num_nodes
        self.fabric = Fabric(self.env, LINK, topology, num_nodes)
        self.received = {i: [] for i in range(num_nodes)}
        self._uplinks = []
        for i in range(num_nodes):
            down = Channel(self.env, LINK, f"node{i}.down")
            up = Channel(self.env, LINK, f"node{i}.up")
            port = self.fabric.attach(i, down, mac_for(i))
            down.connect(lambda frame, i=i: self.received[i].append(frame))
            up.connect(port.switch.ingress(port))
            self._uplinks.append(up)
        self.fabric.finalize()

    def send(self, src, dst_mac, nbytes=64):
        frame = Frame(src=mac_for(src), dst=dst_mac,
                      ethertype=EtherType.CLIC, payload_bytes=nbytes)
        self.env.process(self._uplinks[src].transmit(frame))

    def run(self):
        self.env.run(until=10e9)


@pytest.mark.parametrize("topology,num_nodes", TOPOLOGIES)
def test_unicast_reaches_exactly_its_destination(topology, num_nodes):
    for src in range(num_nodes):
        for dst in range(num_nodes):
            if dst == src:
                continue
            h = Harness(topology, num_nodes)
            h.send(src, mac_for(dst))
            h.run()
            assert len(h.received[dst]) == 1, f"{src}->{dst} lost"
            strays = {i: len(v) for i, v in h.received.items()
                      if i != dst and v}
            assert not strays, f"{src}->{dst} also delivered to {strays}"
            assert h.fabric.counter_sum("unknown_dst") == 0
            assert h.fabric.counter_sum("drops") == 0


@pytest.mark.parametrize("topology,num_nodes", TOPOLOGIES)
def test_hop_count_matches_analytic_depth(topology, num_nodes):
    for src in range(num_nodes):
        for dst in range(num_nodes):
            if dst == src:
                continue
            h = Harness(topology, num_nodes)
            h.send(src, mac_for(dst))
            h.run()
            # One unicast: total forwards across the fabric == switches
            # on the path — a loop would inflate this count.
            hops = h.fabric.counter_sum("forwarded")
            assert hops == h.fabric.hops(src, dst), (
                f"{src}->{dst}: {hops} forwards, "
                f"analytic {h.fabric.hops(src, dst)}"
            )


@pytest.mark.parametrize("topology,num_nodes", TOPOLOGIES)
def test_path_is_deterministic(topology, num_nodes, seeded_rng):
    rng = seeded_rng()
    pairs = [(int(s), int(d)) for s, d in
             rng.integers(0, num_nodes, size=(8, 2)) if s != d]
    journeys = []
    for _ in range(2):
        h = Harness(topology, num_nodes)
        for src, dst in pairs:
            h.send(src, mac_for(dst))
        h.run()
        journeys.append(h.fabric.uplink_stats())
    assert journeys[0] == journeys[1]


@pytest.mark.parametrize("topology,num_nodes", TOPOLOGIES)
def test_broadcast_reaches_every_node_exactly_once(topology, num_nodes):
    # Loop-free flooding: the fat-tree's spanning tree through spine 0
    # (redundant uplinks have flood=False) must not duplicate or loop.
    h = Harness(topology, num_nodes)
    h.send(0, BROADCAST)
    h.run()
    for i in range(1, num_nodes):
        assert len(h.received[i]) == 1, f"node {i} got {len(h.received[i])}"
    assert len(h.received[0]) == 0  # never hairpins to the sender


def test_fat_tree_spreads_uplinks_by_destination():
    topo = Topology("fat-tree", leaf_fan=2, uplink_fan=2)
    h = Harness(topo, 8)
    # node 0 -> nodes 2..5: destinations alternate spine 0/1.
    for dst in (2, 3, 4, 5):
        h.send(0, mac_for(dst))
    h.run()
    stats = h.fabric.uplink_stats()
    up_total = sum(s["frames"] for name, s in stats.items()
                   if "->switch4" in name or "->switch5" in name)
    assert up_total == 4
    # dst 2 and 4 ride spine 0 (switch4); 3 and 5 ride spine 1.
    assert stats["trunk.switch->switch4"]["frames"] == 2
    assert stats["trunk.switch->switch5"]["frames"] == 2


def test_trunk_names_carry_prefix_and_skip_nic_suffixes():
    h = Harness(Topology("chain", leaf_fan=1), 3)
    assert h.fabric.trunks, "chain of 3 must have trunks"
    for name, _ in h.fabric.trunks:
        assert name.startswith("trunk.")
        assert not name.endswith(".up") and not name.endswith(".down")


def test_star_topology_none_is_single_legacy_switch():
    h = Harness(None, 4)
    assert not h.fabric.multi_switch
    assert h.fabric.switch.name == "switch"
    assert h.fabric.trunks == []
    assert h.fabric.hops(0, 3) == 1


# ---------------------------------------------------------------------------
# flow-mode regression: multi-switch clusters take the unknown_topology
# fallback instead of mis-modeling trains over a single-switch route map.


def _flow_cluster(topology):
    cfg = granada2003(num_nodes=4)
    cfg = cfg.with_topology(topology) if topology else cfg
    import dataclasses

    cfg = dataclasses.replace(
        cfg, sim=dataclasses.replace(cfg.sim, flow_mode="auto"))
    return Cluster(cfg)


def test_flow_mode_auto_falls_back_on_fat_tree():
    cluster = _flow_cluster(Topology("fat-tree", leaf_fan=2, uplink_fan=2))
    controller = cluster.env.flow
    assert controller is not None
    assert not controller.topology_known
    plan = controller.plan_train(0, 1, None, 16, 0.0)
    assert plan == 0  # packet-exact path, no train
    assert controller.counters["fallback_unknown_topology"] == 1

    # And the cluster still moves real traffic end to end.
    from repro.oskernel import UserProcess
    from repro.protocols.clic import ClicEndpoint

    tx, rx = UserProcess(cluster.node(0), name="tx"), UserProcess(
        cluster.node(3), name="rx")

    def tx_body(proc):
        ep = ClicEndpoint(proc, 5)
        yield from ep.send(3, 120_000, tag=1)

    def rx_body(proc):
        ep = ClicEndpoint(proc, 5)
        msg = yield from ep.recv()
        return msg.nbytes

    tx.run(tx_body)
    done = rx.run(rx_body)
    cluster.env.run(until=5e9)
    assert done.value == 120_000


def test_flow_mode_auto_still_plans_on_single_switch():
    cluster = _flow_cluster(None)
    controller = cluster.env.flow
    assert controller is not None
    assert controller.topology_known
    assert controller.counters.get("fallback_unknown_topology", 0) == 0
