"""Cluster assembly tests."""

import pytest

from repro.cluster import Cluster, mac_for
from repro.config import MTU_STANDARD, granada2003


def test_mac_convention_unique_across_nodes_and_channels():
    macs = {mac_for(n, c).value for n in range(8) for c in range(4)}
    assert len(macs) == 32


def test_mac_channel_out_of_range():
    with pytest.raises(ValueError):
        mac_for(0, 16)


def test_cluster_builds_requested_topology():
    cluster = Cluster(granada2003(num_nodes=5))
    assert len(cluster.nodes) == 5
    assert len(cluster.switch.ports) == 5
    for node in cluster.nodes:
        assert node.clic is not None
        assert node.tcp is not None
        assert node.gamma is None and node.via is None


def test_push_cluster_attaches_comparators():
    cluster = Cluster(granada2003(), protocols=("gamma",))
    for node in cluster.nodes:
        assert node.gamma is not None
        assert node.clic is None


def test_node_overrides_build_heterogeneous_cluster():
    cfg = granada2003()
    std = cfg.node.with_mtu(MTU_STANDARD)
    cluster = Cluster(cfg, node_overrides={1: std})
    assert cluster.nodes[0].mtu() == 9000
    assert cluster.nodes[1].mtu() == 1500


def test_bonded_node_has_multiple_ports():
    cfg = granada2003()
    cfg = cfg.with_node(cfg.node.with_nic_count(2))
    cluster = Cluster(cfg)
    assert len(cluster.nodes[0].nics) == 2
    # 2 nodes x 2 NICs = 4 switch ports.
    assert len(cluster.switch.ports) == 4


def test_spawn_assigns_unique_pids():
    cluster = Cluster(granada2003())
    a = cluster.nodes[0].spawn()
    b = cluster.nodes[0].spawn("named")
    assert a.pid != b.pid
    assert b.name == "named"
    assert "node0" in repr(a.node)
    assert "UserProcess" in repr(b)


def test_run_until_advances_clock():
    cluster = Cluster(granada2003())
    cluster.run(until=1_000)
    assert cluster.env.now == 1_000


def test_cluster_repr():
    cluster = Cluster(granada2003())
    assert "protocols" in repr(cluster)


def test_deterministic_rebuild_same_results():
    """Two identical clusters produce bit-identical results."""
    from dataclasses import replace

    from repro.workloads import clic_pair, pingpong

    cfg = replace(granada2003(), seed=5)
    r1 = pingpong(Cluster(cfg), clic_pair(), 10_000, repeats=2, warmup=1)
    r2 = pingpong(Cluster(cfg), clic_pair(), 10_000, repeats=2, warmup=1)
    assert r1.rtt_ns == r2.rtt_ns
