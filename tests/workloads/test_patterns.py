"""Tests for the multi-node communication patterns."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.workloads.patterns import all_pairs, hotspot, overlap_efficiency


def test_hotspot_aggregates_all_senders():
    cluster = Cluster(granada2003(num_nodes=4))
    result = hotspot(cluster, nbytes_each=100_000)
    assert result.senders == 3
    assert set(result.per_sender_done_ns) == {1, 2, 3}
    assert result.elapsed_ns > 0
    assert result.aggregate_mbps > 0


def test_hotspot_sink_is_the_bottleneck():
    """3 senders into one sink: aggregate cannot exceed one receiver's
    capacity (~600 Mb/s) — the hotspot is receiver-bound."""
    cluster = Cluster(granada2003(num_nodes=4))
    result = hotspot(cluster, nbytes_each=500_000)
    assert result.aggregate_mbps < 700


def test_hotspot_needs_multiple_nodes():
    cluster = Cluster(granada2003(num_nodes=1))
    with pytest.raises(ValueError):
        hotspot(cluster, 1000)


def test_all_pairs_completes():
    cluster = Cluster(granada2003(num_nodes=4))
    finish = all_pairs(cluster, nbytes=50_000)
    assert finish > 0
    # Every node sent to every other: 12 messages total.
    total_msgs = sum(cluster.metrics.value(f"{n.name}.clic.msgs_sent") for n in cluster.nodes)
    assert total_msgs == 12


def test_overlap_full_hiding_with_long_compute():
    cluster = Cluster(granada2003())
    eff = overlap_efficiency(cluster, nbytes=100_000, compute_ns=50e6)
    # 50 ms of compute dwarfs a 100 kB transfer; only the final-ack tail
    # (tens of us) peeks out past the compute window.
    assert eff > 0.99


def test_overlap_partial_with_short_compute():
    cluster = Cluster(granada2003())
    eff = overlap_efficiency(cluster, nbytes=2_000_000, compute_ns=1e6)
    assert 0 < eff < 1.0
