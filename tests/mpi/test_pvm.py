"""PVM layer tests."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.pvm import PvmTask, pvm_pair
from repro.workloads import pingpong, tcp_pair


def make_cluster():
    return Cluster(granada2003())


def test_pvm_roundtrip():
    cluster = make_cluster()
    result = pingpong(cluster, pvm_pair(cluster.cfg.pvm), 10_000, repeats=1, warmup=0)
    assert result.rtt_ns > 0


def test_pvm_slower_than_raw_tcp():
    """Figure 6: PVM (pack copies + daemon route) sits below MPI/TCP."""
    n = 100_000
    pvm = pingpong(make_cluster(), pvm_pair(granada2003().pvm), n, repeats=1, warmup=1)
    tcp = pingpong(make_cluster(), tcp_pair(), n, repeats=1, warmup=1)
    assert pvm.bandwidth_mbps < tcp.bandwidth_mbps


def test_pack_copy_charges_memory_traffic():
    cluster = make_cluster()
    pingpong(cluster, pvm_pair(cluster.cfg.pvm), 50_000, repeats=1, warmup=0)
    mem = cluster.nodes[0].memory
    # pack on send + unpack on recv crossed the memory bus.
    assert mem.counters["cpu_copy_bytes"] >= 2 * 50_000
