"""Tests for the Fast Ethernet 2001 preset and baseline experiment."""

import pytest

from repro.cluster import Cluster
from repro.config import fastethernet2001
from repro.protocols.clic import ClicEndpoint
from repro.workloads import clic_pair, pingpong


def test_fe_preset_shape():
    cfg = fastethernet2001()
    assert cfg.link.rate_bps == 100e6
    assert cfg.node.nic.effective_mtu() == 1500
    assert not cfg.node.nic.supports_sg
    assert not cfg.node.clic.zero_copy
    assert not cfg.node.nic.coalescing_enabled


def test_fe_clic_delivery_works():
    cluster = Cluster(fastethernet2001())

    def a(proc):
        ep = ClicEndpoint(proc, 1)
        yield from ep.send(1, 50_000)

    def b(proc):
        ep = ClicEndpoint(proc, 1)
        msg = yield from ep.recv()
        return msg.nbytes

    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    p0.run(a)
    done = p1.run(b)
    assert cluster.env.run(done) == 50_000
    # First-generation CLIC: every fragment was staged (1-copy).
    assert cluster.metrics.value("node0.nic0.tx_zero_copy") == 0


def test_fe_latency_higher_than_gige():
    """A 1500 B exchange takes much longer on the 10x slower wire."""
    from repro.config import granada2003

    fe = pingpong(Cluster(fastethernet2001()), clic_pair(), 1400, repeats=1, warmup=1)
    ge = pingpong(Cluster(granada2003()), clic_pair(), 1400, repeats=1, warmup=1)
    assert fe.one_way_ns > ge.one_way_ns
    # The gap is dominated by serialization: ~112 us of extra wire time
    # per direction (two serializations through the switch).
    assert fe.one_way_ns - ge.one_way_ns > 150_000


def test_fe_experiment_shape_checks():
    from repro.experiments import run_experiment

    result = run_experiment("fe2001")
    assert result["id"] == "FE-2001"
    assert result["cells"]["FE/CLIC"]["mbps"] > result["cells"]["FE/TCP"]["mbps"]
