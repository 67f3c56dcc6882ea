"""Unit tests for the IP layer's fragmentation/reassembly mechanics."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.protocols.tcpip.ip import IpDatagram, IpLayer


def make_ip(mtu=MTU_STANDARD):
    cluster = Cluster(granada2003(mtu=mtu))
    node = cluster.nodes[0]
    return cluster, node.tcp.ip, node


def dgram(nbytes, datagram_id=1, **kw):
    return IpDatagram(
        src_node=0, dst_node=1, protocol="tcp", data_bytes=nbytes,
        datagram_id=datagram_id, **kw,
    )


def test_mtu_payload_subtracts_ip_header():
    cluster, ip, node = make_ip()
    assert ip.mtu_payload() == 1500 - 20


def test_tx_small_datagram_single_frame():
    cluster, ip, node = make_ip()

    def body(env):
        yield from ip.tx(dgram(1000))

    cluster.env.run(cluster.env.process(body(cluster.env)))
    assert ip.counters["datagrams_tx"] == 1
    assert ip.counters["fragments_tx"] == 0


def test_tx_fragments_exact_multiple():
    cluster, ip, node = make_ip()
    limit = ip.mtu_payload()

    def body(env):
        yield from ip.tx(dgram(3 * limit))

    cluster.env.run(cluster.env.process(body(cluster.env)))
    assert ip.counters["fragments_tx"] == 3


def test_tx_fragments_with_remainder():
    cluster, ip, node = make_ip()
    limit = ip.mtu_payload()

    def body(env):
        yield from ip.tx(dgram(2 * limit + 1))

    cluster.env.run(cluster.env.process(body(cluster.env)))
    assert ip.counters["fragments_tx"] == 3


def test_rx_reassembles_in_any_order():
    cluster, ip, node = make_ip()
    total = 3000
    frags = [
        dgram(1000, frag_offset=0, more_fragments=True, total_bytes=total),
        dgram(1000, frag_offset=1000, more_fragments=True, total_bytes=total),
        dgram(1000, frag_offset=2000, more_fragments=False, total_bytes=total),
    ]
    assert ip.rx(frags[2]) is None
    assert ip.rx(frags[0]) is None
    complete = ip.rx(frags[1])
    assert complete is not None
    assert complete.data_bytes == total
    assert ip.counters["datagrams_rx"] == 1


def test_rx_unfragmented_passthrough():
    cluster, ip, node = make_ip()
    d = dgram(500)
    assert ip.rx(d) is d


def test_rx_interleaved_datagrams_do_not_mix():
    cluster, ip, node = make_ip()
    a1 = dgram(1000, datagram_id=1, frag_offset=0, more_fragments=True, total_bytes=2000)
    b1 = dgram(1000, datagram_id=2, frag_offset=0, more_fragments=True, total_bytes=2000)
    a2 = dgram(1000, datagram_id=1, frag_offset=1000, total_bytes=2000)
    b2 = dgram(1000, datagram_id=2, frag_offset=1000, total_bytes=2000)
    assert ip.rx(a1) is None
    assert ip.rx(b1) is None
    done_a = ip.rx(a2)
    done_b = ip.rx(b2)
    assert done_a.datagram_id == 1 and done_a.data_bytes == 2000
    assert done_b.datagram_id == 2 and done_b.data_bytes == 2000
