"""Unit tests for the IP layer's transmit and receive mechanics."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.oskernel import SkBuff
from repro.protocols.tcpip.ip import IpDatagram


def make_ip(mtu=MTU_STANDARD):
    cluster = Cluster(granada2003(mtu=mtu))
    node = cluster.nodes[0]
    return cluster, node.tcp.ip, node


def dgram(nbytes):
    return IpDatagram(src_node=0, dst_node=1, protocol="tcp", data_bytes=nbytes)


def test_mtu_payload_subtracts_ip_header():
    cluster, ip, node = make_ip()
    assert ip.mtu_payload() == 1500 - 20


def test_tx_small_datagram_single_frame():
    cluster, ip, node = make_ip()

    def body(env):
        yield from ip.tx(dgram(1000))

    cluster.env.run(cluster.env.process(body(cluster.env)))
    assert node.drivers[0].counters["tx_accepted"] == 1


def test_tx_rejects_a_datagram_larger_than_the_mtu():
    cluster, ip, node = make_ip()
    limit = ip.mtu_payload()

    def body(env):
        yield from ip.tx(dgram(limit))
        yield from ip.tx(dgram(limit + 1))

    with pytest.raises(ValueError, match="exceeds"):
        cluster.env.run(cluster.env.process(body(cluster.env)))
    assert node.drivers[0].counters["tx_accepted"] == 1


def test_rx_unfragmented_passthrough():
    """A received datagram's payload goes to TCP as it is; a datagram of
    another protocol is counted and dropped."""
    cluster, ip, node = make_ip()
    stack = node.tcp
    dispatched = []

    def dispatch(seg):
        dispatched.append(seg)
        yield from ()

    stack.tcp.dispatch = dispatch
    segment = object()
    tcp_dgram = IpDatagram(src_node=1, dst_node=0, protocol="tcp",
                           data_bytes=500, payload=segment)
    other = IpDatagram(src_node=1, dst_node=0, protocol="udp", data_bytes=500)

    def body(env):
        for d in (tcp_dgram, other):
            yield from stack._rx_entry(SkBuff.for_system_payload(500, payload=d))

    cluster.env.run(cluster.env.process(body(cluster.env)))
    assert dispatched == [segment]
    assert stack.counters["unknown_ip_protocol"] == 1
