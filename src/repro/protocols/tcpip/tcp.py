"""TCP — the baseline the paper beats.

A mechanism-faithful (not bit-faithful) Linux-2.4-era TCP model.  What
matters for the reproduction is *where the cycles go*:

* one **copy** user -> socket buffer on send, one socket buffer -> user
  on receive (TCP never zero-copies here),
* **per-segment stack traversal** costs on both sides,
* **software checksum** touching every byte on both sides,
* **acknowledgment traffic** (delayed acks every 2 segments) that
  consumes reverse wire bandwidth, receiver *and* sender CPU,
* a segment-count flow window (LAN: no loss-driven congestion collapse,
  the window simply bounds in-flight data as the paper's testbed's
  does).

TCP segments to the MSS (MTU - 40) itself, so the IP layer below never
fragments; retransmission reuses the shared reliability machinery.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ...config import TcpIpParams
from ...hw.cpu import PRIO_KERNEL, PRIO_SOFTIRQ
from ...sim import Environment, Event
from ..headers import TcpSegment
from ..reliability import OrderedReceiver, RtoEstimator, WindowedSender
from .ip import IpDatagram, IpLayer

__all__ = ["TcpConnection", "TcpLayer"]

_conn_ids = itertools.count(1)


@dataclass
class _RxSide:
    """Receive state of one connection end."""

    buffered_bytes: int = field(default=0, init=False)
    waiters: List[Tuple[int, Event]] = field(default_factory=list)  # (wanted, event)


class RenoCongestion:
    """TCP Reno congestion control (slow start, congestion avoidance,
    fast retransmit/recovery, RTO collapse).

    The unit is *segments*.  The effective send window is
    ``min(cwnd, receiver flow window)``; on a LAN with adequate buffers
    Reno quickly opens to the flow window (which is why the era's LAN
    benchmarks warm up), but under loss it shapes the retransmission
    behaviour — exercised by the loss-injection tests.
    """

    def __init__(self, flow_window: int):
        self.flow_window = flow_window
        self.cwnd = 2.0  # initial window: two segments
        self.ssthresh = float(flow_window)
        self.in_slow_start_restarts = 0

    def window(self) -> int:
        """Current effective send window in segments."""
        return max(1, min(int(self.cwnd), self.flow_window))

    def on_ack(self, newly_acked: int) -> None:
        """Grow cwnd: slow start below ssthresh, else additively."""
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start: exponential per RTT
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, float(self.flow_window))

    def on_fast_retransmit(self) -> None:
        """Halve into fast recovery (3 duplicate acks)."""
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = self.ssthresh  # fast recovery (simplified Reno)

    def on_timeout(self) -> None:
        """RTO: collapse cwnd to 1 and restart slow start."""
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = 1.0
        self.in_slow_start_restarts += 1


class TcpConnection:
    """One end of an established TCP connection."""

    def __init__(self, layer: "TcpLayer", local_node: int, remote_node: int, conn_id: int):
        self.layer = layer
        self.params: TcpIpParams = layer.params
        self.env: Environment = layer.node.env
        self.local_node = local_node
        self.remote_node = remote_node
        self.conn_id = conn_id
        self.counters = Counter()

        rto = RtoEstimator(
            initial_ns=self.params.retransmit_timeout_ns,
            min_ns=self.params.min_rto_ns,
            max_ns=self.params.max_rto_ns,
        )
        registry = layer.node.kernel.metrics
        self.sender = WindowedSender(
            self.env,
            window=self.params.window_segments,
            retransmit_timeout_ns=self.params.retransmit_timeout_ns,
            max_retries=self.params.max_retries,
            retransmit=self._retransmit,
            name=f"{layer.node.name}.tcp{conn_id}.tx",
            rto=rto,
            metrics=registry,
            prefix=f"{layer.node.name}.tcp{conn_id}.tx.",
        )
        self.receiver = OrderedReceiver(
            self.env,
            deliver=self._deliver_segment,
            send_ack=self._send_ack,
            ack_every=self.params.ack_every,
            ack_delay_ns=self.params.ack_delay_ns,
            name=f"{layer.node.name}.tcp{conn_id}.rx",
            metrics=registry,
            prefix=f"{layer.node.name}.tcp{conn_id}.rx.",
        )
        self.rx = _RxSide()

        # Congestion control shapes the effective window dynamically.
        self.congestion = RenoCongestion(self.params.window_segments)
        self.sender.window = self.congestion.window()
        self.sender.dupack_threshold = 3
        self.sender.ack_listener = self._on_ack_progress
        self.sender.timeout_listener = self._on_rto
        self.sender.fast_retransmit_listener = self._on_fast_retx

    def _on_ack_progress(self, newly_acked: int) -> None:
        self.congestion.on_ack(newly_acked)
        self.sender.window = self.congestion.window()

    def _on_rto(self) -> None:
        self.congestion.on_timeout()
        self.sender.window = self.congestion.window()
        self.counters["rto_events"] += 1

    def _on_fast_retx(self) -> None:
        self.congestion.on_fast_retransmit()
        self.sender.window = self.congestion.window()
        self.counters["fast_retransmits"] += 1

    # -- send (kernel context, inside the caller's syscall) ---------------------
    def mss(self) -> int:
        """Maximum segment payload for the path MTU."""
        return self.layer.ip.mtu_payload() - self.params.tcp_header_bytes

    def send(self, nbytes: int) -> Generator:
        """Stream ``nbytes``: copy to the socket buffer, segment, transmit."""
        if nbytes < 0:
            raise ValueError("negative send")
        kernel = self.layer.node.kernel
        # Socket layer: user -> kernel copy (the copy CLIC's 0-copy removes).
        yield from kernel.copy_user_to_system(nbytes)
        mss = self.mss()
        offset = 0
        while True:
            seg_bytes = min(mss, nbytes - offset)
            yield from self.sender.reserve()
            seg = TcpSegment(
                src_node=self.local_node,
                dst_node=self.remote_node,
                conn_id=self.conn_id,
                seq=0,
                data_bytes=seg_bytes,
            )
            seg.seq = self.sender.register(seg)
            yield from self._tx_segment(seg)
            offset += seg_bytes
            if offset >= nbytes:
                break
        self.counters["bytes_sent"] += nbytes

    def _tx_segment(self, seg: TcpSegment) -> Generator:
        kernel = self.layer.node.kernel
        cost = (
            self.params.per_segment_tx_ns
            + seg.data_bytes * self.params.checksum_ns_per_byte
        )
        yield from kernel.cpu.execute(cost, PRIO_KERNEL, label="tcp_tx")
        dgram = IpDatagram(
            src_node=self.local_node,
            dst_node=self.remote_node,
            protocol="tcp",
            data_bytes=seg.data_bytes + self.params.tcp_header_bytes,
            payload=seg,
        )
        yield from self.layer.ip.tx(dgram)
        self.counters["segments_tx"] += 1

    def _retransmit(self, segments: List[TcpSegment], kind: str) -> None:
        def _do() -> Generator:
            for seg in segments:
                self.counters["segments_retx"] += 1
                yield from self._tx_segment(seg)

        self.env.spawn(_do(), name=f"tcp{self.conn_id}.retx")

    # -- receive (softirq context) -------------------------------------------------
    def on_segment(self, seg: TcpSegment) -> Generator:
        """Softirq-side segment processing (data or ack)."""
        kernel = self.layer.node.kernel
        cost = (
            self.params.per_segment_rx_ns
            + seg.data_bytes * self.params.checksum_ns_per_byte
        )
        yield from kernel.cpu.execute(cost, PRIO_SOFTIRQ, label="tcp_rx")
        if seg.is_ack:
            self.sender.on_ack(seg.ack_seq)
            self.counters["acks_rx"] += 1
            return
        self.receiver.on_packet(seg.seq, seg)

    def _deliver_segment(self, seg: TcpSegment) -> None:
        self.rx.buffered_bytes += seg.data_bytes
        self.counters["segments_rx"] += 1
        # Wake receivers whose byte count is now satisfied (FIFO).
        while self.rx.waiters and self.rx.buffered_bytes >= self.rx.waiters[0][0]:
            wanted, event = self.rx.waiters.pop(0)
            self.rx.buffered_bytes -= wanted
            event.succeed(wanted)

    def _send_ack(self, cumulative_seq: int) -> None:
        def _do() -> Generator:
            kernel = self.layer.node.kernel
            yield from kernel.cpu.execute(
                self.params.per_segment_tx_ns / 2, PRIO_SOFTIRQ, label="tcp_ack_tx"
            )
            ack = TcpSegment(
                src_node=self.local_node,
                dst_node=self.remote_node,
                conn_id=self.conn_id,
                seq=0,
                data_bytes=0,
                is_ack=True,
                ack_seq=cumulative_seq,
            )
            dgram = IpDatagram(
                src_node=self.local_node,
                dst_node=self.remote_node,
                protocol="tcp",
                data_bytes=self.params.tcp_header_bytes,
                payload=ack,
            )
            yield from self.layer.ip.tx(dgram)
            self.counters["acks_tx"] += 1

        self.env.spawn(_do(), name=f"tcp{self.conn_id}.ack")

    # -- recv (kernel context, inside the caller's syscall) ----------------------
    def recv(self, nbytes: int) -> Generator:
        """Block until ``nbytes`` are buffered, then copy them to user memory."""
        kernel = self.layer.node.kernel
        if nbytes < 0:
            raise ValueError("negative recv")
        if self.rx.waiters or self.rx.buffered_bytes < nbytes:
            event = self.env.event()
            self.rx.waiters.append((nbytes, event))
            yield from kernel.block_on(event, label=f"tcp_recv{self.conn_id}")
        else:
            self.rx.buffered_bytes -= nbytes
        yield from kernel.copy_system_to_user(nbytes)
        self.counters["bytes_recv"] += nbytes
        return nbytes


class TcpLayer:
    """All TCP connections of one node."""

    def __init__(self, node, params: TcpIpParams, ip: IpLayer):
        self.node = node
        self.params = params
        self.ip = ip
        self.connections: Dict[int, TcpConnection] = {}

    def connect(self, remote_node: int, conn_id: Optional[int] = None) -> TcpConnection:
        """Create one end of a connection.

        Both ends must use the same ``conn_id``; :meth:`pair` sets up both
        at once for tests/benchmarks (the three-way handshake is not on
        the data path the paper measures and is elided).
        """
        if conn_id is None:
            conn_id = next(_conn_ids)
        if conn_id in self.connections:
            raise ValueError(f"connection {conn_id} exists")
        conn = TcpConnection(self, self.node.node_id, remote_node, conn_id)
        self.connections[conn_id] = conn
        return conn

    def dispatch(self, seg: TcpSegment) -> Generator:
        """Demux an arriving segment to its connection."""
        conn = self.connections.get(seg.conn_id)
        if conn is None:
            # RST territory in real TCP; drop.
            return
        yield from conn.on_segment(seg)
