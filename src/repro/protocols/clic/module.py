"""CLIC_MODULE — the in-kernel protocol engine.

This is the paper's contribution (§3.1).  The module lives inside the
kernel; user processes reach it through one system call per operation.
On **send** it composes the 14 B Ethernet + 12 B CLIC headers, fills an
``SK_BUFF`` (scatter/gather over the *user* pages when the NIC supports
it — the Gigabit 0-copy path), and calls the unmodified driver.  If the
driver reports the NIC busy, the data is copied once into system memory
(that copy overlaps other traffic) and a backlog pump retries.  On
**receive** the module runs from the bottom halves (or directly from the
IRQ handler when the Figure 8(b) improvement is enabled), decodes the
packet type, and either copies the data straight into the memory of a
waiting process / remote-write region or parks it in system memory until
a ``recv`` arrives.

Reliability (sliding window, cumulative acks, retransmission) is per
peer-node channel; §5's extra features — same-node delivery, Ethernet
broadcast, send-with-confirmation, kernel-function packets, channel
bonding over several NICs — are all here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from ...config import ClicParams
from ...hw.cpu import PRIO_KERNEL, PRIO_SOFTIRQ
from ...hw.nic import BROADCAST, EtherType, MacAddress
from ...oskernel import SkBuff
from ...sim import Environment, Event, Store
from ..headers import (ClicAck, ClicPacket, ClicPacketType, ClicTrain, fragment_plan,
                       reassembled)
from ..reliability import DeliveryFailed, OrderedReceiver, RtoEstimator, WindowedSender

__all__ = ["ClicModule", "ClicMessage", "RemoteRegion"]

# Packet classes as module-level names: the per-packet paths read them
# several times a packet, and a module global is ~10x cheaper to read
# than an enum member through its class.
_REMOTE_WRITE = ClicPacketType.REMOTE_WRITE
_KERNEL_FN = ClicPacketType.KERNEL_FN
_BCAST = ClicPacketType.BCAST
_TRAINABLE = (ClicPacketType.DATA, ClicPacketType.MPI, _REMOTE_WRITE)
_UNBATCHED = (_KERNEL_FN, _BCAST)


@dataclass
class ClicMessage:
    """A complete message as handed to the application."""

    src_node: int
    port: int
    tag: int
    nbytes: int
    msg_id: int
    payload: Any = None
    remote_write: bool = False
    #: True once the payload sits in the receiving process's memory
    in_user_memory: bool = False


@dataclass
class RemoteRegion:
    """A user-memory window registered for asynchronous remote writes."""

    port: int
    size: int
    bytes_written: int = field(default=0, init=False)
    #: events to succeed as messages complete
    waiters: List[Event] = field(default_factory=list)
    #: completions not yet observed by a waiter (so notifications are
    #: never lost when writes finish while nobody is waiting)
    unclaimed: List["ClicMessage"] = field(default_factory=list)


@dataclass
class _Partial:
    """A message being reassembled from fragments."""

    src_node: int
    port: int
    tag: int
    msg_id: int
    msg_bytes: int
    received: int = field(default=0, init=False)
    #: receiver already bound: fragments are copied to user memory on arrival
    bound_waiter: Optional[Event] = field(default=None, init=False)
    remote_write: bool = False
    payload: Any = None


def _matches(tag: Optional[int], src: Optional[int], msg_tag: int, msg_src: int) -> bool:
    """Does a receive posted for ``(tag, src)`` take a message with this
    envelope?  ``None`` matches anything."""
    return (tag is None or msg_tag == tag) and (src is None or msg_src == src)


class _PortState:
    def __init__(self) -> None:
        self.ready: List[ClicMessage] = []
        #: blocked receivers in arrival order: (tag, src, event)
        self.waiters: List[Tuple[Optional[int], Optional[int], Event]] = []
        self.region: Optional[RemoteRegion] = None

    def pop_waiter(self, msg_tag: int, msg_src: int) -> Optional[Event]:
        """Remove and return the first blocked receiver that takes a
        message with this envelope, or ``None``."""
        for idx, (tag, src, event) in enumerate(self.waiters):
            if _matches(tag, src, msg_tag, msg_src):
                del self.waiters[idx]
                return event
        return None


class ClicModule:
    """One node's CLIC kernel module."""

    def __init__(self, node):
        self.node = node
        self.env: Environment = node.env
        self.params: ClicParams = node.cfg.clic
        self.kernel = node.kernel
        #: tracing scope of this module, e.g. ``node0.clic``
        self.scope = f"{node.name}.clic"
        self.tracer = self.kernel.tracer
        self.metrics = self.kernel.metrics
        self.counters = self.metrics.tallies(self.scope)
        self._msg_ids = itertools.count(1)

        self._senders: Dict[int, WindowedSender] = {}
        self._receivers: Dict[int, OrderedReceiver] = {}
        self._ports: Dict[int, _PortState] = {}
        self._partials: Dict[Tuple[int, int], _Partial] = {}
        self._rx_ready: List[ClicPacket] = []  # fragments released in-order
        self._kernel_fns: Dict[int, Callable] = {}
        self._bond_rr = 0  # round-robin channel-bonding cursor

        #: peers declared unreachable by retry exhaustion on a data channel
        self.dead_peers: Dict[int, str] = {}

        #: staged (system-memory) sends waiting for NIC ring space
        self._backlog: Store = Store(self.env, name=f"{node.name}.clic.backlog")
        self.env.spawn(self._backlog_pump(), name=f"{node.name}.clic.pump")

        self.kernel.register_protocol(EtherType.CLIC, self._rx_entry)

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    #: descriptor size handed to a fragmentation-offload NIC (§2 / future
    #: work): the module sends super-packets and the firmware splits them
    OFFLOAD_CHUNK = 64 * 1024

    def max_fragment(self) -> int:
        """User bytes per software fragment.

        Normally MTU minus the CLIC header; with on-NIC fragmentation
        (the paper's declined-for-portability optimisation, modeled as
        ABL-FRAG) the module posts much larger descriptors and the NIC
        firmware does the MTU split/reassembly, saving per-fragment
        module + driver + interrupt work.
        """
        if self.node.nics[0].params.supports_fragmentation:
            return self.OFFLOAD_CHUNK - self.params.header_bytes
        return self.node.mtu() - self.params.header_bytes

    def port(self, number: int) -> _PortState:
        """The port's state record (created on first use)."""
        state = self._ports.get(number)
        if state is None:
            state = self._ports[number] = _PortState()
        return state

    def _sender(self, dst_node: int) -> WindowedSender:
        sender = self._senders.get(dst_node)
        if sender is None:
            rto = None
            if self.params.adaptive_rto:
                rto = RtoEstimator(
                    initial_ns=self.params.retransmit_timeout_ns,
                    min_ns=self.params.min_rto_ns,
                    max_ns=self.params.max_rto_ns,
                )
            sender = WindowedSender(
                self.env,
                window=self.params.window_frames,
                retransmit_timeout_ns=self.params.retransmit_timeout_ns,
                max_retries=self.params.max_retries,
                retransmit=lambda packets, kind, d=dst_node: self._retransmit(d, packets, kind),
                name=f"{self.node.name}.clic.tx->{dst_node}",
                rto=rto,
                metrics=self.metrics,
                prefix=f"{self.scope}.tx{dst_node}.",
                fail_listener=lambda reason, d=dst_node: self._on_peer_failed(d, reason),
            )
            sender.dupack_threshold = self.params.dupack_threshold
            self._senders[dst_node] = sender
        return sender

    def _receiver(self, src_node: int) -> OrderedReceiver:
        receiver = self._receivers.get(src_node)
        if receiver is None:
            receiver = OrderedReceiver(
                self.env,
                deliver=self._rx_ready.append,
                deliver_run=self._rx_ready.append,
                send_ack=lambda cum, s=src_node: self._emit_ack(s, cum),
                ack_every=self.params.ack_every,
                ack_delay_ns=self.params.ack_delay_ns,
                stash_limit=self.params.reorder_stash_frames,
                name=f"{self.node.name}.clic.rx<-{src_node}",
                metrics=self.metrics,
                prefix=f"{self.scope}.rx{src_node}.",
            )
            self._receivers[src_node] = receiver
        return receiver

    def reorder_stash_depth(self, src_node: int) -> int:
        """Out-of-order stash occupancy for the channel from ``src_node``
        (0 when the channel does not exist yet) — flow-mode eligibility
        consults this through :class:`~repro.sim.flowmode.FlowRoute`."""
        receiver = self._receivers.get(src_node)
        return receiver.stash_depth if receiver is not None else 0

    # -- peer aliveness -------------------------------------------------------
    def failed_channels(self) -> List[DeliveryFailed]:
        """The error of every failed sender channel, by peer."""
        return [s.failure for _, s in sorted(self._senders.items()) if s.failed]

    def _on_peer_failed(self, peer: int, reason: str) -> None:
        """The sender channel to ``peer`` exhausted its retry budget (once
        per channel): record the peer as unreachable."""
        self.dead_peers[peer] = reason
        self.counters["peers_dead"] += 1
        self.tracer.instant(self.scope, "peer_dead", peer=peer, reason=reason)

    # ------------------------------------------------------------------
    # send path (runs in kernel context, inside the caller's syscall)
    # ------------------------------------------------------------------
    def send(
        self,
        dst_node: int,
        port: int,
        nbytes: int,
        tag: int = 0,
        ptype: ClicPacketType = ClicPacketType.DATA,
        payload: Any = None,
        remote_write: bool = False,
    ) -> Generator:
        """Reliable message send; returns (msg_id) once all fragments are
        handed off to the NIC or staged in system memory."""
        if nbytes < 0:
            raise ValueError("negative message size")
        node_id = self.node_id
        if dst_node == node_id:
            result = yield from self._send_local(port, nbytes, tag, payload)
            return result
        msg_id = next(self._msg_ids)
        span = self.tracer.begin(self.scope, "clic_send",
                                 dst=dst_node, nbytes=nbytes, msg=msg_id)
        tracer = self.tracer
        hops = tracer.hop_log is not None
        if hops:
            tracer.hop(None, "send", self.scope, src_node=node_id, msg_id=msg_id,
                       port=port, dst=dst_node, nbytes=nbytes)
        sender = self._sender(dst_node)
        if remote_write:
            ptype = _REMOTE_WRITE
        # Fragment i is offset i * frag_max and min(frag_max, nbytes -
        # offset) bytes (``fragment_plan``'s split, computed per step).
        frag_max = self.max_fragment()
        if frag_max <= 0:
            raise ValueError(f"fragment capacity must be positive (got {frag_max!r})")
        count = max(1, -(-nbytes // frag_max))
        # Hybrid fast path (flow mode): with the controller installed,
        # module-level preconditions met, and the controller's
        # eligibility oracle agreeing, a run of full-size fragments
        # advances as one analytic train instead of per-fragment.
        flow = self.env.flow
        trainable = (
            flow is not None
            and not hops
            and len(self.node.drivers) == 1
            and ptype in _TRAINABLE
        )
        index = 0
        while index < count:
            yield from sender.reserve()
            offset = index * frag_max
            frag = min(frag_max, nbytes - offset)
            k = 1
            if trainable and frag == frag_max and not self._backlog.items:
                # The tail fragment (the last one, full-size or not)
                # never rides a train — batched delivery stays strictly
                # mid-stream, so message completion is always exact.
                k = flow.plan_train(node_id, dst_node, sender,
                                    count - 1 - index, self.env.now) or 1
            head = ClicPacket(ptype, node_id, dst_node, port, msg_id,
                              0,  # seq: assigned at register
                              offset, frag, nbytes, tag, payload)
            if k == 1:
                item, run = head, (head,)
            else:
                item = run = ClicTrain(head, k)
            head.seq = sender.register_run(run)
            if hops:
                for pkt in run:
                    tracer.hop(pkt, "fragment", self.scope, seq=pkt.seq,
                               offset=pkt.frag_offset, nbytes=pkt.frag_bytes)
            yield from self._tx_run(item)
            index += k
        self.counters["msgs_sent"] += 1
        self.counters["bytes_sent"] += nbytes
        span.end()
        return msg_id

    def flush(self, dst_node: int) -> Generator:
        """Wait until every packet sent to ``dst_node`` is acknowledged
        (the §5 "send with confirmation of reception" primitive)."""
        if dst_node == self.node_id:
            return
        yield from self._sender(dst_node).drain()

    def broadcast(self, port: int, nbytes: int, tag: int = 0, payload: Any = None) -> Generator:
        """Ethernet data-link broadcast (unreliable, §5)."""
        msg_id = next(self._msg_ids)
        frag_max = self.max_fragment()
        for offset, frag in fragment_plan(nbytes, frag_max):
            pkt = ClicPacket(
                ptype=ClicPacketType.BCAST,
                src_node=self.node_id,
                dst_node=-1,
                port=port,
                msg_id=msg_id,
                seq=0,
                frag_offset=offset,
                frag_bytes=frag,
                msg_bytes=nbytes,
                tag=tag,
                payload=payload,
            )
            yield from self._tx_run(pkt, dst_mac=BROADCAST)
        self.counters["bcasts_sent"] += 1
        return msg_id

    def register_kernel_fn(self, fn_id: int, handler: Callable[[ClicPacket], Generator]) -> None:
        """Install a kernel-function handler for ``fn_id`` (§3.1's "kernel
        function packet" class): a packet sent with ``tag=fn_id`` and
        ``ptype=ClicPacketType.KERNEL_FN`` runs it on receive."""
        if fn_id in self._kernel_fns:
            raise ValueError(f"kernel fn {fn_id} already registered")
        self._kernel_fns[fn_id] = handler

    # -- transmission mechanics ----------------------------------------------
    def _tx_run(self, item: Union[ClicPacket, ClicTrain],
                dst_mac: Optional[MacAddress] = None) -> Generator:
        """Compose headers + one SK_BUFF for ``k`` consecutive fragments,
        call the driver once; stage the whole run on refusal.

        A lone fragment rides as a bare :class:`ClicPacket`, a flow-mode
        train (``k >= 2``) as one :class:`ClicTrain`.  Each cost is the
        per-fragment cost times ``k``, the sum of ``k`` single passes.
        """
        cpu = self.kernel.cpu
        if type(item) is ClicTrain:
            head, k = item.head, item.frames
            nbytes = head.frag_bytes * k
            span = self.tracer.begin(self.scope, "clic_tx_train",
                                     frames=k, nbytes=nbytes)
        else:
            head, k = item, 1
            nbytes = head.frag_bytes
            span = self.tracer.begin(self.scope, "clic_tx",
                                     pkt=head.packet_id, nbytes=nbytes)
        yield from cpu.execute(self.params.module_tx_ns * k, PRIO_KERNEL, label="clic_tx")
        zero_copy = self.params.zero_copy and self.node.nic_supports_sg()
        driver, mac = self._route(head, dst_mac)
        if zero_copy:
            skb = SkBuff.for_user_payload(nbytes, payload=item)
        else:
            # Fast Ethernet-era path: one copy user -> system memory first.
            yield from self.kernel.copy_user_to_system(nbytes, setups=k)
            skb = SkBuff.for_system_payload(nbytes, payload=item)
        skb.push_header("clic", self.params.header_bytes * k)
        accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
        if self.tracer.hop_log is not None:
            for pkt in (item,) if k == 1 else item:
                self.tracer.hop(pkt, "tx_queue", self.scope, seq=pkt.seq,
                                accepted=accepted)
        if accepted:
            self.counters["pkts_tx"] += k
            span.end(accepted=True)
            return
        # NIC busy: stage in system memory (the copy overlaps other
        # traffic; §3.1) and let the pump retry — a train stays intact
        # in the backlog.
        if skb.is_zero_copy:
            yield from self.kernel.copy_user_to_system(nbytes, setups=k)
            skb.relocate("system")
            self.counters["staged_copies"] += k
        self.counters["pkts_staged"] += k
        self._backlog.put_nowait((skb, mac))
        span.end(accepted=False)

    def _route(self, pkt: ClicPacket, dst_mac: Optional[MacAddress]):
        """Pick (driver, dst MAC) — round-robin across bonded channels."""
        drivers = self.node.drivers
        if dst_mac is not None and dst_mac.is_broadcast:
            return drivers[0], dst_mac
        channel = self._bond_rr % len(drivers)
        self._bond_rr += 1
        mac = self.node.mac_of(pkt.dst_node, channel)
        return drivers[channel], mac

    def _backlog_pump(self) -> Generator:
        """Retry staged packets as NIC ring space frees up."""
        while True:
            skb, mac = yield self._backlog.get()
            while True:
                driver = self.node.drivers[self._bond_rr % len(self.node.drivers)]
                accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
                if accepted:
                    self.counters["pkts_tx_from_backlog"] += 1
                    break
                yield self.env.timeout(5_000.0)  # ring still full; retry soon

    def _retransmit(self, dst_node: int, packets: List[ClicPacket], kind: str) -> None:
        """WindowedSender retransmit callback: re-emit in a kernel process.

        With hops recorded, each packet's ``retx`` hop names ``kind``
        (``"fast"``, ``"partial_ack"`` or ``"rto"``) now, before the
        re-emitting process is spawned; the packet's next transmission
        is its retransmit child of that kind.
        """
        if self.tracer.hop_log is not None:
            for pkt in packets:
                self.tracer.hop(pkt, "retx", self.scope, kind=kind)

        def _do() -> Generator:
            for pkt in packets:
                self.counters["pkts_retx"] += 1
                yield from self._tx_run(pkt)

        self.env.spawn(_do(), name=f"{self.node.name}.clic.retx")

    def _emit_ack(self, dst_node: int, cumulative_seq: int) -> None:
        """OrderedReceiver callback: send a cumulative ack packet."""

        def _do() -> Generator:
            cpu = self.kernel.cpu
            flow = self.env.flow
            route = (flow.express_ack_route(self.node_id, dst_node, self.env.now)
                     if flow is not None and len(self.node.drivers) == 1
                     and self.tracer.hop_log is None else None)
            if route is not None:
                # Flow-mode express lane: the whole reverse path is
                # provably quiet, so charge the same local CPU work in
                # one slice; the route times the ack with one
                # closed-form timer and credits every hop's counters.
                # Cumulative-ack semantics tolerate any reordering
                # against exact-path acks.
                driver = self.node.drivers[0]
                yield from cpu.execute(
                    self.params.module_tx_ns / 2 + driver.params.tx_call_ns,
                    PRIO_SOFTIRQ, label="clic_ack_tx",
                )
                self.counters["acks_tx"] += 1
                route.send_ack(cumulative_seq)
                return
            yield from cpu.execute(self.params.module_tx_ns / 2, PRIO_SOFTIRQ, label="clic_ack_tx")
            ack = ClicAck(src_node=self.node_id, dst_node=dst_node, cumulative_seq=cumulative_seq)
            skb = SkBuff.for_system_payload(ClicAck.WIRE_BYTES, payload=ack)
            skb.push_header("clic", self.params.header_bytes)
            driver, mac = self.node.drivers[0], self.node.mac_of(dst_node, 0)
            accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
            if not accepted:
                self._backlog.put_nowait((skb, mac))
            self.counters["acks_tx"] += 1

        self.env.spawn(_do(), name=f"{self.node.name}.clic.ack")

    def receive_ack(self, src_node: int, cumulative_seq: int) -> None:
        """Apply a cumulative ack from ``src_node`` to our sender.

        Shared by the packet path and the flow-mode express lane
        (:meth:`FlowRoute.send_ack <repro.sim.flowmode.FlowRoute.send_ack>`),
        so both apply the same sender-side semantics.
        """
        self._sender(src_node).on_ack(cumulative_seq)
        self.counters["acks_rx"] += 1

    # ------------------------------------------------------------------
    # receive path (bottom-half or direct-IRQ context)
    # ------------------------------------------------------------------
    def _rx_entry(self, skb: SkBuff) -> Generator:
        cpu = self.kernel.cpu
        direct = skb.direct_delivery  # Figure 8(b) path
        span = self.tracer.begin(self.scope, "clic_rx", direct=direct)
        item = skb.payload
        if type(item) is ClicTrain:
            # Flow-mode train, a branch because it schedules
            # differently: k module entries in one CPU slice, then one
            # ``on_run`` call (the sequencing, duplicate suppression and
            # ack cadence of k arrivals, one delayed-ack arm), and the
            # run may land in one batched copy.
            head, k = item.head, item.frames
            yield from cpu.execute(self.params.module_rx_ns * k, PRIO_SOFTIRQ,
                                   label="clic_rx")
            self._receiver(head.src_node).on_run(head.seq, item)
            ready = self._rx_ready
            if ready:
                nbytes = head.frag_bytes * k
                if ready[0] is item:
                    # Arrived whole and in order: the receiver handed
                    # the train up in one call, and nothing else.  It is
                    # one message's full fragments and never its tail,
                    # so it lands as one copy of k fragments.
                    ready.clear()
                    yield from self._consume_fragment(head, nbytes, k, direct)
                else:
                    # Drain in place: the receiver holds a bound
                    # ``append`` of this exact list object, so rebinding
                    # would orphan it.
                    fragments = ready[:]
                    ready.clear()
                    # k consecutive seqs from the head are the train's
                    # own fragments: one message's, all full-size.
                    whole = fragments[0] is head and len(fragments) == k
                    yield from self._consume_released(
                        fragments, nbytes if whole else None, direct)
            span.end(kind="train", frames=k)
            return
        yield from cpu.execute(self.params.module_rx_ns, PRIO_SOFTIRQ, label="clic_rx")
        if isinstance(item, ClicAck):
            self.receive_ack(item.src_node, item.cumulative_seq)
            span.end(kind="ack")
            return
        if not isinstance(item, ClicPacket):
            # Malformed frame on our ethertype (corrupted peer, fuzzing):
            # the module must survive it — protection is a design goal.
            self.counters["rx_malformed"] += 1
            span.end(kind="malformed")
            return
        pkt: ClicPacket = item
        self.tracer.instant(
            self.scope, "module_rx", pkt=pkt.packet_id, nbytes=pkt.frag_bytes,
        )
        if self.tracer.hop_log is not None:
            self.tracer.hop(pkt, "bh", self.scope, direct=direct)
        if pkt.ptype is _BCAST:
            self._rx_ready.append(pkt)  # unreliable: no sequencing
        else:
            self._receiver(pkt.src_node).on_packet(pkt.seq, pkt)
        # Process fragments released in order by the receiver machinery.
        while self._rx_ready:
            fragment = self._rx_ready.pop(0)
            yield from self._consume_fragment(fragment, fragment.frag_bytes, 1, direct)
        span.end(pkt=pkt.packet_id)

    def _consume_released(self, fragments: List[ClicPacket], total: Optional[int],
                          direct: bool) -> Generator:
        """Consume the fragments a train's arrival released when the
        train did not arrive whole and in order (a duplicate, a gap, or
        stashed successors), batching copies where it can.

        When the fragments are one message's data *strictly mid-stream*,
        they land as one :meth:`_consume_fragment` call for ``k``
        fragments: one CPU slice charging ``k`` copy setups.  Anything
        else — mixed messages, a run that completes a message via
        previously stashed successors — falls back to exact per-fragment
        consumption.  A caller that knows the run is one message's data
        fragments passes their byte ``total``, and the run is not
        inspected fragment by fragment.  A train that arrived whole and
        in order never comes here: :meth:`_rx_entry` lands it directly.
        """
        first = fragments[0]
        key = (first.src_node, first.msg_id)
        homogeneous = True
        if total is None:
            total = sum(pkt.frag_bytes for pkt in fragments)
            homogeneous = all(
                (pkt.src_node, pkt.msg_id) == key and pkt.ptype not in _UNBATCHED
                for pkt in fragments
            )
        partial = self._partials.get(key)
        received = partial.received if partial is not None else 0
        if not homogeneous or received + total >= first.msg_bytes:
            for pkt in fragments:
                yield from self._consume_fragment(pkt, pkt.frag_bytes, 1, direct)
            return
        yield from self._consume_fragment(first, total, len(fragments), direct)

    def _consume_fragment(self, pkt: ClicPacket, nbytes: int, k: int,
                          direct: bool) -> Generator:
        """Land ``k`` consecutive fragments of one message (``nbytes`` in
        all, headed by ``pkt``) with one copy charging ``k`` setups, and
        complete the message once every byte is in.  ``k > 1`` only for
        a released train that stays mid-stream.  ``direct`` is the
        Figure 8(b) path: the DMA already targeted user memory.
        """
        self.counters["pkts_rx"] += k
        key = (pkt.src_node, pkt.msg_id)
        partial = self._partials.get(key)
        if partial is None:
            partial = _Partial(
                src_node=pkt.src_node,
                port=pkt.port,
                tag=pkt.tag,
                msg_id=pkt.msg_id,
                msg_bytes=pkt.msg_bytes,
                remote_write=pkt.ptype is _REMOTE_WRITE,
                payload=pkt.payload,
            )
            self._partials[key] = partial
            if not partial.remote_write and pkt.ptype is not _KERNEL_FN:
                # Attach the first matching blocked receiver.
                partial.bound_waiter = self.port(partial.port).pop_waiter(
                    partial.tag, partial.src_node)

        if partial.remote_write:
            # Asynchronous remote write: straight to the registered user
            # region, no receive call needed (§3.1 step 7).  On the
            # Figure 8(b) path the DMA already targeted the region.
            if not direct:
                yield from self.kernel.copy_system_to_user(nbytes, PRIO_SOFTIRQ, setups=k)
            region = self.port(pkt.port).region
            if region is not None:
                region.bytes_written += nbytes
        elif partial.bound_waiter is not None and direct:
            # Figure 8(b): the module directed the DMA straight into the
            # waiting process's buffer — no staging copy at all.
            self.counters["direct_user_deliveries"] += k
        elif partial.bound_waiter is not None:
            # A process is already waiting: move the fragment into its
            # memory right away.
            yield from self.kernel.copy_system_to_user(nbytes, PRIO_SOFTIRQ, setups=k)

        partial.received += nbytes
        tracer = self.tracer
        hops = tracer.hop_log is not None
        if hops:
            tracer.hop(pkt, "reassembly", self.scope,
                       received=partial.received, total=partial.msg_bytes)
        if not reassembled(partial, pkt):
            return
        # Message complete.
        del self._partials[key]
        if hops:
            tracer.hop(pkt, "deliver", self.scope, nbytes=partial.msg_bytes)
        if pkt.ptype is _KERNEL_FN:
            handler = self._kernel_fns.get(pkt.tag)
            if handler is None:
                self.counters["kernel_fn_unknown"] += 1
            else:
                yield from handler(pkt)
            return
        message = ClicMessage(
            src_node=partial.src_node,
            port=partial.port,
            tag=partial.tag,
            nbytes=partial.msg_bytes,
            msg_id=partial.msg_id,
            payload=partial.payload,
            remote_write=partial.remote_write,
            in_user_memory=partial.bound_waiter is not None or partial.remote_write,
        )
        self.counters["msgs_rx"] += 1
        self.counters["bytes_rx"] += message.nbytes
        if partial.remote_write:
            region = self.port(message.port).region
            if region is not None:
                if region.waiters:
                    region.waiters.pop(0).succeed(message)
                else:
                    region.unclaimed.append(message)
            return
        if partial.bound_waiter is not None:
            partial.bound_waiter.succeed(message)
            return
        # A receiver may have blocked *after* the first fragment arrived
        # (so no waiter was bound then): match again at completion.
        state = self.port(message.port)
        waiter = state.pop_waiter(message.tag, message.src_node)
        if waiter is not None:
            waiter.succeed(message)
            return
        state.ready.append(message)

    # ------------------------------------------------------------------
    # receive API (kernel context, inside the caller's syscall)
    # ------------------------------------------------------------------
    def recv(
        self,
        port: int,
        tag: Optional[int] = None,
        src: Optional[int] = None,
        block: bool = True,
    ) -> Generator:
        """Receive a message on ``port``; returns a :class:`ClicMessage`.

        Non-blocking flavour returns ``None`` immediately when nothing
        matches ("_MODULE does nothing and returns", §3.1).
        """
        state = self.port(port)
        for idx, msg in enumerate(state.ready):
            if _matches(tag, src, msg.tag, msg.src_node):
                state.ready.pop(idx)
                if not msg.in_user_memory:
                    yield from self.kernel.copy_system_to_user(msg.nbytes)
                    msg.in_user_memory = True
                self.counters["recv_immediate"] += 1
                return msg
        if not block:
            self.counters["recv_would_block"] += 1
            return None
        event = self.env.event()
        state.waiters.append((tag, src, event))
        self.counters["recv_blocked"] += 1
        msg = yield from self.kernel.block_on(event, label=f"recv:{port}")
        if not msg.in_user_memory:
            # Bound only at completion: the data was parked in system
            # memory fragment by fragment; move it out now.
            yield from self.kernel.copy_system_to_user(msg.nbytes)
            msg.in_user_memory = True
        return msg

    # -- remote-write regions -------------------------------------------------
    def register_region(self, port: int, size: int) -> RemoteRegion:
        """Expose ``size`` bytes of the caller's memory for remote writes."""
        state = self.port(port)
        if state.region is not None:
            raise ValueError(f"port {port} already has a remote-write region")
        state.region = RemoteRegion(port=port, size=size)
        return state.region

    def wait_remote_write(self, port: int) -> Generator:
        """Block until the next remote-write message completes."""
        region = self.port(port).region
        if region is None:
            raise ValueError(f"port {port} has no remote-write region")
        if region.unclaimed:
            return region.unclaimed.pop(0)
        event = self.env.event()
        region.waiters.append(event)
        msg = yield from self.kernel.block_on(event, label=f"rwrite:{port}")
        return msg

    # ------------------------------------------------------------------
    # same-node delivery (§5: "communication between processes running
    # on the same processor", which many rival layers cannot do)
    # ------------------------------------------------------------------
    def _send_local(self, port: int, nbytes: int, tag: int, payload: Any) -> Generator:
        msg_id = next(self._msg_ids)
        span = self.tracer.begin(self.scope, "clic_local", nbytes=nbytes, msg=msg_id)
        yield from self.kernel.cpu.execute(self.params.module_tx_ns, PRIO_KERNEL, label="clic_local")
        message = ClicMessage(
            src_node=self.node_id,
            port=port,
            tag=tag,
            nbytes=nbytes,
            msg_id=msg_id,
            payload=payload,
        )
        state = self.port(port)
        waiter = state.pop_waiter(tag, self.node_id)
        if waiter is not None:
            # Single kernel-mediated copy, sender memory -> receiver memory.
            yield from self.kernel.copy_user_to_user(nbytes)
            message.in_user_memory = True
            waiter.succeed(message)
            self.counters["local_direct"] += 1
            span.end(path="direct")
            return msg_id
        # Nobody waiting: stage in system memory; recv() will copy out.
        yield from self.kernel.copy_user_to_system(nbytes)
        # A receiver may have blocked *during* the staging copy — re-check
        # before parking the message, or its wakeup is lost.
        waiter = state.pop_waiter(tag, self.node_id)
        if waiter is not None:
            waiter.succeed(message)
            self.counters["local_direct"] += 1
            span.end(path="late-direct")
            return msg_id
        state.ready.append(message)
        self.counters["local_staged"] += 1
        span.end(path="staged")
        return msg_id
