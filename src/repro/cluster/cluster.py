"""Cluster assembly: N nodes behind a store-and-forward switch fabric.

This is the experiment entry point: build a :class:`Cluster` from a
:class:`~repro.config.ClusterConfig`, spawn processes on its nodes, and
run the shared :class:`~repro.sim.Environment`.

The default fabric is the paper's single switch; ``cfg.topology``
selects a multi-switch layout (fat-tree, chain — see
:mod:`repro.hw.fabric`), in which case every NIC attaches to its *leaf*
switch and inter-switch trunks carry the cross-leaf traffic.

Protocol engines are attached per the ``protocols`` argument; CLIC and
TCP/IP coexist on stock (``irq-pull``) NICs, while the GAMMA and VIA
comparators need their modified-driver / user-level NIC behaviour
(``push`` receive mode) and therefore their own cluster instance —
matching reality, where installing GAMMA means replacing the driver.
"""

from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Generator, Iterable, List, Optional, Tuple

from ..config import ClusterConfig
from ..hw import Channel, Fabric
from ..obs import MetricsRegistry, Tracer
from ..sim import Environment, RngStreams
from .node import Node, mac_for

if TYPE_CHECKING:
    from ..faults import ChannelFaults, FaultPlan

__all__ = ["Cluster"]

_PULL_PROTOCOLS = {"clic", "tcp"}
_PUSH_PROTOCOLS = {"gamma", "via"}

#: the process-global id counters, as (module, attribute, first value);
#: the port counters restart too, so that a cluster built in a pool
#: worker binds the same ports as the same cluster built serially (see
#: repro.parallel)
_GLOBAL_ID_COUNTERS = (
    ("repro.hw.nic.base", "_desc_ids", 1),
    ("repro.mpi.transports", "_world_ports", 1000),
    ("repro.oskernel.process", "_pids", 1),
    ("repro.protocols.gamma", "_msg_ids", 1),
    ("repro.protocols.headers", "_packet_ids", 1),
    ("repro.protocols.tcpip.ip", "_dgram_ids", 1),
    ("repro.protocols.tcpip.tcp", "_conn_ids", 1),
    ("repro.protocols.via", "_msg_ids", 1),
    ("repro.protocols.via", "_vi_ids", 1),
    ("repro.pvm.api", "_task_ids", 1),
    ("repro.workloads.adapters", "_ports", 100),
)


def _reset_global_ids() -> None:
    """Restart the process-global bookkeeping id counters.

    Packet / sk_buff / frame / descriptor / pid ids come from module-level
    ``itertools.count`` objects that keep counting across cluster builds
    within one Python process.  They model nothing (pure bookkeeping) but
    leak into trace records and span attributes, so restarting them per
    cluster makes two same-seed runs byte-identical — including their
    span and Chrome-trace exports.

    Only modules already loaded are reset: each counter starts at its
    reset value, so a module that loads later starts where a reset
    would have put it.
    """
    for module, attribute, first in _GLOBAL_ID_COUNTERS:
        loaded = sys.modules.get(module)
        if loaded is not None:
            setattr(loaded, attribute, itertools.count(first))


class Cluster:
    """A simulated cluster (nodes + switch + links + protocol engines)."""

    def __init__(
        self,
        cfg: Optional[ClusterConfig] = None,
        protocols: Iterable[str] = ("clic", "tcp"),
        node_overrides: Optional[dict] = None,
        faults: Optional[FaultPlan] = None,
    ):
        """``node_overrides`` maps node_id -> NodeConfig for heterogeneous
        clusters (e.g. the jumbo-frame interoperability experiment, where
        one side runs MTU 9000 and the other MTU 1500).

        ``faults`` is a declarative :class:`~repro.faults.FaultPlan`
        (bursty loss, scheduled link outages, switch egress
        blackouts) injected deterministically from the cluster's seeded
        RNG streams; plain i.i.d. loss is ``FaultPlan.uniform(p)``."""
        self.cfg = cfg if cfg is not None else ClusterConfig()
        self.protocols = tuple(protocols)
        unknown = set(self.protocols) - _PULL_PROTOCOLS - _PUSH_PROTOCOLS
        if unknown:
            raise ValueError(f"unknown protocols: {sorted(unknown)}")
        if set(self.protocols) & _PULL_PROTOCOLS and set(self.protocols) & _PUSH_PROTOCOLS:
            raise ValueError(
                "GAMMA/VIA need modified-driver NICs and cannot share a "
                "cluster with CLIC/TCP — build separate clusters"
            )
        rx_mode = "push" if set(self.protocols) & _PUSH_PROTOCOLS else "irq-pull"

        _reset_global_ids()
        self.env = Environment(profile=self.cfg.profile)
        self.rng = RngStreams(self.cfg.seed)
        #: cluster-wide span tracer (see repro.obs.span)
        self.tracer = Tracer(self.env, enabled=self.cfg.trace)
        #: cluster-wide typed metrics namespace (counters/gauges/histograms)
        self.metrics = MetricsRegistry()
        #: tallies of the fault plan's scheduled windows (``faults.*``)
        self.fault_counters = self.metrics.tallies("faults")
        #: the switch fabric (one switch unless ``cfg.topology`` says more)
        self.fabric = Fabric(
            self.env,
            self.cfg.link,
            self.cfg.topology,
            self.cfg.num_nodes,
            tracer=self.tracer,
            metrics=self.metrics,
            backpressure=self.cfg.switch_backpressure,
        )
        #: the first switch — the whole fabric in the single-switch case
        #: (legacy accessor kept for experiments and the validate harness)
        self.switch = self.fabric.switch
        self.nodes: List[Node] = []
        #: every simplex wire in build order, as ``(name, Channel)`` with
        #: names ``"{node_id}.{ch}.up"`` (node -> switch) and ``...down``
        #: (switch -> node) — the invariant harness walks this to check
        #: frame conservation across the wire layer.
        self.channels: List[Tuple[str, Channel]] = []
        #: hardware-path lookups for flow-mode route registration
        self._chan_map: dict = {}
        self._port_map: dict = {}

        #: the active fault plan (None = clean links)
        self.faults = faults

        overrides = node_overrides or {}
        for node_id in range(self.cfg.num_nodes):
            node = Node(
                self.env,
                overrides.get(node_id, self.cfg.node),
                self.cfg.link,
                node_id,
                rx_mode=rx_mode,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.nodes.append(node)
            for ch, nic in enumerate(node.nics):
                to_switch = Channel(
                    self.env, self.cfg.link, f"{node.name}.ch{ch}->sw",
                    faults=self._channel_faults(node_id, ch, "up"),
                    tracer=self.tracer,
                )
                from_switch = Channel(
                    self.env, self.cfg.link, f"sw->{node.name}.ch{ch}",
                    faults=self._channel_faults(node_id, ch, "down"),
                    tracer=self.tracer,
                )
                port = self.fabric.attach(node_id, from_switch, mac_for(node_id, ch))
                to_switch.connect(port.switch.ingress(port))
                from_switch.connect(nic.receive_frame)
                nic.attach_tx(to_switch)
                self.channels.append((f"{node_id}.{ch}.up", to_switch))
                self.channels.append((f"{node_id}.{ch}.down", from_switch))
                self._chan_map[(node_id, ch, "up")] = to_switch
                self._chan_map[(node_id, ch, "down")] = from_switch
                self._port_map[(node_id, ch)] = port
                self._install_blackouts(port, node_id, ch)

        # Trunks + static routes once every NIC is on its leaf; trunk
        # channels join the link list so the per-hop conservation
        # invariant walks them like any other wire.
        self.fabric.finalize()
        self.channels.extend(self.fabric.trunks)

        self._attach_protocols()

        if (
            self.cfg.sim.flow_mode == "auto"
            and rx_mode == "irq-pull"
            and "clic" in self.protocols
        ):
            self._install_flow_mode()

    # -- fault-plan wiring -----------------------------------------------------
    def _channel_faults(self, node_id: int, ch: int, direction: str) -> Optional[ChannelFaults]:
        """Build the fault injector for one simplex link, or ``None``.

        Each simplex link draws from its own RNG stream,
        ``loss.{node}.{ch}.{up|down}``, so adding a fault to one link
        never shifts another link's draws.
        """
        if self.faults is None:
            return None
        spec = self.faults.link_spec(node_id, ch, direction)
        if not spec.active:
            return None
        from ..faults import ChannelFaults

        injector = ChannelFaults(
            spec,
            rng=self.rng.stream(f"loss.{node_id}.{ch}.{direction}"),
            metrics=self.metrics,
            prefix=f"faults.link.{node_id}.{ch}.{direction}.",
        )
        for window in spec.outages:
            self.env.spawn(
                self._outage_span(window, f"node{node_id}.ch{ch}.{direction}"),
                name=f"faults.outage.{node_id}.{ch}.{direction}",
            )
        return injector

    def _install_blackouts(self, port, node_id: int, ch: int) -> None:
        """Attach any matching switch egress-blackout windows to ``port``."""
        if self.faults is None:
            return
        windows = self.faults.blackouts_for(node_id)
        if not windows:
            return
        port.switch.set_blackouts(port, windows)
        for window in windows:
            self.env.spawn(
                self._blackout_span(window, f"port{port.index}"),
                name=f"faults.blackout.{node_id}.{ch}",
            )

    def _outage_span(self, window, link: str) -> Generator:
        """Emit a trace span covering one scheduled link outage."""
        yield self.env.timeout(max(window.start_ns - self.env.now, 0.0))
        span = self.tracer.begin("faults", "link_outage", link=link)
        self.fault_counters["outages_started"] += 1
        yield self.env.timeout(window.duration_ns)
        span.end(duration_ns=window.duration_ns)

    def _blackout_span(self, window, port: str) -> Generator:
        """Emit a trace span covering one switch egress blackout."""
        yield self.env.timeout(max(window.start_ns - self.env.now, 0.0))
        span = self.tracer.begin("faults", "egress_blackout", port=port)
        self.fault_counters["blackouts_started"] += 1
        yield self.env.timeout(window.duration_ns)
        span.end(duration_ns=window.duration_ns)

    def _attach_protocols(self) -> None:
        # Imports here avoid protocol<->cluster import cycles.
        if "clic" in self.protocols:
            from ..protocols.clic import ClicModule

            for node in self.nodes:
                node.clic = ClicModule(node)
        if "tcp" in self.protocols:
            from ..protocols.tcpip import TcpIpStack

            for node in self.nodes:
                node.tcp = TcpIpStack(node)
        if "gamma" in self.protocols:
            from ..protocols.gamma import GammaLayer

            for node in self.nodes:
                node.gamma = GammaLayer(node)
        if "via" in self.protocols:
            from ..protocols.via import ViaNic

            for node in self.nodes:
                node.via = ViaNic(node)

    def _install_flow_mode(self) -> None:
        """Build the hybrid-engine controller and register flow routes.

        Routes exist only between single-NIC endpoints (channel bonding
        always takes the exact per-packet path).  Each route holds the
        destination's CLIC module, so the controller's eligibility checks
        read the same reorder-stash state the exact simulation would, and
        the closed-form ack latency composed here from the per-node
        hardware parameters.

        Flow routes are derived for the single-switch fabric only: a
        multi-switch path has per-trunk queueing the closed-form route
        model does not capture, so the controller is installed with
        ``topology_known=False`` and every train falls back to the
        exact per-packet engine (counted as ``fallback_unknown_topology``).
        """
        from ..protocols.headers import ClicAck
        from ..sim import FlowModeController, FlowRoute

        controller = FlowModeController(topology_known=not self.fabric.multi_switch)
        self.env.flow = controller
        if self.fabric.multi_switch:
            return
        for src in self.nodes:
            if len(src.nics) != 1:
                continue
            for dst in self.nodes:
                if dst is src or len(dst.nics) != 1:
                    continue
                up = self._chan_map[(src.node_id, 0, "up")]
                down = self._chan_map[(dst.node_id, 0, "down")]
                # Closed-form one-way flight time of a cumulative ack
                # along this route, composed from the same per-stage
                # parameters the packet path charges: tx DMA + firmware,
                # two wire serializations + propagations, store-and-
                # forward, rx firmware, the coalescing timer a lone
                # frame waits out, IRQ entry + driver costs, rx DMA, and
                # the bottom-half + module entry.
                ack_bytes = src.clic.params.header_bytes + ClicAck.WIRE_BYTES
                dst_nic = dst.nics[0]
                dst_drv = dst.drivers[0]
                ack_latency_ns = (
                    src.nics[0].pci.transfer_time(ack_bytes)
                    + src.nics[0].params.frame_processing_ns
                    + up.params.payload_time_ns(ack_bytes)
                    + up.params.propagation_ns
                    + self.switch.forward_ns
                    + down.params.payload_time_ns(ack_bytes)
                    + down.params.propagation_ns
                    + dst_nic.params.frame_processing_ns
                    + (dst_nic.params.coalesce_timeout_ns
                       if dst_nic.params.coalescing_enabled else 0.0)
                    + dst.kernel.params.irq_entry_ns
                    + dst_drv.params.irq_overhead_ns
                    + dst_drv.params.rx_per_frame_ns
                    + dst_nic.pci.transfer_time(ack_bytes)
                    + dst.kernel.params.bottom_half_dispatch_ns
                    + dst.clic.params.module_rx_ns
                )
                controller.register_route(src.node_id, dst.node_id, FlowRoute(
                    up=up,
                    down=down,
                    port=self._port_map[(dst.node_id, 0)],
                    switch=self.switch,
                    src_nic=src.nics[0],
                    src_driver=src.drivers[0],
                    dst_nic=dst_nic,
                    rx_budget=dst_drv.params.rx_budget_per_irq,
                    dst_coalescing=dst_nic.params.coalescing_enabled,
                    module=dst.clic,
                    peer=src.node_id,
                    ack_bytes=ack_bytes,
                    ack_latency_ns=ack_latency_ns,
                ))

    # -- conveniences ----------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        return self.nodes[node_id]

    def run(self, until=None):
        """Advance the shared simulation."""
        return self.env.run(until=until)

    def __repr__(self) -> str:
        return f"<Cluster nodes={len(self.nodes)} protocols={self.protocols}>"
