"""Store-and-forward Ethernet switch.

The paper's testbed connects the two machines through a Gigabit Ethernet
switch (and §5 notes CLIC exploits Ethernet's data-link multicast and
builds channel-bonded networks through a switch).  This model:

* learns nothing dynamically — ports register their MAC on attach
  (adequate for a closed cluster; keeps the simulation deterministic);
* forwards a frame after its full reception (store-and-forward: the
  ingress link has already serialized it) plus a fixed forwarding
  latency;
* replicates broadcast/multicast frames to every other port;
* handles egress-queue exhaustion per the configured *backpressure
  mode*: ``"drop"`` (the default — tail-drop, counted) or ``"pause"``
  (the forwarding engine blocks until the queue has room, modelling an
  802.3x PAUSE-style lossless fabric; the stall is accounted in
  ``pause_events`` / ``pause_time_ns``);
* supports scheduled egress *blackouts* per port (see
  :mod:`repro.faults`): during a blackout window the port drops every
  frame queued for it (counted), modelling a reconverging or wedged
  switch port.

Queue occupancy is observable: each enqueue refreshes a per-port depth
gauge (``portN_depth``) and a cluster-wide high-water mark
(``max_queue_depth``) that the invariant harness checks against the
configured capacity (the bounded-memory rule).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..config import LinkParams
from ..obs import MetricsRegistry
from ..sim import Environment, Store
from .link import Channel
from .nic.frames import Frame, MacAddress

__all__ = ["Switch", "SwitchPort", "BACKPRESSURE_MODES"]

#: Default forwarding latency of an early-2000s GigE switch (store-and-
#: forward pipeline after last bit in), ns.
DEFAULT_FORWARD_NS = 2_000.0

#: supported egress-exhaustion policies
BACKPRESSURE_MODES = ("drop", "pause")


class SwitchPort:
    """One switch port: an egress queue plus its transmit pump."""

    def __init__(self, switch: "Switch", index: int, egress: Channel, queue_frames: int):
        self.switch = switch
        self.index = index
        self.egress = egress
        self.queue: Store = Store(switch.env, capacity=queue_frames)
        self.macs: List[MacAddress] = []
        #: scheduled egress-blackout windows (objects with ``covers(now)``)
        self.blackouts: Tuple = ()
        #: highest queue occupancy ever observed (bounded-memory audit)
        self.max_depth = 0
        #: this port's depth gauge, registered on first use (an
        #: instrument that never fires stays out of the snapshot)
        self._depth_gauge = None
        #: broadcast frames replicate out this port (fabric builders clear
        #: this on redundant trunk ports to keep the flood tree loop-free)
        self.flood = True
        switch.env.spawn(self._pump(), name=f"{switch.name}.port{index}.tx")

    @property
    def occupancy(self) -> int:
        """Queue occupancy in *frame* units.

        A flow-mode train entry stands for ``train_frames`` frames;
        with no trains queued this equals ``len(queue.items)``, keeping
        depth gauges bit-identical to the pre-hybrid simulator.
        """
        return sum(f.train_frames for f in self.queue.items)

    def _pump(self) -> Generator:
        while True:
            frame = yield self.queue.get()
            yield from self.egress.transmit(frame)

    def in_blackout(self, now: float) -> bool:
        """True while a scheduled blackout window covers ``now``."""
        return any(w.covers(now) for w in self.blackouts)

    def _note_depth(self) -> None:
        """Refresh the depth gauge and the switch-wide high-water mark."""
        depth = self.occupancy
        self.max_depth = max(self.max_depth, depth)
        if self._depth_gauge is None:
            self._depth_gauge = self.switch.metrics.gauge(
                f"{self.switch.name}.port{self.index}_depth")
        self._depth_gauge.set(depth)
        self.switch.note_depth(self.max_depth)

    def _drop_for_blackout(self, frame: Frame) -> bool:
        """Drop (counted) when a blackout window covers now."""
        switch = self.switch
        if self.blackouts and self.in_blackout(switch.env.now):
            switch.counters["blackout_drops"] += frame.train_frames
            tracer = switch.tracer
            if tracer is not None and tracer.hop_log is not None:
                tracer.hop(frame.payload, "switch_drop", "switch",
                           port=self.index, reason="blackout")
            return True
        return False

    def enqueue(self, frame: Frame) -> None:
        """Queue a frame for egress; drop (counted) if the queue is full
        or the port is blacked out — the ``"drop"`` backpressure mode."""
        if self._drop_for_blackout(frame):
            return
        k = frame.train_frames
        tracer = self.switch.tracer
        hops = tracer is not None and tracer.hop_log is not None
        if self.occupancy + k > self.queue.capacity:
            self.switch.counters["drops"] += k
            if hops:
                tracer.hop(frame.payload, "switch_drop", "switch",
                           port=self.index, reason="overflow")
            return
        if hops:
            tracer.hop(frame.payload, "switch", "switch",
                       port=self.index, depth=self.occupancy)
        self.queue.put_nowait(frame)
        self._note_depth()

    def enqueue_blocking(self, frame: Frame) -> Generator:
        """Queue a frame for egress, *waiting* for room when the queue is
        full — the ``"pause"`` backpressure mode.

        Blackouts still drop (a blacked-out port is dark, not slow).
        The wait propagates to the forwarding engine, so a congested
        egress stalls its ingress instead of shedding frames; the stall
        is accounted in ``pause_events`` / ``pause_time_ns``.
        """
        if self._drop_for_blackout(frame):
            return
        tracer = self.switch.tracer
        if tracer is not None and tracer.hop_log is not None:
            tracer.hop(frame.payload, "switch", "switch",
                       port=self.index, depth=self.occupancy)
        if len(self.queue.items) >= self.queue.capacity:
            switch = self.switch
            switch.counters["pause_events"] += 1
            paused_at = switch.env.now
            yield self.queue.put(frame)
            switch.counters["pause_time_ns"] += switch.env.now - paused_at
        else:
            yield self.queue.put(frame)
        self._note_depth()


class Switch:
    """An N-port store-and-forward switch."""

    def __init__(
        self,
        env: Environment,
        link_params: LinkParams,
        tracer=None,
        metrics=None,
        backpressure: str = "drop",
        name: str = "switch",
    ):
        if backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES} "
                f"(got {backpressure!r})"
            )
        self.env = env
        self.name = name
        self.link_params = link_params
        self.forward_ns = DEFAULT_FORWARD_NS
        #: egress queue depth of the ports attached from now on
        self.queue_frames = 512
        self.backpressure = backpressure
        self.ports: List[SwitchPort] = []
        self._mac_table: Dict[MacAddress, SwitchPort] = {}
        #: tallies land in this registry as ``<name>.*`` (the shared
        #: cluster registry, so run artifacts surface drop/pause accounting)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = self.metrics.tallies(name)
        #: highest egress-queue occupancy seen on any port
        self.max_queue_depth = 0
        self._max_depth_gauge = None  # registered on first use
        #: optional :class:`repro.obs.Tracer`; only its hop records are
        #: written (the switch emits no spans)
        self.tracer = tracer

    def note_depth(self, depth: int) -> None:
        """Fold one port's high-water mark into the switch-wide gauge."""
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
            if self._max_depth_gauge is None:
                self._max_depth_gauge = self.metrics.gauge(f"{self.name}.max_queue_depth")
            self._max_depth_gauge.set(depth)

    def attach(self, egress: Channel, mac: MacAddress) -> SwitchPort:
        """Create a port transmitting on ``egress``, owning ``mac``.

        Returns the port; wire the device's tx channel sink to
        ``port.receive``... i.e. ``channel.connect(switch.ingress(port))``.
        """
        port = SwitchPort(self, len(self.ports), egress, self.queue_frames)
        port.macs.append(mac)
        self.ports.append(port)
        if mac in self._mac_table:
            raise ValueError(f"duplicate MAC {mac}")
        self._mac_table[mac] = port
        return port

    def set_blackouts(self, port: SwitchPort, windows: Sequence) -> None:
        """Schedule egress-blackout windows on ``port`` (any objects with
        a ``covers(now)`` predicate, e.g. :class:`repro.faults.OutageWindow`)."""
        port.blackouts = tuple(sorted(windows, key=lambda w: w.start_ns))

    def add_mac(self, port: SwitchPort, mac: MacAddress) -> None:
        """Register an extra MAC behind a port (channel bonding helper)."""
        if mac in self._mac_table:
            raise ValueError(f"duplicate MAC {mac}")
        self._mac_table[mac] = port
        port.macs.append(mac)

    def ingress(self, from_port: SwitchPort):
        """Sink callable for the channel feeding this switch from a device."""

        def _receive(frame: Frame) -> None:
            if self.backpressure == "pause":
                # Enqueueing may block: the forward stays a process.
                self.env.spawn(self._forward_paused(frame, from_port),
                                 name=f"{self.name}.forward")
            else:
                # Drop mode never blocks: forwarding is a callback.
                self.env.tail_hop(self.forward_ns,
                                  partial(self._forward, frame, from_port))

        return _receive

    def _egress_ports(self, frame: Frame, from_port: SwitchPort) -> Sequence[SwitchPort]:
        """Count one forward of ``frame``; the ports it leaves through."""
        k = frame.train_frames
        self.counters["forwarded"] += k
        if frame.is_broadcast:
            return [p for p in self.ports if p is not from_port and p.flood]
        port = self._mac_table.get(frame.dst)
        if port is None:
            # Unknown unicast: a real switch floods; in a closed cluster
            # this indicates a wiring bug, so count and drop loudly.
            self.counters["unknown_dst"] += k
            return ()
        if port is from_port:
            self.counters["hairpin_dropped"] += k
            return ()
        return (port,)

    def _forward(self, frame: Frame, from_port: SwitchPort) -> None:
        """Forward ``frame`` once it has been through the switch
        (``"drop"`` backpressure: synchronous, never blocks)."""
        for port in self._egress_ports(frame, from_port):
            port.enqueue(frame)

    def _forward_paused(self, frame: Frame, from_port: SwitchPort) -> Generator:
        """Forward under ``"pause"`` backpressure: a full egress queue
        stalls the forwarding engine."""
        yield self.env.timeout(self.forward_ns)
        for port in self._egress_ports(frame, from_port):
            yield from port.enqueue_blocking(frame)
