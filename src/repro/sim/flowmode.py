"""Hybrid flow/packet engine: eligibility and the analytic lanes.

The perf profile of a bulk transfer is one event per frame per hop —
NIC tx pump, wire, switch forward, egress wire, NIC rx, IRQ, bottom
half — even though in steady state every one of those per-frame steps
is analytically predictable.  The hybrid engine exploits that: when a
sender's window is in steady state, the protocol layer hands the
pipeline a *train* — one frame object that stands for ``k`` back-to-back
full-size fragments — and every hop advances it as a single batched
event whose duration and counters are computed closed-form over the
batch (``k`` x per-frame serialization, ``k`` PCI setups, ``k`` ring
slots, one coalesced interrupt).  Frames only materialize individually
at protocol-relevant boundaries: window edges, scheduled fault windows,
switch contention, reorder stash occupancy, ack cadence.

:class:`FlowModeController` owns *eligibility*: "may the next ``k``
full-size fragments of this flow advance as one train, starting now?"
and "may this ack skip the event-level transit?"  Anything it cannot
prove quiet forces the exact per-packet path for the affected flow — and
because the answer is re-evaluated per train, the fast path re-engages
seamlessly once the disturbance has passed.

:class:`FlowRoute` owns the two *analytic lanes*: it times the train hop
and the express ack and credits every counter they bypass.  This module
stays import-free of ``hw``, ``protocols`` and ``cluster``; the hardware
and protocol objects a route holds are duck-typed.

The controller is installed on :attr:`Environment.flow
<repro.sim.Environment>` by the cluster builder when
``SimParams.flow_mode == "auto"``; with the default ``"off"`` the
attribute stays ``None`` and every run is bit-identical to the
pre-hybrid simulator.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Dict, Optional, Tuple

__all__ = ["FlowModeController", "FlowRoute", "HORIZON_NS", "MAX_TRAIN",
           "MIN_TRAIN"]

#: smallest batch worth the batching bookkeeping; below it the
#: per-packet path is used
MIN_TRAIN = 4
#: largest batch one analytic step advances (the driver's per-IRQ rx
#: budget, so a train is consumed by a single interrupt)
MAX_TRAIN = 16
#: lookahead that proves a transit quiet: no scheduled fault, blackout or
#: congestion window may intersect ``[now, now + HORIZON_NS)``
HORIZON_NS = 10_000_000.0


def _windows_quiet(windows, start: float, end: float) -> bool:
    """True when no window in ``windows`` intersects ``[start, end)``."""
    for w in windows:
        if w.start_ns < end and start < w.end_ns:
            return False
    return True


class FlowRoute:
    """One (src, dst) path and the two analytic lanes that cross it.

    Built by the cluster wiring (single-NIC endpoints only — channel
    bonding always takes the exact path).  All attributes are duck-typed
    references into the hardware graph.  The route is the only code that
    knows how a lane is timed and which counters it credits:

    * the **train hop** (:meth:`carry`): an eligible train leaving
      ``src_nic`` lands on ``dst_nic`` after wire -> switch -> wire as
      one closed-form timer;
    * the **express ack** (:meth:`send_ack`): a cumulative ack sent
      from ``src`` lands on ``module`` (dst's protocol module) after
      ``ack_latency_ns`` as one closed-form timer.
    """

    __slots__ = ("env", "up", "down", "port", "switch", "src_nic",
                 "src_driver", "dst_nic", "rx_budget", "dst_coalescing",
                 "module", "peer", "ack_bytes", "ack_latency_ns", "offload")

    def __init__(self, up: Any, down: Any, port: Any, switch: Any,
                 src_nic: Any, src_driver: Any, dst_nic: Any,
                 rx_budget: int, dst_coalescing: bool, module: Any,
                 peer: int, ack_bytes: int, ack_latency_ns: float):
        self.env = src_nic.env
        #: src NIC -> switch channel
        self.up = up
        #: switch -> dst NIC channel
        self.down = down
        #: the switch egress port feeding ``down``
        self.port = port
        #: the switch (store-and-forward latency; ``forwarded`` counter)
        self.switch = switch
        self.src_nic = src_nic
        #: src driver (an express ack is accepted by it, closed-form)
        self.src_driver = src_driver
        self.dst_nic = dst_nic
        #: dst driver's per-IRQ rx budget (a train must fit one IRQ)
        self.rx_budget = rx_budget
        #: dst NIC interrupt coalescing enabled (without it the per-frame
        #: IRQ cadence is itself the protocol-relevant boundary)
        self.dst_coalescing = dst_coalescing
        #: dst protocol module: its reorder stash for ``peer`` gates
        #: trains, and it applies express acks from ``peer``
        self.module = module
        #: the src node id, as ``module`` knows it
        self.peer = peer
        #: wire payload of a cumulative-ack frame
        self.ack_bytes = ack_bytes
        #: closed-form one-way latency of a cumulative-ack frame along
        #: this route (computed once by the cluster wiring from the
        #: per-node hardware parameters)
        self.ack_latency_ns = ack_latency_ns
        #: either NIC does fragmentation offload: the sender's fragments
        #: are super-packets only the firmware splits, so neither lane
        #: engages (a train of them would arrive oversize)
        self.offload = (src_nic.params.supports_fragmentation
                        or dst_nic.params.supports_fragmentation)

    # -- train hop -------------------------------------------------------
    def hop_clear(self) -> bool:
        """May a train skip the wire/switch event machinery right now?

        True only when both wires are idle (nothing serializing *or*
        queued) and the egress port is empty — i.e. the train cannot
        overtake, delay, or be delayed by any in-flight frame, so one
        closed-form timer is indistinguishable (to the protocols) from
        the exact resource walk.
        """
        return self.up.idle and self.down.idle and self.port.occupancy == 0

    def carry(self, frame: Any) -> None:
        """Advance a train across wire -> switch -> wire analytically.

        The train's head lands at the pipelined (cut-through) time: one
        frame's serialization and propagation per wire plus the switch's
        store-and-forward latency, then :meth:`complete_hop`.
        """
        per_frame = frame.payload_bytes // frame.train_frames
        up, down = self.up.params, self.down.params
        latency = (
            up.payload_time_ns(per_frame)
            + up.propagation_ns
            + self.switch.forward_ns
            + down.payload_time_ns(per_frame)
            + down.propagation_ns
        )
        self.env.call_later(latency, partial(self.complete_hop, frame))

    def complete_hop(self, frame: Any) -> None:
        """Land an analytically advanced train on the destination NIC.

        Bumps the same per-layer counters the exact path would (the
        frame-conservation invariants balance NIC tx -> wire -> switch
        -> wire -> NIC rx), then hands the train to the normal NIC rx
        machinery — ring admission, coalescing and the IRQ path stay
        fully simulated.
        """
        self.credit_hop(frame.train_frames, frame.payload_bytes)
        self.dst_nic.receive_frame(frame)

    def credit_hop(self, k: int, nbytes: int) -> None:
        """Credit ``k`` frames of ``nbytes`` payload as offered and
        carried on both wires and forwarded by the switch — the tallies
        the exact path bumps when the frames cross it."""
        for channel in (self.up, self.down):
            c = channel.counters
            c["frames_offered"] += k
            c["bytes_offered"] += nbytes
            c["frames"] += k
            c["bytes"] += nbytes
        self.switch.counters["forwarded"] += k

    # -- express ack -----------------------------------------------------
    def send_ack(self, cumulative_seq: int) -> None:
        """Send a cumulative ack down this route as one closed-form timer.

        The caller has charged its own CPU work; the src NIC and driver
        are credited with the frame they would have carried, and the ack
        lands after ``ack_latency_ns`` (:meth:`_land_ack`).
        """
        c = self.src_nic.counters
        c["tx_frames"] += 1
        c["tx_bytes"] += self.ack_bytes
        self.src_driver.counters["tx_accepted"] += 1
        self.env.call_later(self.ack_latency_ns,
                            partial(self._land_ack, cumulative_seq))

    def _land_ack(self, cumulative_seq: int) -> None:
        """Credit both wires, the switch and the dst NIC with the ack
        frame, then hand the ack to the dst module."""
        self.credit_hop(1, self.ack_bytes)
        c = self.dst_nic.counters
        c["rx_frames"] += 1
        c["rx_bytes"] += self.ack_bytes
        self.module.receive_ack(self.peer, cumulative_seq)


class FlowModeController:
    """Eligibility oracle + accounting for the hybrid flow/packet engine.

    A train holds at least :data:`MIN_TRAIN` and at most
    :data:`MAX_TRAIN` frames, and its path must be provably quiet over
    :data:`HORIZON_NS` (no scheduled outage, congestion or blackout
    window may intersect ``[now, now + HORIZON_NS)``).
    """

    __slots__ = ("topology_known", "_routes", "_by_src_nic", "counters")

    def __init__(self, topology_known: bool = True):
        #: False when the cluster's fabric has no closed-form route model
        #: (multi-switch topologies): every train then falls back to the
        #: exact engine, counted as ``fallback_unknown_topology``.
        self.topology_known = topology_known
        self._routes: Dict[Tuple[int, int], FlowRoute] = {}
        self._by_src_nic: Dict[int, FlowRoute] = {}
        #: accounting: trains formed, frames batched, and per-reason
        #: fallback tallies (why the exact path was taken)
        self.counters: Counter = Counter(trains=0, frames_batched=0)

    # -- wiring ----------------------------------------------------------
    def register_route(self, src: int, dst: int, route: FlowRoute) -> None:
        """Register the hardware path for one (src, dst) node pair."""
        self._routes[(src, dst)] = route
        self._by_src_nic[(id(route.src_nic), route.dst_nic.mac)] = route

    def hop_route(self, src_nic: Any, dst_mac: Any) -> Optional[FlowRoute]:
        """Route for a train leaving ``src_nic`` toward ``dst_mac``.

        The NIC tx pump uses this to advance an eligible train across
        wire -> switch -> wire as one closed-form timer.
        """
        return self._by_src_nic.get((id(src_nic), dst_mac))

    def express_ack_route(self, src: int, dst: int,
                          now: float) -> Optional[FlowRoute]:
        """Route for a closed-form ack hop, or None (exact path).

        An ack may skip the event-level transit only when its whole path
        is provably quiet for the flight: no fault model on either wire,
        both wires idle, egress port empty, and no blackout window
        intersecting the horizon.  A fragmentation-offload route never
        batches, so its acks stay exact too and the whole flow runs
        bit-identical to ``"off"``.  Reordering against exact-path acks is
        tolerated by cumulative-ack semantics; reordering against *data*
        is impossible because acks travel the reverse direction.
        """
        route = self._routes.get((src, dst))
        if route is None or route.offload:
            self.counters["acks_exact"] += 1
            return None
        horizon_end = now + HORIZON_NS
        for channel in (route.up, route.down):
            faults = channel.faults
            if faults is not None and not faults.quiet_over(now, horizon_end):
                self.counters["acks_exact"] += 1
                return None
        if (not route.up.idle or not route.down.idle
                or route.port.occupancy > 0
                or not _windows_quiet(route.port.blackouts, now, horizon_end)):
            self.counters["acks_exact"] += 1
            return None
        self.counters["acks_express"] += 1
        return route

    # -- the eligibility decision ---------------------------------------
    def _fallback(self, reason: str) -> int:
        self.counters[f"fallback_{reason}"] += 1
        return 0

    def plan_train(self, src: int, dst: int, sender: Any,
                   remaining_full: int, now: float) -> int:
        """Largest train size admissible right now (0 = exact path).

        ``sender`` is the flow's :class:`~repro.protocols.reliability.
        WindowedSender`; ``remaining_full`` counts the full-size
        fragments still ahead of the current one in this message (the
        short tail fragment never rides a train, so a train can never
        complete a message and batched delivery stays a pure
        mid-stream operation).

        The checks, in cheap-to-expensive order; each names the
        boundary that forces packet-exact simulation:

        * unknown topology — the fabric is multi-switch, so no
          closed-form route model exists at all;
        * window edge — fewer than :data:`MIN_TRAIN` fragments or
          window slots available;
        * recovery — the sender is failed, retransmitting, or has
          dupack/timeout state in flight;
        * topology — no registered route (channel bonding, unknown
          peer);
        * fragmentation offload — either NIC on the route splits
          super-packets in firmware;
        * faults — a stochastic loss/jitter/duplication
          model on either link direction, or a scheduled
          outage/congestion window intersecting the horizon;
        * switch contention — the egress queue is non-empty or a
          blackout window intersects the horizon;
        * receiver — coalescing off, reorder stash occupied, or not
          enough rx-ring headroom for the whole train.
        """
        if not self.topology_known:
            return self._fallback("unknown_topology")
        if remaining_full < MIN_TRAIN:
            return self._fallback("window_edge")
        window_free = sender.window - sender.in_flight
        if window_free < MIN_TRAIN:
            return self._fallback("window_edge")
        if sender.failed or sender.retransmitting:
            return self._fallback("recovery")
        route = self._routes.get((src, dst))
        if route is None:
            return self._fallback("topology")
        if route.offload:
            return self._fallback("fragmentation_offload")
        horizon_end = now + HORIZON_NS
        for channel in (route.up, route.down):
            faults = channel.faults
            if faults is not None and not faults.quiet_over(now, horizon_end):
                return self._fallback("faults")
        port = route.port
        if port.occupancy > 0:
            return self._fallback("switch_contention")
        if not _windows_quiet(port.blackouts, now, horizon_end):
            return self._fallback("switch_contention")
        if not route.dst_coalescing:
            return self._fallback("coalescing_off")
        if route.module.reorder_stash_depth(route.peer) > 0:
            return self._fallback("reorder_stash")
        k = min(remaining_full, window_free, MAX_TRAIN, route.rx_budget)
        headroom = route.dst_nic.rx_headroom()
        if headroom < k:
            k = headroom
        if k < MIN_TRAIN:
            return self._fallback("rx_ring")
        self.counters["trains"] += 1
        self.counters["frames_batched"] += k
        return k
