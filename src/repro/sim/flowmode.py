"""Hybrid flow/packet engine: eligibility oracle for bulk-train batching.

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

:class:`FlowModeController` owns *eligibility*.  It never touches the
hardware models directly (this module stays import-free of ``hw`` and
``protocols``; everything is duck-typed), it only answers one question:
"may the next ``k`` full-size fragments of this flow advance as one
train, starting now?"  Anything it cannot prove quiet forces the exact
per-packet path for the affected flow — and because the answer is
re-evaluated per train, the fast path re-engages seamlessly once the
disturbance has passed.

The controller is installed on :attr:`Environment.flow
<repro.sim.Environment>` by the cluster builder when
``SimParams.flow_mode == "auto"``; with the default ``"off"`` the
attribute stays ``None`` and every run is bit-identical to the
pre-hybrid simulator.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["FlowModeController", "FlowRoute"]


def _windows_quiet(windows, start: float, end: float) -> bool:
    """True when no window in ``windows`` intersects ``[start, end)``."""
    for w in windows:
        if w.start_ns < end and start < w.end_ns:
            return False
    return True


class FlowRoute:
    """Everything the controller must inspect along one (src, dst) path.

    Built by the cluster wiring (single-NIC endpoints only — channel
    bonding always takes the exact path).  All attributes are duck-typed
    references into the hardware graph; the controller only reads them.
    """

    __slots__ = ("up", "down", "port", "src_nic", "dst_nic",
                 "rx_budget", "dst_coalescing", "stash_depth",
                 "forward_ns", "switch", "ack_latency_ns",
                 "deliver_ack")

    def __init__(self, up: Any, down: Any, port: Any, src_nic: Any,
                 dst_nic: Any, rx_budget: int, dst_coalescing: bool,
                 forward_ns: float = 0.0, switch: Any = None,
                 ack_latency_ns: float = 0.0):
        #: src NIC -> switch channel
        self.up = up
        #: switch -> dst NIC channel
        self.down = down
        #: the switch egress port feeding ``down``
        self.port = port
        self.src_nic = src_nic
        self.dst_nic = dst_nic
        #: dst driver's per-IRQ rx budget (a train must fit one IRQ)
        self.rx_budget = rx_budget
        #: dst NIC interrupt coalescing enabled (without it the per-frame
        #: IRQ cadence is itself the protocol-relevant boundary)
        self.dst_coalescing = dst_coalescing
        #: zero-arg callable: the dst reorder stash depth for this flow
        #: (assigned once the protocol layer is attached; a non-empty
        #: stash means in-flight reordering is being repaired)
        self.stash_depth = lambda: 0
        #: switch store-and-forward latency for the analytic hop
        self.forward_ns = forward_ns
        #: the switch (its ``forwarded`` counter is bumped closed-form)
        self.switch = switch
        #: closed-form one-way latency of a cumulative-ack frame along
        #: this route (computed once by the cluster wiring from the
        #: per-node hardware parameters)
        self.ack_latency_ns = ack_latency_ns
        #: one-arg callable delivering an express ack (cumulative seq)
        #: to the peer module, bumping conservation counters on the way
        #: (assigned by the cluster wiring)
        self.deliver_ack = None

    # -- analytic hop ----------------------------------------------------
    def hop_clear(self) -> bool:
        """May a train skip the wire/switch event machinery right now?

        True only when both wires are idle (nothing serializing *or*
        queued) and the egress port is empty — i.e. the train cannot
        overtake, delay, or be delayed by any in-flight frame, so one
        closed-form timer is indistinguishable (to the protocols) from
        the exact resource walk.
        """
        return self.up.idle and self.down.idle and self.port.occupancy == 0

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
        if self.switch is not None:
            self.switch.metrics.counter(f"{self.switch.name}.forwarded").value += k


class FlowModeController:
    """Eligibility oracle + accounting for the hybrid flow/packet engine.

    Parameters mirror :class:`repro.config.SimParams`: ``min_train`` is
    the smallest batch worth forming, ``max_train`` the largest batch one
    analytic step may advance, and ``horizon_ns`` the lookahead over
    which the path must be provably quiet (no scheduled outage,
    congestion or blackout window may intersect ``[now, now+horizon)``).
    """

    __slots__ = ("min_train", "max_train", "horizon_ns", "topology_known",
                 "_routes", "_by_src_nic", "counters")

    def __init__(self, min_train: int = 4, max_train: int = 16,
                 horizon_ns: float = 10_000_000.0,
                 topology_known: bool = True):
        if min_train < 2:
            raise ValueError(f"min_train must be >= 2 (got {min_train!r})")
        if max_train < min_train:
            raise ValueError("max_train must be >= min_train")
        if horizon_ns <= 0:
            raise ValueError("horizon_ns must be positive")
        self.min_train = min_train
        self.max_train = max_train
        self.horizon_ns = horizon_ns
        #: False when the cluster's fabric has no closed-form route model
        #: (multi-switch topologies): every train then falls back to the
        #: exact engine, counted as ``fallback_unknown_topology``.
        self.topology_known = topology_known
        self._routes: Dict[Tuple[int, int], FlowRoute] = {}
        self._by_src_nic: Dict[int, FlowRoute] = {}
        #: accounting: trains formed, frames batched, and per-reason
        #: fallback tallies (why the exact path was taken)
        self.counters: Dict[str, int] = {"trains": 0, "frames_batched": 0}

    # -- wiring ----------------------------------------------------------
    def register_route(self, src: int, dst: int, route: FlowRoute) -> None:
        """Register the hardware path for one (src, dst) node pair."""
        self._routes[(src, dst)] = route
        self._by_src_nic[(id(route.src_nic), route.dst_nic.mac)] = route

    def route(self, src: int, dst: int) -> Optional[FlowRoute]:
        """The registered route, or None (bonded/unknown paths)."""
        return self._routes.get((src, dst))

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
        intersecting the horizon.  Reordering against exact-path acks is
        tolerated by cumulative-ack semantics; reordering against *data*
        is impossible because acks travel the reverse direction.
        """
        route = self._routes.get((src, dst))
        if route is None or route.deliver_ack is None:
            self.counters["acks_exact"] = self.counters.get("acks_exact", 0) + 1
            return None
        horizon_end = now + self.horizon_ns
        for channel in (route.up, route.down):
            faults = channel.faults
            if faults is not None and not faults.quiet_over(now, horizon_end):
                self.counters["acks_exact"] = self.counters.get("acks_exact", 0) + 1
                return None
        if (not route.up.idle or not route.down.idle
                or route.port.occupancy > 0
                or not _windows_quiet(route.port.blackouts, now, horizon_end)):
            self.counters["acks_exact"] = self.counters.get("acks_exact", 0) + 1
            return None
        self.counters["acks_express"] = self.counters.get("acks_express", 0) + 1
        return route

    # -- accounting ------------------------------------------------------
    def _fallback(self, reason: str) -> int:
        key = f"fallback_{reason}"
        self.counters[key] = self.counters.get(key, 0) + 1
        return 0

    def note_train(self, k: int) -> None:
        """Record a formed train of ``k`` frames."""
        self.counters["trains"] += 1
        self.counters["frames_batched"] += k

    # -- the eligibility decision ---------------------------------------
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
        * window edge — fewer than ``min_train`` fragments or window
          slots available;
        * recovery — the sender is failed, retransmitting, or has
          dupack/timeout state in flight;
        * topology — no registered route (channel bonding, unknown
          peer);
        * faults — a stochastic loss/corruption/jitter/duplication
          model on either link direction, or a scheduled
          outage/congestion window intersecting the horizon;
        * switch contention — the egress queue is non-empty or a
          blackout window intersects the horizon;
        * receiver — coalescing off, reorder stash occupied, or not
          enough rx-ring headroom for the whole train.
        """
        if not self.topology_known:
            return self._fallback("unknown_topology")
        if remaining_full < self.min_train:
            return self._fallback("window_edge")
        window_free = sender.window - sender.in_flight
        if window_free < self.min_train:
            return self._fallback("window_edge")
        if sender.failed or sender.retransmitting:
            return self._fallback("recovery")
        route = self._routes.get((src, dst))
        if route is None:
            return self._fallback("topology")
        horizon_end = now + self.horizon_ns
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
        if route.stash_depth() > 0:
            return self._fallback("reorder_stash")
        k = min(remaining_full, window_free, self.max_train, route.rx_budget)
        headroom = route.dst_nic.rx_headroom()
        if headroom < k:
            k = headroom
        if k < self.min_train:
            return self._fallback("rx_ring")
        self.note_train(k)
        return k
