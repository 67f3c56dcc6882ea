"""CLIC control protocol: kernel-level echo and node aliveness.

§3.1 gives the CLIC header a packet-class field distinguishing "an MPI
packet, an internal packet, a kernel function packet, etc.".  The kernel
-function class lets one node run a registered function inside another
node's kernel without any user process being scheduled — this module
builds the two obvious services on top of it:

* **kernel echo** — a kernel-level ping: the probe and its reply are
  handled entirely in bottom-half context on the remote side, so the
  measured RTT is the OS-path floor (no remote syscall, no wakeup, no
  copy to user).  Useful for isolating how much of CLIC's 36 µs latency
  is the *receiver process* machinery versus the transport itself.
* **aliveness tracking** — cluster membership by periodic kernel pings,
  the building block a real cluster layer needs for fault reporting.
  CLIC's reliability machinery detects a dead peer by retry exhaustion;
  :meth:`ClicControl.watch` detects it proactively — and both routes
  funnel into :meth:`ClicModule.declare_peer_dead`, so retry exhaustion
  and ping loss always *agree* on which peers are down.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from ...sim import Environment, Event
from ..reliability import DeliveryFailed

__all__ = ["ClicControl", "EchoStats"]

#: kernel-function ids used by the control protocol
FN_ECHO_REQUEST = 0xE0
FN_ECHO_REPLY = 0xE1

_echo_ids = itertools.count(1)


@dataclass
class EchoStats:
    """Accumulated kernel-echo results for one peer."""

    peer: int
    sent: int = 0
    received: int = 0
    last_rtt_ns: float = 0.0
    total_rtt_ns: float = 0.0

    @property
    def mean_rtt_ns(self) -> float:
        return self.total_rtt_ns / self.received if self.received else 0.0

    @property
    def lost(self) -> int:
        return self.sent - self.received


class ClicControl:
    """Kernel-level control services on top of one node's CLIC module."""

    def __init__(self, node):
        self.node = node
        self.env: Environment = node.env
        self.module = node.clic
        self.counters = Counter()
        self._pending: Dict[int, Event] = {}  # echo id -> completion
        self._sent_at: Dict[int, float] = {}
        self.stats: Dict[int, EchoStats] = {}
        self.module.register_kernel_fn(FN_ECHO_REQUEST, self._on_echo_request)
        self.module.register_kernel_fn(FN_ECHO_REPLY, self._on_echo_reply)
        self.module.peer_death_listeners.append(self._on_peer_dead)

    # -- echo ---------------------------------------------------------------
    def echo(self, peer: int, timeout_ns: float = 10_000_000.0) -> Generator:
        """Kernel ping: returns the RTT in ns, or ``None`` on timeout.

        Runs in the caller's process context; the send enters the kernel
        through a syscall, but the remote side never leaves it.
        """
        echo_id = next(_echo_ids)
        done = self.env.event()
        self._pending[echo_id] = done
        stats = self.stats.setdefault(peer, EchoStats(peer=peer))
        stats.sent += 1
        self._sent_at[echo_id] = self.env.now
        self.counters["echo_sent"] += 1
        try:
            yield from self.node.kernel.syscall(
                self.module.send(
                    peer, port=0, nbytes=8, tag=FN_ECHO_REQUEST,
                    ptype=_kernel_fn_type(), payload=("echo", echo_id, self.node.node_id),
                ),
                label="clic_echo",
            )
        except DeliveryFailed:
            # The data channel to the peer is already dead — an echo
            # cannot leave the node; report it as a lost probe.
            self._pending.pop(echo_id, None)
            self._sent_at.pop(echo_id, None)
            self.counters["echo_failed"] += 1
            return None
        outcome = yield self.env.any_of([done, self.env.timeout(timeout_ns)])
        self._pending.pop(echo_id, None)
        sent_at = self._sent_at.pop(echo_id)
        if done not in outcome:
            self.counters["echo_timeouts"] += 1
            return None
        rtt = self.env.now - sent_at
        stats.received += 1
        stats.last_rtt_ns = rtt
        stats.total_rtt_ns += rtt
        return rtt

    def is_alive(self, peer: int, probes: int = 2, timeout_ns: float = 5_000_000.0) -> Generator:
        """Probe a peer: True as soon as one echo returns.

        A peer the module has already declared dead (by retry exhaustion
        or by a :meth:`watch` process) is reported down without probing.
        """
        if self.module.peer_is_dead(peer):
            return False
        for _ in range(probes):
            rtt = yield from self.echo(peer, timeout_ns=timeout_ns)
            if rtt is not None:
                return True
        return False

    # -- proactive aliveness watching ------------------------------------------
    def watch(
        self,
        peer: int,
        interval_ns: float = 100_000_000.0,
        timeout_ns: float = 50_000_000.0,
        loss_threshold: int = 3,
    ) -> Generator:
        """Ping ``peer`` every ``interval_ns``; after ``loss_threshold``
        *consecutive* lost probes declare it dead via the module.

        Run as a process: ``env.process(control.watch(peer))``.  The loop
        ends once the peer is down (however that was discovered).
        """
        misses = 0
        while not self.module.peer_is_dead(peer):
            rtt = yield from self.echo(peer, timeout_ns=timeout_ns)
            if self.module.peer_is_dead(peer):
                break
            if rtt is None:
                misses += 1
                self.counters["watch_misses"] += 1
                if misses >= loss_threshold:
                    self.module.declare_peer_dead(
                        peer, f"{misses} consecutive aliveness probes lost"
                    )
                    break
            else:
                misses = 0
            yield self.env.timeout(interval_ns)

    def peer_down(self, peer: int) -> bool:
        """True once ``peer`` is known dead (shared module verdict)."""
        return self.module.peer_is_dead(peer)

    def _on_peer_dead(self, peer: int, reason: str) -> None:
        self.counters["peers_reported_dead"] += 1

    # -- kernel-side handlers (bottom-half context) ----------------------------
    def _on_echo_request(self, pkt) -> Generator:
        """Remote side: bounce the reply straight from kernel context."""
        self.counters["echo_served"] += 1
        kind, echo_id, origin = pkt.payload
        yield from self.module.send(
            origin, port=0, nbytes=8, tag=FN_ECHO_REPLY,
            ptype=_kernel_fn_type(), payload=("reply", echo_id, self.node.node_id),
        )

    def _on_echo_reply(self, pkt) -> Generator:
        kind, echo_id, origin = pkt.payload
        done = self._pending.get(echo_id)
        if done is not None and not done.triggered:
            done.succeed()
        self.counters["echo_replies"] += 1
        return
        yield  # pragma: no cover - keeps this a generator


def _kernel_fn_type():
    from ..headers import ClicPacketType

    return ClicPacketType.KERNEL_FN
