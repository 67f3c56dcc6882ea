"""Interrupt coalescing.

Section 2 of the paper: a Gigabit Ethernet NIC at MTU 1500 would raise
one interrupt every ~12 µs, which no 2003-era host can absorb; NICs
therefore *coalesce* — they assert the interrupt only after a frame-count
threshold or a hold-off timer, trading per-packet latency for rate.  The
paper's CLIC uses the NICs' coalesced interrupts and notes drivers allow
dynamic adjustment of the time window.

The coalescer here is deliberately driver-visible:

* :meth:`note_frame` — NIC calls this as each frame becomes ready;
* ``fire_cb`` — invoked (once) when the IRQ is asserted;
* :meth:`service_done` — the driver calls this after draining; if frames
  arrived meanwhile, a new coalescing round starts immediately.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from ...config import NicParams
from ...sim import Environment, TimerHandle

__all__ = ["InterruptCoalescer"]


class InterruptCoalescer:
    """Frame-count / hold-off-timer interrupt moderation."""

    def __init__(self, env: Environment, params: NicParams, fire_cb: Callable[[], None], name: str = "coalesce"):
        self.env = env
        self.params = params
        self.fire_cb = fire_cb
        self.name = name
        self.counters = Counter()
        self._pending = 0
        self._in_service = False
        self._timer: Optional[TimerHandle] = None

    @property
    def pending(self) -> int:
        """Frames noted since the last IRQ assert."""
        return self._pending

    def note_frame(self, k: int = 1) -> None:
        """NIC-side: ``k`` more received frames await service.

        A flow-mode train lands its ``k`` frames at once, so the
        frame-count threshold is evaluated once against the whole batch
        — one IRQ per train when ``k`` meets the threshold, exactly what
        ``k`` back-to-back single-frame calls would have produced.
        """
        self._pending += k
        self.counters["frames_noted"] += k
        if self._in_service:
            # The driver's drain loop will pick it up; no new IRQ.
            return
        if not self.params.coalescing_enabled:
            self._fire()
            return
        if self._pending >= self.params.coalesce_frames:
            self._fire()
        elif self._timer is None:
            self._start_timer()

    def service_done(self, frames_still_pending: int) -> None:
        """Driver-side: the IRQ handler finished draining.

        ``frames_still_pending`` is how many frames remain unserviced in
        the NIC (normally 0; non-zero if the driver bounded its drain).
        """
        self._in_service = False
        self._pending = frames_still_pending
        if self._pending:
            if not self.params.coalescing_enabled:
                self._fire()
            else:
                # Even above the frame threshold, re-assert only after the
                # hold-off (hardware interrupt mitigation): this guarantees
                # softirq work — protocol processing and acks — gets CPU
                # between interrupts, preventing receive livelock.
                self._start_timer()

    # -- internals --------------------------------------------------------
    def _fire(self) -> None:
        if self._timer is not None:  # cancels any running hold-off timer
            self._timer.cancel()
            self._timer = None
        self._pending = 0
        self._in_service = True
        self.fire_cb()

    def _start_timer(self) -> None:
        # One hold-off timer per coalescing round: a slotted handle that
        # is cancelled lazily if the frame threshold fires first.
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.env.call_later(
            self.params.coalesce_timeout_ns, self._on_timer
        )

    def _on_timer(self) -> None:
        self._timer = None
        if not self._in_service and self._pending:
            self.counters["timer_fires"] += 1
            self._fire()
