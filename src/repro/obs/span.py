"""Span-based structured tracing layered on the simulation event loop.

A :class:`Span` is a named interval of simulated time inside a *scope*
(``node0.kernel``, ``node1.eth0``, ``node1.clic`` — node + subsystem).
Spans carry parent links: the parent of a new span is the innermost
span still open *in the same simulated process*, which matches how the
generator-based components actually nest (a syscall span opened by a
user process never becomes the parent of an interrupt handler that
merely fires while the process sleeps — the handler runs in its own
sim process and gets its own stack).

Next to spans, the :class:`Tracer` keeps *instants*: point events that
are not span edges (``driver_tx``, ``driver_rx``, ``module_rx``,
``peer_dead``), in one append-ordered list, and, when asked to, *hop
records*: one message fragment passing one stage of its journey (see
:mod:`repro.obs.journey`).  These are the run's only record stream:
:func:`repro.obs.critical_path` derives the Figure-7 breakdown from the
span and instant export dicts, :func:`repro.obs.journeys_of` every
message's journey from the hop records.

Everything is cheap when tracing is disabled: one attribute check and a
shared :data:`NULL_SPAN` singleton on the hot paths.

This module intentionally imports nothing from :mod:`repro.sim` — the
``env`` argument is duck-typed (``.now`` and ``.active_process``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Instant", "Tracer", "NULL_SPAN"]


class Instant(NamedTuple):
    """A point event kept in the tracer's instant list."""

    time: float
    scope: str
    name: str
    detail: Dict[str, Any]


class Span:
    """One begin/end interval; also usable as a context manager."""

    __slots__ = ("span_id", "scope", "name", "start_ns", "end_ns",
                 "parent_id", "attrs", "_tracer", "_key")

    def __init__(self, tracer: "Tracer", span_id: int, scope: str, name: str,
                 start_ns: float, parent_id: Optional[int], attrs: Dict[str, Any],
                 key: Any):
        self._tracer = tracer
        self.span_id = span_id
        self.scope = scope
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.parent_id = parent_id
        self.attrs = attrs
        self._key = key

    # -- lifecycle -------------------------------------------------------
    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes discovered after begin (e.g. the packet id)."""
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> "Span":
        """Close the span at the current simulation time."""
        if attrs:
            self.attrs.update(attrs)
        self._tracer._end(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()

    # -- queries ---------------------------------------------------------
    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} still open")
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1000.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by exporters and artifacts."""
        return {
            "id": self.span_id,
            "scope": self.scope,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent_id,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        end = f"{self.end_ns:,.0f}" if self.end_ns is not None else "open"
        return f"<Span #{self.span_id} {self.scope}/{self.name} [{self.start_ns:,.0f}..{end}] ns>"


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    span_id = 0
    scope = ""
    name = ""
    start_ns = 0.0
    end_ns = 0.0
    parent_id = None
    attrs: Dict[str, Any] = {}
    duration_ns = 0.0
    duration_us = 0.0

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Tracer:
    """Factory and record of the spans/instants of one simulation run."""

    def __init__(self, env: Any, enabled: bool = False):
        self.env = env
        #: span/instant recording switch (``ClusterConfig.trace``)
        self.enabled = enabled
        #: hop records ``(t, hop, scope, payload, detail)`` in record
        #: order, or ``None`` (the default): not recording.  Hop sites
        #: check it inline, independent of span tracing, so journeys can
        #: be on while spans are off
        self.hop_log: Optional[List[Tuple[float, str, str, Any, Dict[str, Any]]]] = None
        self._seq = 0
        #: every span ever begun, in begin order (deterministic ids)
        self.spans: List[Span] = []
        self._stacks: Dict[Any, List[Span]] = {}
        #: every instant recorded, in append (= simulated time) order
        self.instants: List[Instant] = []

    # -- span lifecycle --------------------------------------------------
    def begin(self, scope: str, name: str, owner: Any = None, **attrs: Any) -> Span:
        """Open a span; its parent is the innermost open span of the same
        simulated process.

        ``owner`` stands in for the process when a span is begun from a
        callback rather than a process: spans nest within one owner.
        """
        if not self.enabled:
            return NULL_SPAN
        now = self.env.now
        key = owner if owner is not None else getattr(self.env, "active_process", None)
        stack = self._stacks.get(key)
        parent_id = stack[-1].span_id if stack else None
        self._seq += 1
        span = Span(self, self._seq, scope, name, now, parent_id, dict(attrs), key)
        self.spans.append(span)
        if stack is None:
            self._stacks[key] = [span]
        else:
            stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        if span.end_ns is not None:
            raise ValueError(f"span {span.name!r} ended twice")
        span.end_ns = self.env.now
        stack = self._stacks.get(span._key)
        if stack is not None:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i]
                    break
            if not stack:
                del self._stacks[span._key]

    # -- instants --------------------------------------------------------
    def instant(self, scope: str, name: str, **detail: Any) -> None:
        """Record a point event that is not a span edge."""
        if not self.enabled:
            return
        self.instants.append(Instant(self.env.now, scope, name, detail))

    # -- hops ------------------------------------------------------------
    def hop(self, payload: Any, hop: str, scope: str, **detail: Any) -> None:
        """Record ``payload`` passing stage ``hop`` of its journey.

        Callers check ``hop_log is not None`` first, and compute
        ``detail`` only then."""
        self.hop_log.append((self.env.now, hop, scope, payload, detail))

    def __repr__(self) -> str:
        return f"<Tracer spans={len(self.spans)} enabled={self.enabled}>"
