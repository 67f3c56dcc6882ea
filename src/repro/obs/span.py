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
``peer_dead``), in one append-ordered list.  Spans and instants are the
run's only record stream; :func:`repro.obs.critical_path` derives the
Figure-7 breakdown from their export dicts.

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
    """Factory and index for spans/instants of one simulation run."""

    def __init__(self, env: Any, enabled: bool = False):
        self.env = env
        #: span/instant recording switch (``ClusterConfig.trace``)
        self.enabled = enabled
        #: optional :class:`repro.obs.journey.JourneyRecorder`; ``None``
        #: (the default) disables journey capture — instrumented hop
        #: sites check this attribute inline, independent of span
        #: tracing, so journeys can be on while spans are off
        self.journeys = None
        self._seq = 0
        #: every span ever begun, in begin order (deterministic ids)
        self.spans: List[Span] = []
        self._stacks: Dict[Any, List[Span]] = {}
        self._by_name: Dict[Tuple[str, str], List[Span]] = {}
        #: every instant recorded, in append (= simulated time) order
        self._instants: List[Instant] = []

    # -- span lifecycle --------------------------------------------------
    def begin(self, scope: str, name: str, parent: Optional[Span] = None,
              owner: Any = None, **attrs: Any) -> Span:
        """Open a span; the parent defaults to the innermost open span of
        the same simulated process.

        ``owner`` stands in for the process when a span is begun from a
        callback rather than a process: spans nest within one owner.
        """
        if not self.enabled:
            return NULL_SPAN
        now = self.env.now
        key = owner if owner is not None else getattr(self.env, "active_process", None)
        stack = self._stacks.get(key)
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = None
        self._seq += 1
        span = Span(self, self._seq, scope, name, now, parent_id, dict(attrs), key)
        self.spans.append(span)
        self._by_name.setdefault((scope, name), []).append(span)
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
        self._instants.append(Instant(self.env.now, scope, name, detail))

    # -- lookups ---------------------------------------------------------
    def find(self, scope: Optional[str] = None, name: Optional[str] = None,
             scope_prefix: Optional[str] = None, **attrs: Any) -> List[Span]:
        """Spans matching scope (exact or prefix), name, and attributes."""
        if scope is not None and name is not None and not attrs:
            return list(self._by_name.get((scope, name), []))
        out = []
        for span in self.spans:
            if scope is not None and span.scope != scope:
                continue
            if scope_prefix is not None and not span.scope.startswith(scope_prefix):
                continue
            if name is not None and span.name != name:
                continue
            if attrs and not all(span.attrs.get(k) == v for k, v in attrs.items()):
                continue
            out.append(span)
        return out

    def instants(self, name: Optional[str] = None, scope_prefix: Optional[str] = None,
                 **detail: Any) -> List[Instant]:
        """Point events in append order, filtered by name, scope prefix
        and detail (every instant when no filter is given)."""
        return [
            i for i in self._instants
            if (name is None or i.name == name)
            and (scope_prefix is None or i.scope.startswith(scope_prefix))
            and all(i.detail.get(k) == v for k, v in detail.items())
        ]

    def first_instant(self, name: str, scope_prefix: Optional[str] = None,
                      **detail: Any) -> Optional[Instant]:
        """First instant matching the :meth:`instants` filters, or ``None``."""
        found = self.instants(name, scope_prefix=scope_prefix, **detail)
        return found[0] if found else None

    # -- maintenance -----------------------------------------------------
    def clear(self) -> None:
        """Drop all spans and instants (the id sequence keeps counting)."""
        self.spans.clear()
        self._stacks.clear()
        self._by_name.clear()
        self._instants.clear()

    def __repr__(self) -> str:
        return f"<Tracer spans={len(self.spans)} enabled={self.enabled}>"
