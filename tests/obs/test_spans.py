"""Span-layer tests: parenting, the span and instant lists, null path,
and determinism."""

import pytest

from repro.obs import NULL_SPAN, Tracer
from repro.sim import Environment


def make_tracer(enabled=True):
    env = Environment()
    return env, Tracer(env, enabled=enabled)


def test_spans_nest_within_one_process():
    env, tracer = make_tracer()

    def proc():
        outer = tracer.begin("node0.kernel", "syscall", label="send")
        inner = tracer.begin("node0.clic", "clic_send")
        yield env.timeout(10)
        inner.end()
        yield env.timeout(5)
        outer.end()

    env.process(proc(), name="p")
    env.run()
    outer, inner = tracer.spans  # begin order
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.start_ns == 0 and inner.end_ns == 10
    assert outer.duration_ns == 15


def test_concurrent_processes_do_not_cross_parent():
    """A span opened by one sim process must never parent a span opened
    by another process that merely runs while the first sleeps."""
    env, tracer = make_tracer()

    def sleeper():
        span = tracer.begin("node0.kernel", "syscall")
        yield env.timeout(100)
        span.end()

    def interloper():
        yield env.timeout(50)
        span = tracer.begin("node0.eth0", "irq")
        yield env.timeout(10)
        span.end()

    env.process(sleeper(), name="a")
    env.process(interloper(), name="b")
    env.run()
    syscall, irq = tracer.spans  # begin order
    assert irq.name == "irq"
    assert irq.parent_id is None  # not the sleeping process's syscall


def test_disabled_tracer_returns_null_span():
    env, tracer = make_tracer(enabled=False)
    span = tracer.begin("x", "y")
    assert span is NULL_SPAN
    span.annotate(a=1).end()
    tracer.instant("x", "z")
    assert tracer.spans == []
    assert tracer.instants == []


def test_span_double_end_raises():
    env, tracer = make_tracer()
    span = tracer.begin("s", "n")
    span.end()
    with pytest.raises(ValueError, match="twice"):
        span.end()
    with pytest.raises(ValueError, match="open"):
        tracer.begin("s", "m").duration_ns


def test_lookups():
    env, tracer = make_tracer()

    def proc():
        a = tracer.begin("node1.eth0", "irq")
        yield env.timeout(10)
        tracer.instant("node1.eth0", "driver_rx", pkt=7)
        a.end()
        yield env.timeout(10)
        b = tracer.begin("node1.eth0", "irq")
        yield env.timeout(10)
        b.end()

    env.process(proc(), name="p")
    env.run()
    # Callers look records up by scanning the two lists.
    irqs = [s for s in tracer.spans if s.scope == "node1.eth0" and s.name == "irq"]
    assert [(s.start_ns, s.end_ns) for s in irqs] == [(0, 10), (20, 30)]
    assert [s for s in tracer.spans if s.name == "nonexistent"] == []
    rx = [i for i in tracer.instants if i.name == "driver_rx" and i.detail["pkt"] == 7]
    assert [(i.time, i.scope) for i in rx] == [(10, "node1.eth0")]


def test_same_seed_runs_are_byte_identical():
    """Two identical fig7 captures must produce identical span streams
    and byte-identical Chrome exports (determinism acceptance check)."""
    from repro.experiments import fig7
    from repro.obs import chrome_trace_json, instants_of, spans_of

    def one_run():
        cluster, pkt_id, timeline, done = fig7.capture(direct_rx=False)
        spans = spans_of(cluster.tracer)
        return spans, chrome_trace_json(spans, instants_of(cluster.tracer))

    spans_1, chrome_1 = one_run()
    spans_2, chrome_2 = one_run()
    assert spans_1 == spans_2
    assert chrome_1 == chrome_2
    assert len(spans_1) > 0
