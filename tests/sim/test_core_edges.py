"""Edge-case tests for the simulation core."""

import pytest
from reference_resources import Resource

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_interrupt_while_queued_on_resource():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def victim(env):
        req = res.request()
        try:
            yield req
            log.append("granted")
        except Interrupt:
            req.cancel()
            log.append("interrupted")

    def attacker(env, p):
        yield env.timeout(10)
        p.interrupt()

    env.process(holder(env))
    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == ["interrupted"]
    # The cancelled request never occupies the resource.
    assert res.count == 0


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_with_non_exception_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(10)
    env.run(until=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_repr_and_event_repr():
    env = Environment()

    def body(env):
        yield env.timeout(1)

    p = env.process(body(env), name="worker")
    assert "worker" in repr(p)
    assert "alive" in repr(p)
    ev = env.event()
    assert "pending" in repr(ev)
    env.run()
    assert "done" in repr(p)


def test_nested_yield_from_processes():
    env = Environment()

    def inner(env):
        yield env.timeout(10)
        return 5

    def middle(env):
        value = yield from inner(env)
        yield env.timeout(10)
        return value * 2

    def outer(env):
        value = yield from middle(env)
        return value + 1

    assert env.run(env.process(outer(env))) == 11
    assert env.now == 20
