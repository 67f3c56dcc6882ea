"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100)
        assert env.now == 100
        yield env.timeout(50)
        return env.now

    p = env.process(proc(env))
    result = env.run(p)
    assert result == 150
    assert env.now == 150


def test_timeout_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout(10)
        return value, env.now

    assert env.run(env.process(proc(env))) == (None, 10)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_same_time_events_fifo_order():
    env = Environment()
    log = []

    def worker(env, name):
        yield env.timeout(5)
        log.append(name)

    for name in "abc":
        env.process(worker(env, name))
    env.run()
    assert log == ["a", "b", "c"]


def test_process_waits_for_process():
    env = Environment()

    def child(env):
        yield env.timeout(30)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    assert env.run(env.process(parent(env))) == (30, 42)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env):
        value = yield ev
        return (env.now, value)

    def firer(env):
        yield env.timeout(25)
        ev.succeed("done")

    p = env.process(waiter(env))
    env.process(firer(env))
    assert env.run(p) == (25, "done")


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            return str(exc)

    def firer(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    p = env.process(waiter(env))
    env.process(firer(env))
    assert env.run(p) == "boom"


def test_unhandled_failure_propagates_out_of_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("oops")

    env.process(bad(env))
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 17

    p = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run(p)


def test_interrupt_delivers_cause():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            return (env.now, intr.cause)

    def attacker(env, target):
        yield env.timeout(40)
        target.interrupt("why not")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    assert env.run(v) == (40, "why not")


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        return 1
        yield  # pragma: no cover

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_rewait():
    """After an interrupt the process can wait again for the original time."""
    env = Environment()

    def victim(env):
        deadline = env.now + 100
        while True:
            try:
                yield env.timeout(deadline - env.now)
                return env.now
            except Interrupt:
                continue

    def pest(env, target):
        for _ in range(3):
            yield env.timeout(20)
            target.interrupt()

    v = env.process(victim(env))
    env.process(pest(env, v))
    assert env.run(v) == 100


def test_run_until_event_returns_its_value():
    env = Environment()
    ev = env.event()
    env.call_later(5, lambda: ev.succeed("v"))
    assert env.run(ev) == "v"
    assert env.now == 5


def test_run_until_past_event_queue_drain_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.process(iter_timeout(env))
    with pytest.raises(SimulationError):
        env.run(ev)


def iter_timeout(env):
    yield env.timeout(1)


def test_peek_and_step():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.step()
    assert env.now == 7
    assert env.peek() == float("inf")


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("k")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "caught"

    assert env.run(env.process(parent(env))) == "caught"


def test_clock_is_monotonic_across_many_processes():
    env = Environment()
    times = []

    def worker(env, delay):
        yield env.timeout(delay)
        times.append(env.now)
        yield env.timeout(delay * 2)
        times.append(env.now)

    for d in (5, 3, 11, 7, 2):
        env.process(worker(env, d))
    env.run()
    assert times == sorted(times)
