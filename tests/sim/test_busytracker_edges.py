"""Busy-time edge cases of :class:`repro.sim.Server`: a release with no
hold running, and utilization over empty and partly busy windows."""

import pytest

from repro.sim import Environment, Server, SimulationError


def test_release_without_acquire_names_the_timestamp():
    """The error must say *when* the bogus release happened — that is the
    only clue when a generator tears down mid-simulation."""
    env = Environment()
    server = Server(env)
    env.run(until=12_500)
    with pytest.raises(SimulationError, match=r"t=12,500 ns"):
        server.release()


def test_release_after_balanced_pair_still_raises():
    env = Environment()
    server = Server(env)

    def user():
        yield from server.acquire()
        yield env.timeout(10)
        server.release()

    env.run(env.process(user()))
    assert server.total_busy == 10
    with pytest.raises(SimulationError, match="no hold running"):
        server.release()


def test_utilization_zero_span_window():
    """A window of zero width reports 0.0, not a division error — this
    happens when utilization is sampled at time zero."""
    env = Environment()
    server = Server(env)

    def user():
        yield from server.acquire()
        assert server.utilization() == 0.0
        yield env.timeout(200)
        assert server.utilization() == pytest.approx(1.0)
        server.release()

    env.run(env.process(user()))
    assert server.utilization() == pytest.approx(1.0)


def test_utilization_window_with_partial_busy():
    env = Environment()
    server = Server(env)

    def user():
        yield env.timeout(25)
        yield from server.hold(50)

    env.process(user())
    env.run(until=100)
    assert server.utilization() == pytest.approx(0.5)
    assert server.busy_time(100.0) == 50
