"""Unit tests for the exclusive server and the store, and for the
reference resource model the ordering replays compare them against."""

import pytest
from reference_resources import Resource

from repro.sim import Environment, Server, Store


def test_resource_serializes_users():
    env = Environment()
    server = Server(env)
    log = []

    def user(env, name):
        yield from server.acquire()
        log.append((name, "in", env.now))
        yield env.timeout(10)
        server.release()
        log.append((name, "out", env.now))

    env.process(user(env, "a"))
    env.process(user(env, "b"))
    env.run()
    assert log == [
        ("a", "in", 0),
        ("a", "out", 10),
        ("b", "in", 10),
        ("b", "out", 20),
    ]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def user(env, name):
        with res.request() as req:
            yield req
            yield env.timeout(10)
        done.append((name, env.now))

    for name in "abc":
        env.process(user(env, name))
    env.run()
    assert done == [("a", 10), ("b", 10), ("c", 20)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_via_context_manager_even_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)

    def bad(env):
        with res.request() as req:
            yield req
            raise RuntimeError("die")

    def good(env):
        with res.request() as req:
            yield req
            return env.now

    p1 = env.process(bad(env))
    p2 = env.process(good(env))
    with pytest.raises(RuntimeError):
        env.run()
    env2 = Environment()
    # rebuild in a fresh env where the exception is caught by a parent
    res2 = Resource(env2, capacity=1)

    def bad2(env):
        with res2.request() as req:
            yield req
            raise RuntimeError("die")

    def parent(env):
        try:
            yield env.process(bad2(env))
        except RuntimeError:
            pass
        with res2.request() as req:
            yield req
            return "acquired-after-crash"

    assert env2.run(env2.process(parent(env2))) == "acquired-after-crash"
    del p1, p2


def test_priority_resource_orders_by_priority():
    env = Environment()
    server = Server(env)
    order = []

    def contender(env, name, prio, delay):
        yield env.timeout(delay)
        yield from server.hold(1, prio)
        order.append(name)

    env.process(server.hold(100, 5))
    env.process(contender(env, "low", 10, 1))
    env.process(contender(env, "high", 0, 2))
    env.process(contender(env, "mid", 5, 3))
    env.process(contender(env, "mid-later", 5, 3))
    env.run()
    assert order == ["high", "mid", "mid-later", "low"]


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(10)
            yield store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(0, 10), (1, 20), (2, 30)]


def test_store_capacity_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(100)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0) in log
    assert ("put-b", 100) in log


def test_store_len():
    env = Environment()
    store = Store(env)

    def fill(env):
        yield store.put(1)
        yield store.put(2)

    env.process(fill(env))
    env.run()
    assert len(store) == 2


def test_put_nowait_hands_over_or_appends_and_refuses_a_full_store():
    """The event-free put files only the waiting getter it serves, and
    a store without room raises instead of queueing the item."""
    from reference_resources import pending

    from repro.sim import SimulationError

    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def consumer():
        got.append((yield store.get()))

    env.process(consumer())
    env.step()  # the consumer starts and waits
    store.put_nowait("a")
    assert pending(env) == [(0, 1)] and store.items == []  # the getter, nothing else
    env.run()
    store.put_nowait("b")
    assert (got, store.items, pending(env)) == (["a"], ["b"], [])
    with pytest.raises(SimulationError, match="full store"):
        store.put_nowait("c")
    assert store.items == ["b"]
