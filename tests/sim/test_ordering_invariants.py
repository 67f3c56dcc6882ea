"""Event-loop ordering invariants the protocol stack leans on.

The reliability timers and the NIC coalescer assume: same-timestamp
events run in scheduling (FIFO) order, URGENT beats NORMAL at equal
timestamps, and a cancelled :class:`~repro.sim.TimerHandle` never fires
— its dead heap entry is dropped without advancing the clock.

The hot-path shortcuts must not move anything: a deferred callback runs
where the process it replaces would have, an uncontended grant skips the
heap only when nothing could have run before its waiter, and a release
never takes a heap slot.  The CPU's slice scheduler orders grants,
preemptions and completions exactly as a process holding a preemptible
resource would.
"""

import random
from collections import Counter

import pytest

from repro.hw import PRIO_IRQ, PRIO_KERNEL, PRIO_SOFTIRQ, PRIO_USER, Cpu
from repro.sim import (BusyTracker, Environment, Interrupt, PriorityResource, Process,
                       Resource, Store, Timeout)
from repro.sim.core import NORMAL, URGENT


def test_same_timestamp_fifo():
    env = Environment()
    order = []
    for i in range(5):
        env.call_later(100, lambda i=i: order.append(i))
    env.run()
    assert order == list(range(5))
    assert env.now == 100


def test_urgent_before_normal_at_same_time():
    env = Environment()
    order = []
    env.call_later(100, lambda: order.append("normal"), priority=NORMAL)
    env.call_later(100, lambda: order.append("urgent"), priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_cancelled_timer_never_fires():
    env = Environment()
    fired = []
    handle = env.call_later(50, lambda: fired.append("dead"))
    env.call_later(100, lambda: fired.append("alive"))
    assert handle.active
    handle.cancel()
    assert not handle.active
    env.run()
    assert fired == ["alive"]


def test_cancel_and_rearm_only_last_fires():
    """The retransmission-timer pattern: every re-arm cancels the old
    handle; exactly one (the last) may fire."""
    env = Environment()
    fired = []

    def driver():
        handle = None
        for i in range(10):
            if handle is not None:
                handle.cancel()
            handle = env.call_later(1_000, lambda i=i: fired.append(i))
            yield Timeout(env, 10)

    Process(env, driver())
    env.run()
    assert fired == [9]


def test_peek_skips_cancelled_head():
    env = Environment()
    dead = env.call_later(10, lambda: None)
    env.call_later(30, lambda: None)
    dead.cancel()
    assert env.peek() == 30


def test_dropping_dead_entries_does_not_advance_clock():
    env = Environment()
    seen = []
    dead = env.call_later(10, lambda: None)
    env.call_later(30, lambda: seen.append(env.now))
    dead.cancel()
    env.step()  # pops the dead entry only
    assert env.now == 0
    env.step()
    assert seen == [30] and env.now == 30


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="negative delay"):
        env.call_later(-1, lambda: None)


def test_interleaved_run_is_deterministic():
    """Processes and timers interleaved at equal timestamps replay
    identically, with ties resolved by scheduling order."""

    def trace():
        env = Environment()
        log = []

        def proc(tag, delay):
            for _ in range(3):
                yield Timeout(env, delay)
                log.append((env.now, tag))

        Process(env, proc("a", 10))
        Process(env, proc("b", 10))
        env.call_later(15, lambda: log.append((env.now, "timer")))
        env.run()
        return log

    first = trace()
    assert first == trace()
    assert first[0] == (10, "a") and first[1] == (10, "b")
    assert (15, "timer") in first


# -- deferred callbacks (the URGENT trampoline) ------------------------------

def _hop_as_process(env, delay, fn):
    def body():
        yield env.timeout(delay)
        fn()

    env.process(body(), name="hop")


def _hop_deferred(env, delay, fn):
    env.defer(delay, fn)


@pytest.mark.parametrize("spawn", [_hop_as_process, _hop_deferred])
def test_deferred_callback_orders_like_a_spawned_process(spawn):
    """Ties at now+d scheduled before, during and after the spawning
    step (directly, by an earlier-spawned process, by a later URGENT
    event) interleave with the hop identically for both shapes."""
    d = 40
    env = Environment()
    log = []

    def mark(tag):
        return lambda: log.append((env.now, tag))

    def early():
        yield env.timeout(d)
        log.append((env.now, "early-proc"))

    def spawning_step():
        env.call_later(d, mark("before"))
        env.process(early())
        spawn(env, d, mark("hop"))
        env.call_later(d, mark("after"))
        env.call_later(0, lambda: env.call_later(d, mark("urgent-later")), URGENT)

    env.call_later(5, spawning_step)
    env.run()
    t = 5 + d
    assert log == [(t, "before"), (t, "after"), (t, "early-proc"), (t, "hop"),
                   (t, "urgent-later")]


def test_defer_rejects_negative_delay():
    with pytest.raises(ValueError, match="negative delay"):
        Environment().defer(-1, lambda: None)


# -- grants born processed ---------------------------------------------------

def test_uncontended_grant_is_born_processed_when_nothing_else_is_due():
    env = Environment()
    res = Resource(env)
    seen = []

    def user():
        yield env.timeout(10)
        req = res.request()
        seen.append((req.processed, len(env._queue)))
        yield req
        seen.append(env.now)
        res.release(req)

    env.process(user())
    env.run()
    assert seen == [(True, 0), 10]


def test_immediate_grant_goes_through_heap_when_another_event_is_due():
    env = Environment()
    res = Resource(env)
    log = []

    def user():
        yield env.timeout(10)
        env.call_later(0, lambda: log.append("due-now"))
        req = res.request()
        log.append(("granted-pending", not req.processed))
        yield req
        log.append("user-resumed")
        res.release(req)

    env.process(user())
    env.run()
    assert log == [("granted-pending", True), "due-now", "user-resumed"]


def test_immediate_grant_goes_through_heap_when_waker_has_second_waiter():
    """The +90 ns case: the first of two waiters of one event requests
    an idle resource; the second waiter must still run before the first
    continues, as it did when every grant went through the heap."""
    env = Environment()
    cpu = Resource(env)
    gate = env.event()
    log = []

    def first():
        yield gate
        req = cpu.request()
        log.append(("first-grant-pending", not req.processed))
        yield req
        log.append("first-runs")
        yield env.timeout(90)
        cpu.release(req)

    def second():
        yield gate
        log.append("second-woke")

    env.process(first())
    env.process(second())
    env.call_later(10, gate.succeed)
    env.run()
    assert log == [("first-grant-pending", True), "second-woke", "first-runs"]


def test_store_get_and_put_follow_the_same_guard():
    env = Environment()
    store = Store(env, capacity=1)
    seen = []

    def producer():
        yield env.timeout(5)
        put = store.put("a")
        seen.append(("put", put.processed))
        yield put
        other = store.put("b")  # full: waits for the consumer
        seen.append(("full-put", other.processed))
        yield other
        seen.append("producer-resumed")

    def consumer():
        yield env.timeout(20)
        get = store.get()
        # served at creation; the blocked put it readmits is scheduled
        # after it, so the consumer still runs before the producer
        seen.append(("get", get.processed))
        item = yield get
        seen.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert seen == [("put", True), ("full-put", False), ("get", True), "a",
                    "producer-resumed"]


# -- releases ----------------------------------------------------------------

def test_release_takes_no_heap_slot_and_resumes_at_once():
    env = Environment()
    res = Resource(env)
    log = []

    def user():
        req = res.request()
        yield req
        yield env.timeout(10)
        before = list(env._queue)
        rel = res.release(req)
        assert env._queue == before
        assert rel.processed and rel.value is req
        env.call_later(0, lambda: log.append("due-now"))
        value = yield rel
        log.append(("resumed", env.now, value is req))

    env.process(user())
    env.run()
    assert log == [("resumed", 10, True), "due-now"]
    assert res.count == 0


# -- the CPU's own slice scheduler --------------------------------------------

class _ResourceCpu:
    """Reference model: the CPU as a priority resource whose IRQ-level
    requests evict a less important holder by interrupting its process.

    This is the shape :class:`repro.hw.Cpu` replaced with its own queue
    and timer; the scheduler must reproduce it event for event.
    """

    def __init__(self, env):
        self.env = env
        self.res = PriorityResource(env)
        self.busy = BusyTracker()
        self.counters = Counter()
        self._owners = {}
        do_request = self.res._do_request

        def evicting_request(request):
            self._owners[request] = env.active_process
            users = self.res.users
            if request.preempt and users and users[0].key > request.key:
                victim = users.pop()
                self._owners[victim].interrupt("preempted")
            do_request(request)

        self.res._do_request = evicting_request

    def execute(self, duration, priority, label=""):
        env = self.env
        remaining = float(duration)
        while remaining > 0:
            req = self.res.request(priority=priority, preempt=priority <= PRIO_IRQ)
            if req.callbacks is not None:
                try:
                    yield req
                except Interrupt:  # evicted between grant and start
                    self.counters["preemptions"] += 1
                    continue
            started = env.now
            self.busy.acquire(started)
            try:
                yield env.timeout(remaining)
            except Interrupt:
                self.busy.release(env.now)
                remaining -= env.now - started
                self.counters["preemptions"] += 1
                continue
            self.busy.release(env.now)
            self.res.release(req)
            remaining = 0.0
        self.counters[f"work.{label or 'anon'}"] += duration

    def occupy(self, subwork, priority=PRIO_IRQ, label="occupy"):
        req = self.res.request(priority=priority, preempt=priority <= PRIO_IRQ)
        yield req
        started = self.env.now
        self.busy.acquire(started)
        try:
            result = yield from subwork
        finally:
            self.busy.release(self.env.now)
            self.counters[f"work.{label}"] += self.env.now - started
            self.res.release(req)
        return result


def _cpu_scenario(make_cpu, seed):
    """Random slices at the four priorities on coarse times, so grants,
    preemptions, completions and unrelated events (sleeping processes,
    timers, freshly spawned claimants) keep colliding; returns everything
    observable."""
    rng = random.Random(seed)
    env = Environment()
    cpu = make_cpu(env)
    log = []
    gates = [env.event() for _ in range(3)]
    prios = (PRIO_IRQ, PRIO_SOFTIRQ, PRIO_KERNEL, PRIO_USER)

    def hold(ns):
        yield env.timeout(ns)
        return ns

    def worker(name, steps):
        for i, (wait, kind, prio, ns) in enumerate(steps):
            if wait == "gate":
                yield gates[i % len(gates)]
            elif wait:
                yield env.timeout(wait)
            if kind == "occupy":
                got = yield from cpu.occupy(hold(ns), PRIO_IRQ, label="hold")
                assert got == ns
            else:
                if kind == "spawn":  # its first claim is due before ours
                    env.process(worker(f"{name}.{i}", [(0, "exec", prio, 10)]))
                yield from cpu.execute(ns, prio, label=f"p{prio}")
            log.append((env.now, name, i))

    def sleeper(name, naps):
        for nap in naps:
            yield env.timeout(nap)
            log.append((env.now, name))

    def spawner():
        yield env.timeout(rng.choice((10, 20, 30)))
        env.process(worker("late", [(0, "exec", PRIO_KERNEL, 10)]))

    for w in range(rng.randint(2, 6)):
        steps = [(rng.choice((0, 0, 10, 20, 30, "gate")),
                  rng.choice(("exec", "exec", "exec", "occupy", "spawn")),
                  rng.choice(prios), rng.choice((0, 5, 10, 20, 30)))
                 for _ in range(rng.randint(1, 6))]
        env.process(worker(f"w{w}", steps))
    for s in range(2):
        env.process(sleeper(f"s{s}", [rng.choice((5, 10, 20)) for _ in range(8)]))
    env.process(spawner())
    for t in (10, 20, 30, 40, 60):
        env.call_later(t, lambda: log.append((env.now, "timer")))
        env.call_later(t, lambda: log.append((env.now, "urgent")), URGENT)
    for i, gate in enumerate(gates):
        env.call_later(10 * (i + 1), gate.succeed)
    env.run()
    return log, env.now, cpu.busy.total_busy, sorted(cpu.counters.items())


@pytest.mark.parametrize("seed", range(300))
def test_cpu_scheduler_orders_like_a_preemptible_resource(seed):
    """Same-time grants, preemptions (mid-slice, in the grant's own
    timestep, at the slice's last instant) and completions interleave
    with other events exactly as under the reference model."""
    from repro.config import CpuParams

    expected = _cpu_scenario(_ResourceCpu, seed)
    assert _cpu_scenario(lambda env: Cpu(env, CpuParams()), seed) == expected
