"""Event-loop ordering invariants the protocol stack leans on.

The reliability timers and the NIC coalescer assume: same-timestamp
events run in scheduling (FIFO) order, URGENT beats NORMAL at equal
timestamps, and a cancelled :class:`~repro.sim.TimerHandle` never fires
— its dead queue entry is dropped without advancing the clock.

The hot-path shortcuts must not move anything: a deferred callback runs
where the process it replaces would have, an uncontended claim skips the
queue only when nothing could have run before its waiter, a timed hold
completes in place only when its timer would have been the next entry
popped (never on a tie at its end, never past ``run(until=t)``) and then
builds no claim, a release never takes a queue slot, a spawned
process, which nobody can wait on, ends without one, a hop that ends
its step is filed at once where ``defer``'s trampoline would only pass
it on, and a put nobody waits on makes no event.  The exclusive servers order claims,
grants and completions exactly as processes holding resources would (the
CPU's preemptions too), and the store's direct hand-off schedules what
its old fixpoint did.  The event queue's lanes and per-time buckets pop, move
the clock and drop cancelled entries exactly as one ``(time, priority,
seq)`` heap does.  The reference models live in ``reference_resources.py``.
"""

import random
from collections import Counter
from functools import partial

import pytest

from reference_resources import (BusyTracker, HeapEnvironment, PriorityResource, Resource,
                                 due_now, pending)
from reference_resources import Store as FixpointStore

from repro.config import CpuParams, MemoryParams
from repro.hw import PRIO_IRQ, PRIO_KERNEL, PRIO_SOFTIRQ, PRIO_USER, Cpu, MemoryBus
from repro.sim import (Environment, Interrupt, Process, Server, SimulationError, Store,
                       Timeout)
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
    """An URGENT entry made at 100 runs before the NORMAL entries
    already queued for 100, whether they were queued earlier (for a
    later time) or at 100 just before it."""
    env = Environment()
    order = []

    def at_100():
        order.append("timer")
        env.call_later(0, lambda: order.append("normal-now"), priority=NORMAL)
        env.call_later(0, lambda: order.append("urgent"), priority=URGENT)

    env.call_later(100, at_100)
    env.call_later(100, lambda: order.append("normal"), priority=NORMAL)
    env.run()
    assert order == ["timer", "urgent", "normal", "normal-now"]
    assert env.now == 100


def test_urgent_entry_with_positive_delay_is_refused():
    """URGENT entries are due now: a positive delay at URGENT raises
    and queues nothing."""
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(5, lambda: None, priority=URGENT)
    with pytest.raises(ValueError):
        env._schedule(env.event(), URGENT, 5)
    assert pending(env) == [] and env._seq == 0
    fired = []
    env.call_later(0, lambda: fired.append(env.now), priority=URGENT)
    assert pending(env) == [(0, URGENT)]
    env.run()
    assert fired == [0]


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


def test_run_drains_dead_entries_without_advancing_clock():
    """The run loop drops dead entries at later times, one alone at
    its time and two sharing one, without moving the clock to them."""
    env = Environment()
    env.call_later(10, lambda: None)
    for delay in (20, 30, 30):
        env.call_later(delay, lambda: None).cancel()
    env.run()
    assert env.now == 10


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


def test_tail_hop_files_at_once_only_behind_an_empty_urgent_lane():
    """A positive-delay tail hop behind an empty urgent lane is one
    entry at its time; a zero delay or a full urgent lane takes
    ``defer``'s trampoline; a negative delay is refused."""
    env = Environment()
    fired = []
    env.tail_hop(5, lambda: fired.append(env.now))
    assert pending(env) == [(5, NORMAL)] and env._seq == 1
    env.tail_hop(0, lambda: fired.append(env.now))
    assert pending(env) == [(0, URGENT), (5, NORMAL)]
    env.tail_hop(5, lambda: fired.append(env.now))
    assert pending(env) == [(0, URGENT), (0, URGENT), (5, NORMAL)]
    with pytest.raises(ValueError, match="negative delay"):
        env.tail_hop(-1, lambda: None)
    env.run()
    assert fired == [0, 5, 5]


# -- claims started at once ---------------------------------------------------

def test_uncontended_grant_is_born_processed_when_nothing_else_is_due():
    """Nothing is queued at all: the hold-while starts at once, and the
    timed hold completes in place — ``next(hold)`` finishes without
    yielding, the clock reads its end and nothing is pending."""
    env = Environment()
    server = Server(env)
    seen = []

    def user():
        yield env.timeout(10)
        yield from server.acquire()  # starts at once: no grant entry
        seen.append((env.now, len(pending(env))))
        server.release()
        seq = env._seq
        hold = server.hold(5)
        with pytest.raises(StopIteration):
            next(hold)  # completes in place: no timer, no yield
        seen.append((env.now, pending(env), env._seq - seq))

    env.process(user())
    env.run()
    assert seen == [(10, 0), (15, [], 1)]
    assert server.total_busy == 5 and server._holder is None


def test_hold_keeps_its_timer_when_an_entry_is_due_at_its_end():
    """An entry already queued at the hold's end pops before the timer
    would, so the timer is kept and that entry runs first."""
    env = Environment()
    server = Server(env)
    log = []

    def user():
        yield env.timeout(10)
        hold = server.hold(5)
        timer = next(hold)
        log.append((type(timer).__name__, pending(env)))
        yield timer
        with pytest.raises(StopIteration):
            next(hold)
        log.append(("user-resumed", env.now))

    env.call_later(15, lambda: log.append(("tie", env.now)))
    env.process(user())
    env.run()
    assert log == [("Timeout", [(15, NORMAL), (15, NORMAL)]), ("tie", 15),
                   ("user-resumed", 15)]


@pytest.mark.parametrize("until, clock, done", [(12, 12, []), (15, 15, [15])])
def test_hold_never_completes_past_run_until(until, clock, done):
    """``run(until=t)`` runs entries at ``t`` and stops after it: a hold
    ending at ``t`` completes in place, one ending later keeps its timer
    and the clock stops at ``t``."""
    env = Environment()
    server = Server(env)
    log = []

    def user():
        yield env.timeout(10)
        yield from server.hold(5)
        log.append(env.now)

    env.process(user())
    env.run(until=until)
    assert (env.now, log) == (clock, done)
    assert pending(env) == ([] if done else [(15, NORMAL)])
    env.run()
    assert (env.now, log) == (15, [15])


def test_acquire_and_release_are_unchanged():
    """A hold-while never completes in place: it starts at once without
    moving the clock, holds around other work, and a release hands the
    server to a waiting hold through a scheduled start."""
    env = Environment()
    server = Server(env)
    log = []

    def holder():
        yield env.timeout(10)
        acquire = server.acquire()
        with pytest.raises(StopIteration):
            next(acquire)  # starts at once; the clock stays put
        log.append(("acquired", env.now, pending(env, live=True)))
        yield env.timeout(7)
        server.release()
        log.append(("released", env.now, pending(env, live=True)))

    def waiter():
        yield env.timeout(12)
        yield from server.hold(5)
        log.append(("waiter-done", env.now))

    env.process(holder())
    env.process(waiter())
    env.run()
    assert log == [("acquired", 10, [(12, NORMAL)]),
                   ("released", 17, [(17, NORMAL)]), ("waiter-done", 22)]
    assert server.total_busy == 12


def test_one_step_may_move_the_clock_more_than_once():
    """A step that resumes a process may let it complete several timed
    holds in place: each moves the clock to its own end."""
    env = Environment()
    server = Server(env)
    log = []

    def user():
        yield from server.hold(5)
        log.append(env.now)
        yield from server.hold(7)
        log.append(env.now)

    env.process(user())
    env.step()  # the process's start
    assert (env.now, log, pending(env)) == (12, [5, 12], [(12, NORMAL)])


def test_in_place_claim_builds_no_claim_and_skips_the_scheduler(monkeypatch):
    """A timed claim that completes in place allocates no claim object
    and enters none of ``_claim``, ``_start`` and ``_finish``: the hold
    and the CPU slice add their busy time and return."""
    from repro.sim import resources

    def refuse(*args):
        raise AssertionError("the scheduler was entered")

    monkeypatch.setattr(resources, "_Claim", refuse)
    for name in ("_claim", "_start", "_finish"):
        monkeypatch.setattr(Server, name, refuse)
    env = Environment()
    server, cpu = Server(env), Cpu(env, CpuParams())
    log = []

    def user():
        yield from server.hold(5)
        yield from cpu.execute(7, PRIO_KERNEL, label="k")
        log.append(env.now)

    env.process(user())
    env.run()
    assert log == [12]
    assert (server.total_busy, cpu.total_busy, cpu.counters["work.k"]) == (5, 7, 7)
    assert server._holder is None and cpu._holder is None


@pytest.mark.parametrize("make", [Server, lambda env: Cpu(env, CpuParams())],
                         ids=["server", "cpu"])
def test_a_claim_reads_the_queue_once(make, monkeypatch):
    """A claim asks ``_alone`` and ``_skip_to`` at most once each: a
    queued claim asks neither, a claim that is not alone never tries to
    complete in place, and one that fails to complete in place arms its
    timer without asking again."""
    calls = Counter()
    alone, skip_to = Environment._alone, Environment._skip_to

    def counting_alone(env, priority=NORMAL):
        calls[env.active_process.name, "alone"] += 1
        return alone(env, priority)

    def counting_skip_to(env, when):
        calls[env.active_process.name, "skip_to"] += 1
        return skip_to(env, when)

    monkeypatch.setattr(Environment, "_alone", counting_alone)
    monkeypatch.setattr(Environment, "_skip_to", counting_skip_to)
    env = Environment()
    server = make(env)
    hold = server.execute if isinstance(server, Cpu) else server.hold
    log = []

    def claim(at, due=None):
        yield env.timeout(at)
        if due is not None:
            env.call_later(due, lambda: log.append(("entry", env.now)))
        yield from hold(5, 5)
        log.append((env.active_process.name, env.now))

    env.process(claim(10, due=3), name="timer")  # an entry is due before its end
    env.process(claim(11), name="queued")
    env.process(claim(30, due=0), name="not-alone")
    env.process(claim(50), name="in-place")
    env.run()
    assert log == [("entry", 13), ("timer", 15), ("queued", 20), ("entry", 30),
                   ("not-alone", 35), ("in-place", 55)]
    assert calls == {("timer", "alone"): 1, ("timer", "skip_to"): 1,
                     ("not-alone", "alone"): 1,
                     ("in-place", "alone"): 1, ("in-place", "skip_to"): 1}


def test_immediate_grant_goes_through_heap_when_another_event_is_due():
    env = Environment()
    server = Server(env)
    log = []

    def user():
        yield env.timeout(10)
        env.call_later(0, lambda: log.append("due-now"))
        log.append("claim")
        yield from server.hold(5)
        log.append(("user-resumed", env.now))

    env.process(user())
    env.run()
    assert log == ["claim", "due-now", ("user-resumed", 15)]


def test_immediate_grant_goes_through_heap_when_waker_has_second_waiter():
    """The +90 ns case: the first of two waiters of one event claims an
    idle server; the second waiter must still run before the first
    continues, as it did when every grant went through the heap."""
    env = Environment()
    server = Server(env)
    gate = env.event()
    log = []

    def first():
        yield gate
        log.append("first-claims")
        yield from server.acquire()
        log.append("first-runs")
        yield env.timeout(90)
        server.release()

    def second():
        yield gate
        log.append("second-woke")

    env.process(first())
    env.process(second())
    env.call_later(10, gate.succeed)
    env.run()
    assert log == ["first-claims", "second-woke", "first-runs"]


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
    """A release is synchronous: with nobody waiting it schedules
    nothing; with a waiter it schedules exactly the waiter's start, at
    ``(now, NORMAL)``, and the releaser runs on before it."""
    env = Environment()
    server = Server(env)
    log = []

    def user():
        yield from server.acquire()
        yield env.timeout(10)
        before = pending(env), env._seq
        server.release()
        assert (pending(env), env._seq) == before
        yield from server.acquire()
        env.process(waiter())
        yield env.timeout(10)
        server.release()
        assert pending(env) == [(20, NORMAL)]
        log.append(("released", env.now))

    def waiter():
        yield from server.hold(5)
        log.append(("waiter-done", env.now))

    env.process(user())
    env.run()
    assert log == [("released", 20), ("waiter-done", 25)]
    assert server._holder is None and server.total_busy == 25


def test_release_with_no_hold_running_raises():
    env = Environment()
    server = Server(env)
    with pytest.raises(SimulationError, match="no hold running"):
        server.release()


# -- the CPU: an exclusive server plus preemption -----------------------------

class _ResourceCpu:
    """Reference model: the CPU as a priority resource whose IRQ-level
    requests evict a less important holder by interrupting its process.

    This is the shape :class:`repro.hw.Cpu` replaced with a
    :class:`~repro.sim.Server` and preemption; it must reproduce it event
    for event.
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

    @property
    def total_busy(self):
        return self.busy.total_busy

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


def _collisions(env, rng, log, spawn):
    """Unrelated events on the scenarios' coarse time grid: sleeping
    processes, NORMAL timers, URGENT entries (made at their time by a
    NORMAL timer, the only way an URGENT entry lands later) and a
    late-spawned claimant."""

    def sleeper(name, naps):
        for nap in naps:
            yield env.timeout(nap)
            log.append((env.now, name))

    def spawner():
        yield env.timeout(rng.choice((10, 20, 30)))
        spawn()

    for s in range(2):
        env.process(sleeper(f"s{s}", [rng.choice((5, 10, 20)) for _ in range(8)]))
    env.process(spawner())

    def urgent():
        env.call_later(0, lambda: log.append((env.now, "urgent")), URGENT)

    for t in (10, 20, 30, 40, 60):
        env.call_later(t, urgent)
        env.call_later(t, lambda: log.append((env.now, "timer")))


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

    for w in range(rng.randint(2, 6)):
        steps = [(rng.choice((0, 0, 3, 7, 10, 20, 30, 45, "gate")),
                  rng.choice(("exec", "exec", "exec", "occupy", "spawn")),
                  rng.choice(prios), rng.choice((0, 4, 5, 10, 20, 30)))
                 for _ in range(rng.randint(1, 6))]
        env.process(worker(f"w{w}", steps))
    _collisions(env, rng, log,
                lambda: env.process(worker("late", [(0, "exec", PRIO_KERNEL, 10)])))
    for i, gate in enumerate(gates):
        env.call_later(10 * (i + 1), gate.succeed)
    env.run()
    return log, env.now, cpu.total_busy.hex(), sorted(cpu.counters.items())


@pytest.mark.parametrize("seed", range(300))
def test_cpu_scheduler_orders_like_a_preemptible_resource(seed):
    """Same-time grants, preemptions (mid-slice, in the grant's own
    timestep, at the slice's last instant), completions and slices
    completed in place interleave with other events exactly as under
    the reference model, and the busy time has the same bits.

    The tie-break counter is not compared: a preemption the CPU resolves
    at once draws no number where the reference's ``Interrupt`` did."""
    expected = _cpu_scenario(_ResourceCpu, seed)
    assert _cpu_scenario(lambda env: Cpu(env, CpuParams()), seed) == expected


@pytest.mark.slow
def test_cpu_scheduler_orders_like_a_preemptible_resource_long():
    """The same replay over 3,000 further scenarios."""
    for seed in range(300, 3300):
        expected = _cpu_scenario(_ResourceCpu, seed)
        assert _cpu_scenario(lambda env: Cpu(env, CpuParams()), seed) == expected, \
            f"seed {seed}"


# -- the PCI bus, memory bus and wire ------------------------------------------

#: a memory bus whose copy of ``n`` bytes takes ``n / 1e9 * 1e9`` ns
_MEMORY = MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=0)


class _ResourceDevices:
    """Reference model: the PCI bus (a priority resource), the memory bus
    and the wire (FIFO resources) held by their users' processes, with
    busy intervals tracked around each hold."""

    def __init__(self, env):
        self.env = env
        self.cpu = Cpu(env, CpuParams())
        self.pci = PriorityResource(env)
        self.mem = Resource(env)
        self.wire = Resource(env)
        self.busy = [BusyTracker() for _ in range(3)]
        self._copy_time = MemoryBus(env, _MEMORY).copy_time

    def _hold(self, request, busy, ns):
        with request as grant:
            yield grant
            busy.acquire(self.env.now)
            try:
                yield self.env.timeout(ns)
            finally:
                busy.release(self.env.now)

    def pci_hold(self, ns, priority):
        return self._hold(self.pci.request(priority=priority), self.busy[0], ns)

    def wire_hold(self, ns):
        return self._hold(self.wire.request(), self.busy[2], ns)

    def mem_copy(self, nbytes, priority):
        duration = self._copy_time(nbytes)
        busy = self.busy[1]
        with self.mem.request() as grant:
            yield grant
            busy.acquire(self.env.now)
            try:
                yield from self.cpu.execute(duration, priority, label="memcpy")
            finally:
                busy.release(self.env.now)

    def total_busy(self):
        return [self.cpu.total_busy] + [busy.total_busy for busy in self.busy]


class _ServerDevices:
    """The simulator's shapes: two bare servers and a :class:`MemoryBus`."""

    def __init__(self, env):
        self.cpu = Cpu(env, CpuParams())
        self.pci = Server(env)
        self.mem = MemoryBus(env, _MEMORY)
        self.wire = Server(env)

    def pci_hold(self, ns, priority):
        return self.pci.hold(ns, priority)

    def wire_hold(self, ns):
        return self.wire.hold(ns)

    def mem_copy(self, nbytes, priority):
        return self.mem.cpu_copy(self.cpu, nbytes, priority)

    def total_busy(self):
        return [d.total_busy for d in (self.cpu, self.pci, self.mem, self.wire)]


def _device_scenario(make_devices, seed):
    """Random PCI holds at priorities 0/2/5/9, memory-bus copies whose
    CPU slices IRQ work preempts, and FIFO wire holds, on the coarse time
    grid of :func:`_cpu_scenario`; returns everything observable."""
    rng = random.Random(seed)
    env = Environment()
    dev = make_devices(env)
    log = []
    gates = [env.event() for _ in range(3)]

    def claim(kind, ns):
        if kind == "pci":
            yield from dev.pci_hold(ns, rng.choice((0, 2, 5, 9)))
        elif kind == "copy":
            yield from dev.mem_copy(ns, rng.choice((PRIO_SOFTIRQ, PRIO_KERNEL, PRIO_USER)))
        elif kind == "wire":
            yield from dev.wire_hold(ns)
        else:
            yield from dev.cpu.execute(ns, PRIO_IRQ, label="irq")

    def worker(name, steps):
        for i, (wait, kind, ns) in enumerate(steps):
            if wait == "gate":
                yield gates[i % len(gates)]
            elif wait:
                yield env.timeout(wait)
            yield from claim(kind, ns)
            log.append((env.now, name, i))

    kinds = ("pci", "pci", "copy", "copy", "wire", "irq")
    for w in range(rng.randint(3, 8)):
        steps = [(rng.choice((0, 0, 3, 5, 7, 10, 20, 45, "gate")), rng.choice(kinds),
                  rng.choice((0, 4, 5, 10, 20, 30)))
                 for _ in range(rng.randint(1, 6))]
        env.process(worker(f"w{w}", steps))
    _collisions(env, rng, log, lambda: env.process(
        worker("late", [(0, rng.choice(kinds), 10)])))
    for i, gate in enumerate(gates):
        env.call_later(10 * (i + 1), gate.succeed)
    env.run()
    return (log, env.now, env._seq, [busy.hex() for busy in dev.total_busy()],
            sorted(dev.cpu.counters.items()))


@pytest.mark.parametrize("seed", range(300))
def test_device_servers_order_like_held_resources(seed):
    """Same-time claims, grants and completions on the PCI bus, the
    memory bus (held around a preemptible CPU slice) and the wire land
    where the resource-holding processes put them, whether a hold
    completes in place, is timed by an entry or waits: the same log,
    clock, tie-break counter, busy-time bits and CPU counters."""
    expected = _device_scenario(_ResourceDevices, seed)
    assert _device_scenario(_ServerDevices, seed) == expected


@pytest.mark.slow
def test_device_servers_order_like_held_resources_long():
    """The same replay over 3,000 further scenarios."""
    for seed in range(300, 3300):
        expected = _device_scenario(_ResourceDevices, seed)
        assert _device_scenario(_ServerDevices, seed) == expected, f"seed {seed}"


def test_server_replays_mix_every_kind_of_claim(monkeypatch):
    """The random programs above exercise every path a claim can take:
    completed in place, started at once with a timer, started by a
    scheduled grant, queued behind a holder, preempted, and hold-whiles;
    most scenarios mix claims completed in place with queued ones."""
    tally = Counter()
    skip_to, enqueue, claim = Environment._skip_to, Server._enqueue, Server._claim

    def counting_skip_to(env, when):
        done = skip_to(env, when)
        tally["in place" if done else "timer"] += 1
        return done

    def counting_enqueue(server, queued):
        tally["queued"] += 1
        enqueue(server, queued)

    def counting_claim(server, priority, duration, at_once):
        tally["hold-while" if duration is None else
              "at once" if at_once else "scheduled or queued"] += 1
        return claim(server, priority, duration, at_once)

    monkeypatch.setattr(Environment, "_skip_to", counting_skip_to)
    monkeypatch.setattr(Server, "_enqueue", counting_enqueue)
    monkeypatch.setattr(Server, "_claim", counting_claim)
    for scenario in (lambda seed: _cpu_scenario(lambda env: Cpu(env, CpuParams()), seed),
                     lambda seed: _device_scenario(_ServerDevices, seed)):
        tally.clear()
        mixed = preempted = 0
        for seed in range(100):
            before = Counter(tally)
            counters = dict(scenario(seed)[-1])
            preempted += counters.get("preemptions", 0)
            delta = tally - before
            mixed += bool(delta["in place"] and delta["queued"])
        assert min(tally[path] for path in ("in place", "timer", "queued", "hold-while",
                                            "at once", "scheduled or queued")) > 0, tally
        assert preempted > 0
        assert mixed >= 40, (mixed, tally)


# -- processes nobody waits on ------------------------------------------------

def _end_scenario(seed, schedule_every_end):
    """Spawned processes and processes someone waits on end side by side,
    on a coarse time grid, between CPU slices, wire holds and store
    operations whose shortcuts read what is due now.  With
    ``schedule_every_end`` every ``spawn`` is a ``process`` whose handle
    is dropped, so each end takes its queue entry.  Returns everything
    observable."""
    rng = random.Random(seed)
    env = Environment()
    if schedule_every_end:
        env.spawn = lambda generator, name="": env.process(generator, name) and None
    cpu, wire, store = Cpu(env, CpuParams()), Server(env), Store(env, capacity=2)
    log = []

    def claim(kind, ns):
        if kind == "cpu":
            yield from cpu.execute(ns, rng.choice((PRIO_IRQ, PRIO_KERNEL, PRIO_USER)))
        elif kind == "wire":
            yield from wire.hold(ns)
        elif kind == "put":
            yield store.put(ns)
        elif store.items:
            yield store.get()

    def child(name, kind, ns):
        yield from claim(kind, ns)
        log.append((env.now, name))
        return name

    kinds = ("cpu", "cpu", "wire", "put", "get")

    def parent(name, steps):
        for i, (wait, kind, ns, how) in enumerate(steps):
            if wait:
                yield env.timeout(wait)
            args = (f"{name}.{i}", rng.choice(kinds), rng.choice((0, 0, 5, 10)))
            if how == "spawn":
                assert env.spawn(child(*args)) is None
            elif how == "wait":
                got = yield env.process(child(*args))
                log.append((env.now, name, "joined", got))
            else:
                env.process(child(*args))
            yield from claim(kind, ns)
            log.append((env.now, name, i))

    for p in range(rng.randint(2, 6)):
        steps = [(rng.choice((0, 0, 5, 10)), rng.choice(kinds), rng.choice((0, 5, 10, 20)),
                  rng.choice(("spawn", "spawn", "wait", "drop")))
                 for _ in range(rng.randint(1, 6))]
        env.spawn(parent(f"p{p}", steps))
    for t in (5, 10, 20):
        env.call_later(t, lambda: log.append((env.now, "timer")))
    env.run()
    return log, env.now, cpu.total_busy.hex(), wire.total_busy.hex(), list(store.items)


@pytest.mark.parametrize("seed", range(300))
def test_spawned_ends_take_no_entry_and_move_nothing(seed):
    """A spawned process's end is marked processed, not scheduled: the
    same program with every end scheduled runs the same callbacks in
    the same order at the same times, with the same busy-time bits."""
    assert _end_scenario(seed, False) == _end_scenario(seed, True)


def test_spawn_returns_none_and_its_end_takes_no_entry():
    env = Environment()
    done = []

    def body():
        yield env.timeout(5)
        done.append(env.now)

    assert env.spawn(body(), name="fire-and-forget") is None
    env.step()  # the start
    seq = env._seq
    env.step()  # the timeout resumes the body, which returns
    assert (done, pending(env), env._seq) == ([5], [], seq)


def test_spawned_process_that_raises_fails_the_run():
    env = Environment()

    def body():
        yield env.timeout(5)
        raise RuntimeError("boom")

    env.spawn(body())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 5


# -- hops that end their step --------------------------------------------------

def _tail_scenario(seed, through_defer):
    """Frames walk a two-stage path the way the link and the switch walk
    them.  A pump process takes a frame from its queue, holds the wire
    and ends its step with one or two tail hops (a fault copy each)
    before it yields its next get; the forwarding callback may file an
    URGENT entry or start a process, then ends with a tail hop of its
    own.  CPU slices at every priority (an IRQ slice preempts with an
    URGENT re-queue), sleeping processes, NORMAL and URGENT timers and
    a late claimant collide with the hops on a coarse time grid, so a
    hop finds the urgent lane empty at some points and full at others.
    With ``through_defer`` every tail hop is a ``defer``.  Returns
    everything observable."""
    rng = random.Random(seed)
    env = Environment()
    if through_defer:
        env.tail_hop = env.defer
    cpu, wire, queue = Cpu(env, CpuParams()), Server(env), Store(env)
    log = []
    prios = (PRIO_IRQ, PRIO_SOFTIRQ, PRIO_KERNEL, PRIO_USER)
    delays = (0, 5, 5, 10, 20)

    def slice_(name, nap, ns, prio):
        if nap:
            yield env.timeout(nap)
        yield from cpu.execute(ns, prio)
        log.append((env.now, name))

    def later(d, what):
        env.call_later(d, lambda: log.append((env.now, what)))

    def pump():
        while True:
            frame = yield queue.get()
            yield from wire.hold(rng.choice((0, 5, 10)))
            log.append((env.now, "wire", frame))
            for copy in range(rng.choice((1, 1, 2))):
                env.tail_hop(rng.choice(delays), partial(forward, (frame, copy)))

    def forward(frame):
        log.append((env.now, "fwd", frame))
        what = rng.random()
        if what < 0.25:  # files a tie for the hop from ahead of its trampoline
            env.call_later(0, partial(later, rng.choice(delays), ("urgent", frame)), URGENT)
        elif what < 0.5:
            env.spawn(slice_(("rx", frame), rng.choice(delays), rng.choice((0, 5, 10)),
                             rng.choice(prios)))
        env.tail_hop(rng.choice(delays), lambda: log.append((env.now, "rx", frame)))

    def producer(name, steps):
        for i, (wait, ns, prio) in enumerate(steps):
            if wait:
                yield env.timeout(wait)
            queue.put_nowait((name, i))
            yield from cpu.execute(ns, prio)
            log.append((env.now, name, i))

    for p in range(2):
        env.spawn(pump())
    for p in range(rng.randint(1, 4)):
        env.spawn(producer(f"p{p}", [(rng.choice((0, 0, 5, 10, 20)), rng.choice((0, 5, 10)),
                                      rng.choice(prios)) for _ in range(rng.randint(1, 6))]))
    _collisions(env, rng, log, lambda: env.spawn(slice_("late", 0, 10, PRIO_IRQ)))
    env.run()
    return log, env.now, cpu.total_busy.hex(), wire.total_busy.hex(), sorted(cpu.counters.items())


@pytest.mark.parametrize("seed", range(300))
def test_tail_hops_take_one_entry_and_move_nothing(seed):
    """A tail hop filed at once, where ``defer``'s trampoline would have
    popped next and only passed it on, runs the same callbacks in the
    same order at the same times as the same program with every tail
    hop deferred, with the same busy-time bits."""
    assert _tail_scenario(seed, False) == _tail_scenario(seed, True)


@pytest.mark.slow
def test_tail_hops_take_one_entry_and_move_nothing_long():
    """The same replay over 3,000 further programs."""
    for seed in range(300, 3300):
        assert _tail_scenario(seed, False) == _tail_scenario(seed, True), f"seed {seed}"


# -- puts nobody waits on ---------------------------------------------------------

def _put_scenario(seed, as_events):
    """Items go into an unbounded store and a bounded one (room checked
    first, as the switch port and the tx ring check it) from timer
    callbacks and from processes that carry on at once with a CPU slice
    or a wire hold, whose shortcuts read what is due now.  Consumers get
    and hold the wire or the CPU; sleeping processes, NORMAL and URGENT
    timers and a late claimant collide with them on a coarse time grid.
    With ``as_events`` every ``put_nowait`` makes the ``StorePut`` its
    caller drops.  Returns everything observable."""
    rng = random.Random(seed)
    env = Environment()
    cpu, wire = Cpu(env, CpuParams()), Server(env)
    stores = [Store(env), Store(env, capacity=rng.randint(1, 3))]
    if as_events:
        for store in stores:
            store.put_nowait = store.put
    log = []
    prios = (PRIO_IRQ, PRIO_SOFTIRQ, PRIO_KERNEL, PRIO_USER)

    def put(store, item):
        if len(store.items) < store.capacity:
            store.put_nowait(item)
        else:
            log.append((env.now, "full", item))

    def claim(ns):
        if rng.random() < 0.5:
            yield from cpu.execute(ns, rng.choice(prios))
        else:
            yield from wire.hold(ns)

    def producer(name, steps):
        for i, (wait, which, ns) in enumerate(steps):
            if wait:
                yield env.timeout(wait)
            put(stores[which], (name, i))
            yield from claim(ns)
            log.append((env.now, name, i))

    def consumer(name, store, waits):
        for wait in waits:
            if wait:
                yield env.timeout(wait)
            item = yield store.get()
            yield from claim(rng.choice((0, 5, 10)))
            log.append((env.now, name, item))

    grid = (0, 0, 5, 10, 20)
    for p in range(rng.randint(1, 4)):
        env.spawn(producer(f"p{p}", [(rng.choice(grid), rng.randint(0, 1), rng.choice((0, 5, 10)))
                                     for _ in range(rng.randint(1, 6))]))
    for c in range(rng.randint(1, 4)):
        env.spawn(consumer(f"c{c}", stores[c % 2], [rng.choice(grid)
                                                    for _ in range(rng.randint(1, 6))]))
    for t in (5, 10, 15, 20):
        env.call_later(t, lambda t=t: put(stores[t % 2], ("timer", t)))
    _collisions(env, rng, log, lambda: env.spawn(claim(10)))
    env.run()
    return (log, env.now, cpu.total_busy.hex(), wire.total_busy.hex(),
            [list(store.items) for store in stores])


@pytest.mark.parametrize("seed", range(300))
def test_puts_nobody_waits_on_make_no_event_and_move_nothing(seed):
    """A put that makes no event runs the same callbacks in the same
    order at the same times as the same program with every such put a
    dropped ``StorePut``, with the same busy-time bits and contents."""
    assert _put_scenario(seed, False) == _put_scenario(seed, True)


@pytest.mark.slow
def test_puts_nobody_waits_on_make_no_event_and_move_nothing_long():
    """The same replay over 3,000 further programs."""
    for seed in range(300, 3300):
        assert _put_scenario(seed, False) == _put_scenario(seed, True), f"seed {seed}"


def test_tail_and_put_replays_see_both_lanes(monkeypatch):
    """The replays make tail hops and event-free puts with the urgent
    lane empty and with it full, and their tail hops take both ways."""
    seen = Counter()
    tail_hop, put_nowait = Environment.tail_hop, Store.put_nowait

    def counting_tail_hop(env, delay, fn):
        seen["hop", delay > 0, bool(env._urgent)] += 1
        tail_hop(env, delay, fn)

    def counting_put_nowait(store, item):
        seen["put", bool(store.env._urgent)] += 1
        put_nowait(store, item)

    monkeypatch.setattr(Environment, "tail_hop", counting_tail_hop)
    monkeypatch.setattr(Store, "put_nowait", counting_put_nowait)
    for seed in range(100):
        _tail_scenario(seed, False)
        _put_scenario(seed, False)
    assert min(seen[key] for key in [("hop", True, False), ("hop", True, True),
                                     ("hop", False, False), ("put", False),
                                     ("put", True)]) > 0, seen


# -- the store -----------------------------------------------------------------

def _store_scenario(make_store, seed):
    """Random puts (some not waited for, as a backlog's producers do) and
    gets at capacity 1-3, with producers and consumers colliding on a
    coarse time grid; returns everything observable."""
    rng = random.Random(seed)
    env = Environment()
    store = make_store(env, rng.randint(1, 3))
    log = []
    gate = env.event()

    def pause(wait):
        if wait == "gate":
            return gate
        return env.timeout(wait)

    def producer(name, steps):
        for i, (wait, waited) in enumerate(steps):
            yield pause(wait)
            put = store.put((name, i))
            if waited:
                yield put
            log.append((env.now, name, i, put.processed))

    def consumer(name, waits):
        for wait in waits:
            yield pause(wait)
            item = yield store.get()
            log.append((env.now, name, item))

    waits = (0, 0, 5, 10, "gate")
    for p in range(rng.randint(1, 4)):
        env.process(producer(f"p{p}", [(rng.choice(waits), rng.random() < 0.8)
                                       for _ in range(rng.randint(1, 6))]))
    for c in range(rng.randint(1, 4)):
        env.process(consumer(f"c{c}", [rng.choice(waits) for _ in range(rng.randint(1, 6))]))
    for t in (5, 10, 15):
        env.call_later(t, lambda: log.append((env.now, "timer")))
    env.call_later(10, gate.succeed)
    env.run()
    return log, env.now, env._seq, list(store.items)


@pytest.mark.parametrize("seed", range(300))
def test_store_hands_off_like_the_fixpoint_store(seed):
    """Direct hand-off (a put serves one waiting getter, a get admits one
    waiting putter) schedules what re-running the put/get fixpoint after
    every operation did, in the same order."""
    expected = _store_scenario(lambda env, cap: FixpointStore(env, capacity=cap), seed)
    assert _store_scenario(lambda env, cap: Store(env, capacity=cap), seed) == expected


# -- the queue: lanes and buckets against one heap ------------------------------

def _queue_scenario(make_env, seed, ops=60):
    """Random entries on a coarse time grid, dense in zero delays, URGENT
    entries due now (made at once, or later by a NORMAL timer), pushes
    for a bucket's time from earlier clocks and cancellations (of one
    entry, a time's first entry, every entry at a time), driven by
    ``step``, ``peek`` and ``run(until=t)`` and a final drain.  Returns
    everything observable: the log of every callback, and after every
    operation the clock, the queue depth and what is due now."""
    rng = random.Random(seed)
    env = make_env()
    log = []
    by_time = {}  # time -> handles and timeouts queued for it, in order
    count = [0]

    def note(what):
        log.append((what, env.now, env._depth(), due_now(env)))

    def fire(name):
        note(name)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            push(name)
        if rng.random() < 0.3:
            cancel()

    def push(tag):
        count[0] += 1
        name = f"{tag}.{count[0]}"
        delay = rng.choice((0, 0, 0, 5, 5, 10, 15))
        kind = rng.random()
        if kind < 0.5:
            entry = env.call_later(delay, partial(fire, name), NORMAL)
        elif kind < 0.75:
            urgent = partial(env.call_later, 0, partial(fire, name), URGENT)
            entry = env.call_later(delay, urgent) if delay else urgent()
        elif kind < 0.9:
            entry = env.timeout(delay)
            entry.callbacks.append(lambda _, name=name: fire(name))
        else:
            env.defer(delay, partial(fire, name))
            return
        by_time.setdefault(env.now + delay, []).append(entry)

    def cancel():
        times = sorted(by_time)
        if not times:
            return
        entries = by_time[rng.choice(times)]
        how = rng.random()
        if how < 0.4:
            entries = [rng.choice(entries)]
        elif how < 0.7:
            entries = entries[:1]
        for entry in entries:
            entry.callbacks = None

    for _ in range(rng.randint(1, 6)):
        push("init")
    for _ in range(ops):
        op = rng.random()
        if op < 0.3:
            push("top")
        elif op < 0.4:
            cancel()
        elif op < 0.7:
            try:
                env.step()
            except SimulationError:
                push("empty")
        elif op < 0.85:
            note(("peek", env.peek()))
        else:
            env.run(until=env.now + rng.choice((0, 5, 10, 15)))
        note("op")
    if by_time and rng.random() < 0.5:
        for entry in by_time[max(by_time)]:  # the drain may end on dead entries
            entry.callbacks = None
    env.run()
    note("end")
    return log


@pytest.mark.parametrize("seed", range(300))
def test_queue_pops_like_one_heap(seed):
    """Random schedules pop, move the clock, answer ``peek`` and report
    what is due now exactly as one ``(time, priority, seq)`` heap does,
    dead entries dropped at the same places."""
    assert _queue_scenario(Environment, seed) == _queue_scenario(HeapEnvironment, seed)


@pytest.mark.slow
def test_queue_pops_like_one_heap_long():
    """The same replay over 3,000 further schedules."""
    for seed in range(300, 3300):
        expected = _queue_scenario(HeapEnvironment, seed)
        assert _queue_scenario(Environment, seed) == expected, f"seed {seed}"
