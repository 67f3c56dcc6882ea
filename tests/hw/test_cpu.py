"""Unit tests for the CPU model: priorities, preemption, accounting."""

import pytest

from repro.config import CpuParams
from repro.hw import PRIO_IRQ, PRIO_KERNEL, PRIO_SOFTIRQ, PRIO_USER, Cpu
from repro.sim import Environment
from repro.sim.core import NORMAL
from tests.sim.reference_resources import pending


def make_cpu(env):
    return Cpu(env, CpuParams(), name="cpu0")


def test_execute_charges_exact_duration():
    env = Environment()
    cpu = make_cpu(env)

    def work(env):
        yield from cpu.execute(1000, PRIO_USER)
        return env.now

    assert env.run(env.process(work(env))) == 1000
    assert cpu.total_busy == 1000


def test_execute_rejects_negative():
    env = Environment()
    cpu = make_cpu(env)

    def work(env):
        yield from cpu.execute(-5)

    with pytest.raises(ValueError):
        env.run(env.process(work(env)))


def test_irq_preempts_user_and_user_resumes():
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def user(env):
        yield from cpu.execute(1000, PRIO_USER)
        log.append(("user-done", env.now))

    def irq(env):
        yield env.timeout(300)
        yield from cpu.execute(200, PRIO_IRQ)
        log.append(("irq-done", env.now))

    env.process(user(env))
    env.process(irq(env))
    env.run()
    # User ran 300ns, IRQ ran 300..500, user resumed for its remaining 700.
    assert log == [("irq-done", 500), ("user-done", 1200)]
    assert cpu.counters["preemptions"] == 1
    assert cpu.total_busy == 1200


def test_irq_evicts_user_mid_slice_and_runs_at_once():
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def user(env):
        yield from cpu.execute(100, PRIO_USER)
        log.append(("user-done", env.now))

    def irq(env):
        yield env.timeout(30)
        yield from cpu.execute(20, PRIO_IRQ)
        log.append(("irq-done", env.now))

    env.process(user(env))
    env.process(irq(env))
    env.run()
    assert log == [("irq-done", 50), ("user-done", 120)]
    assert cpu.counters["preemptions"] == 1


def test_irq_that_evicts_a_slice_completes_in_place():
    """Nothing is due before the IRQ slice ends (the victim's old timer
    at 100 is dead and later), so it completes in place: no yield, the
    clock at its end, and only the victim's restart is live."""
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def user(env):
        yield from cpu.execute(100, PRIO_USER)
        log.append(("user-done", env.now))

    def irq(env):
        yield env.timeout(30)
        work = cpu.execute(20, PRIO_IRQ)
        with pytest.raises(StopIteration):
            next(work)
        log.append(("irq-done", env.now, pending(env, live=True)))

    env.process(user(env))
    env.process(irq(env))
    env.run()
    assert log == [("irq-done", 50, [(50, NORMAL)]), ("user-done", 120)]
    assert cpu.counters["preemptions"] == 1 and cpu.total_busy == 120


def test_preempted_slice_is_charged_only_the_time_it_ran():
    env = Environment()
    cpu = make_cpu(env)
    busy_at = {}

    def victim(env):
        yield from cpu.execute(1000, PRIO_USER)

    def bully(env):
        yield env.timeout(40)
        busy_at["preempted"] = cpu.busy_time(env.now)
        yield from cpu.execute(1, PRIO_IRQ)
        busy_at["bully-done"] = cpu.busy_time(env.now)

    env.process(victim(env))
    env.process(bully(env))
    env.run()
    # the victim ran from 0 (its usage start) until the preemption at 40
    assert busy_at == {"preempted": 40, "bully-done": 41}
    assert cpu.total_busy == 1001
    assert cpu.counters["work.anon"] == 1001


def test_equal_irq_priority_does_not_preempt():
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def one(env):
        yield from cpu.execute(50, PRIO_IRQ)
        log.append(("one", env.now))

    def two(env):
        yield env.timeout(10)
        yield from cpu.execute(5, PRIO_IRQ)
        log.append(("two", env.now))

    env.process(one(env))
    env.process(two(env))
    env.run()
    assert log == [("one", 50), ("two", 55)]
    assert cpu.counters["preemptions"] == 0


def test_irq_execute_never_preempts_an_occupy_holder():
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def dma(env):
        yield env.timeout(100)
        return "dma-done"

    def driver(env):
        result = yield from cpu.occupy(dma(env), PRIO_IRQ, label="drv_rx_dma")
        log.append((result, env.now))

    def irq(env):
        yield env.timeout(10)
        yield from cpu.execute(20, PRIO_IRQ)
        log.append(("irq", env.now))

    env.process(driver(env))
    env.process(irq(env))
    env.run()
    assert log == [("dma-done", 100), ("irq", 120)]
    assert cpu.counters["preemptions"] == 0
    assert cpu.counters["work.drv_rx_dma"] == 100


def _grant_then_preempt(bystander):
    """The CPU frees up and is granted to a waiting softirq slice; in the
    same timestep, before that slice starts, the releasing process
    raises an IRQ slice that preempts it."""
    env = Environment()
    cpu = make_cpu(env)
    log = []
    gate = env.event()

    def holder(env):
        yield from cpu.execute(100, PRIO_KERNEL)
        if bystander == "sibling":
            yield gate
        yield from cpu.execute(30, PRIO_IRQ)
        log.append(("irq", env.now))

    def waiter(env):
        yield env.timeout(10)
        if bystander == "same-time":
            env.call_later(90, lambda: log.append(("bystander", env.now)))
        yield from cpu.execute(50, PRIO_SOFTIRQ)
        log.append(("softirq", env.now))

    def sibling(env):
        yield gate
        log.append(("sibling", env.now))

    env.process(holder(env))
    env.process(waiter(env))
    if bystander == "sibling":
        env.process(sibling(env))
        env.call_later(100, gate.succeed)
    env.run()
    return cpu, [entry for entry in log if entry[0] in ("irq", "softirq")]


@pytest.mark.parametrize("bystander", ["none", "same-time", "sibling"])
def test_grant_preempted_in_its_timestep_is_charged_nothing(bystander):
    cpu, log = _grant_then_preempt(bystander)
    assert log == [("irq", 130), ("softirq", 180)]
    # counted once, charged nothing for the lost grant, then ran in full
    assert cpu.counters["preemptions"] == 1
    assert cpu.total_busy == 180
    assert cpu.counters["work.anon"] == 180


def test_preempted_slice_requeues_behind_an_earlier_equal_priority_waiter():
    env = Environment()
    cpu = make_cpu(env)
    order = []

    def first(env):
        yield from cpu.execute(100, PRIO_SOFTIRQ)
        order.append(("first", env.now))

    def second(env):
        yield env.timeout(10)
        yield from cpu.execute(10, PRIO_SOFTIRQ)
        order.append(("second", env.now))

    def irq(env):
        yield env.timeout(40)
        yield from cpu.execute(5, PRIO_IRQ)
        order.append(("irq", env.now))

    env.process(first(env))
    env.process(second(env))
    env.process(irq(env))
    env.run()
    # "first" re-queued at 45 behind "second", which queued at 10
    assert order == [("irq", 45), ("second", 55), ("first", 115)]


def test_zero_work_schedules_no_event():
    env = Environment()
    cpu = make_cpu(env)
    seen = []

    def work(env):
        yield env.timeout(5)
        before = pending(env), env._seq
        yield from cpu.execute(0, PRIO_KERNEL, label="nothing")
        seen.append((env.now, (pending(env), env._seq) == before))

    env.process(work(env))
    env.run()
    assert seen == [(5, True)]
    assert cpu.total_busy == 0
    assert cpu.counters["work.nothing"] == 0


def test_kernel_does_not_preempt_kernel():
    env = Environment()
    cpu = make_cpu(env)
    log = []

    def first(env):
        yield from cpu.execute(100, PRIO_KERNEL)
        log.append(("first", env.now))

    def second(env):
        yield env.timeout(10)
        yield from cpu.execute(100, PRIO_KERNEL)
        log.append(("second", env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert log == [("first", 100), ("second", 200)]


def test_priority_ordering_of_queued_work():
    env = Environment()
    cpu = make_cpu(env)
    order = []

    def holder(env):
        yield from cpu.execute(100, PRIO_KERNEL)

    def queued(env, name, prio):
        yield env.timeout(1)
        yield from cpu.execute(10, prio)
        order.append(name)

    env.process(holder(env))
    env.process(queued(env, "user", PRIO_USER))
    env.process(queued(env, "kernel", PRIO_KERNEL))
    env.run()
    assert order == ["kernel", "user"]


def test_total_busy_time_conserved_under_nested_preemption():
    env = Environment()
    cpu = make_cpu(env)

    def user(env):
        yield from cpu.execute(10_000, PRIO_USER)

    def irqs(env):
        for _ in range(5):
            yield env.timeout(1_000)
            yield from cpu.execute(100, PRIO_IRQ)

    env.process(user(env))
    env.process(irqs(env))
    env.run()
    # total work = 10000 + 5*100
    assert cpu.total_busy == pytest.approx(10_500)
    # wall-clock end = work is serialized on one CPU
    assert env.now == pytest.approx(10_500)


def test_utilization_reports_busy_fraction():
    env = Environment()
    cpu = make_cpu(env)

    def work(env):
        yield from cpu.execute(500, PRIO_USER)
        yield env.timeout(500)

    env.run(env.process(work(env)))
    assert cpu.utilization() == pytest.approx(0.5)


def test_context_switch_and_scheduler_helpers():
    env = Environment()
    params = CpuParams(context_switch_ns=123, scheduler_pass_ns=77)
    cpu = Cpu(env, params)

    def work(env):
        yield from cpu.context_switch()
        yield from cpu.scheduler_pass()
        return env.now

    assert env.run(env.process(work(env))) == 200
    assert cpu.counters["context_switches"] == 1
    assert cpu.counters["scheduler_passes"] == 1
