"""Unit tests for the CPU model: priorities, preemption, accounting."""

import pytest

from repro.config import CpuParams
from repro.hw import PRIO_IRQ, PRIO_KERNEL, PRIO_USER, Cpu
from repro.sim import Environment


def make_cpu(env):
    return Cpu(env, CpuParams(), name="cpu0")


def test_execute_charges_exact_duration():
    env = Environment()
    cpu = make_cpu(env)

    def work(env):
        yield from cpu.execute(1000, PRIO_USER)
        return env.now

    assert env.run(env.process(work(env))) == 1000
    assert cpu.busy.total_busy == 1000


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
    assert cpu.busy.total_busy == 1200


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
    assert cpu.busy.total_busy == pytest.approx(10_500)
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
