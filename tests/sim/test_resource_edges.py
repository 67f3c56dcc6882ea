"""Remaining edge coverage for the reference resource model, the CPU's
``occupy`` and the kernel wrappers."""

import pytest
from reference_resources import Resource

from repro.config import CpuParams, KernelParams, MemoryParams
from repro.hw import Cpu, MemoryBus, PRIO_IRQ, PRIO_KERNEL
from repro.oskernel import Kernel
from repro.sim import Environment


def test_release_of_queued_request_acts_as_cancel():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def fickle(env):
        req = res.request()
        yield env.timeout(10)
        res.release(req)  # never granted: must simply dequeue
        order.append("bailed")

    def steady(env):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            order.append(("got", env.now))

    env.process(holder(env))
    env.process(fickle(env))
    env.process(steady(env))
    env.run()
    assert "bailed" in order
    assert ("got", 100) in order


def test_request_context_manager_releases_on_normal_exit():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
        return res.count

    assert env.run(env.process(user(env))) == 0


def test_cpu_occupy_runs_at_irq_priority_uninterrupted():
    env = Environment()
    cpu = Cpu(env, CpuParams())
    log = []

    def dma(env):
        yield env.timeout(500)
        return "dma-done"

    def irq_side(env):
        result = yield from cpu.occupy(dma(env), PRIO_IRQ, label="drv_rx_dma")
        log.append((result, env.now))

    def user_side(env):
        yield from cpu.execute(1_000, 10)
        log.append(("user", env.now))

    env.process(user_side(env))
    env.process(irq_side(env))
    env.run()
    # The occupy preempted the user and finished first.
    assert log[0] == ("dma-done", 500)
    assert log[1] == ("user", 1_500)


def test_kernel_lightweight_call_returns_body_value():
    env = Environment()
    cpu = Cpu(env, CpuParams())
    mem = MemoryBus(env, MemoryParams())
    kernel = Kernel(env, KernelParams(), cpu, mem)

    def body():
        yield from cpu.execute(10, PRIO_KERNEL)
        return 41

    def proc(env):
        value = yield from kernel.lightweight_call(body())
        return value + 1

    assert env.run(env.process(proc(env))) == 42


def test_kernel_syscall_propagates_body_exception():
    env = Environment()
    cpu = Cpu(env, CpuParams())
    mem = MemoryBus(env, MemoryParams())
    kernel = Kernel(env, KernelParams(), cpu, mem)

    def body():
        yield from cpu.execute(10, PRIO_KERNEL)
        raise KeyError("boom")

    def proc(env):
        try:
            yield from kernel.syscall(body())
        except KeyError:
            return "caught"

    assert env.run(env.process(proc(env))) == "caught"
