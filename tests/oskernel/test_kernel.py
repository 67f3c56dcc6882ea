"""Unit tests for kernel mechanics: syscalls, blocking, IRQs, bottom halves."""

import pytest

from repro.config import CpuParams, KernelParams, MemoryParams
from repro.hw import Cpu, MemoryBus, PRIO_KERNEL
from repro.oskernel import Kernel, SkBuff
from repro.sim import Environment


def make_kernel(env, params=None):
    cpu = Cpu(env, CpuParams(context_switch_ns=100, scheduler_pass_ns=50))
    mem = MemoryBus(env, MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=0))
    return Kernel(env, params or KernelParams(), cpu, mem)


def test_syscall_charges_enter_body_exit_scheduler():
    env = Environment()
    params = KernelParams(syscall_enter_ns=350, syscall_exit_ns=300)
    k = make_kernel(env, params)

    def body():
        yield from k.cpu.execute(1000, PRIO_KERNEL)
        return "r"

    def proc(env):
        result = yield from k.syscall(body())
        return (result, env.now)

    result, t = env.run(env.process(proc(env)))
    assert result == "r"
    # enter 350 + body 1000 + exit 300 + scheduler 50
    assert t == pytest.approx(1700)
    assert k.metrics.value("kernel.syscalls") == 1


def test_syscall_without_scheduler_on_return():
    env = Environment()
    params = KernelParams(scheduler_on_syscall_return=False)
    k = make_kernel(env, params)

    def body():
        return "x"
        yield  # pragma: no cover

    def proc(env):
        yield from k.syscall(body())
        return env.now

    t = env.run(env.process(proc(env)))
    assert t == pytest.approx(params.syscall_enter_ns + params.syscall_exit_ns)


def test_lightweight_call_cheaper_than_syscall():
    env = Environment()
    k = make_kernel(env)

    def body():
        return None
        yield  # pragma: no cover

    def lw(env):
        yield from k.lightweight_call(body())
        return env.now

    t_light = env.run(env.process(lw(env)))
    assert t_light < k.params.syscall_enter_ns + k.params.syscall_exit_ns


def test_block_on_charges_wakeup_path():
    env = Environment()
    k = make_kernel(env)
    ev = env.event()

    def sleeper(env):
        value = yield from k.block_on(ev)
        return (value, env.now)

    def waker(env):
        yield env.timeout(1_000)
        ev.succeed("data")

    p = env.process(sleeper(env))
    env.process(waker(env))
    value, t = env.run(p)
    assert value == "data"
    # ctxsw out (100) overlaps the wait; wake at 1000 + sched 50 + ctxsw 100
    assert t == pytest.approx(1_150)
    assert k.metrics.value("kernel.blocks") == 1


def test_copy_helpers_charge_memory_time():
    env = Environment()
    k = make_kernel(env)

    def proc(env):
        yield from k.copy_user_to_system(1000)
        yield from k.copy_system_to_user(500)
        yield from k.copy_user_to_user(250)
        return env.now

    t = env.run(env.process(proc(env)))
    assert t == pytest.approx(1750)  # 1 GB/s, zero setup
    assert k.metrics.value("kernel.copy_bytes") == 1750


def test_protocol_registry_rejects_duplicates():
    env = Environment()
    k = make_kernel(env)
    handler = lambda skb: iter(())  # noqa: E731
    k.register_protocol(0x6007, handler)
    with pytest.raises(ValueError):
        k.register_protocol(0x6007, handler)


def test_deliver_rx_runs_handler_via_bottom_half():
    env = Environment()
    k = make_kernel(env)
    seen = []

    def handler(skb):
        seen.append((skb.payload_bytes, env.now))
        yield from k.cpu.execute(10, PRIO_KERNEL)

    k.register_protocol(0x6007, handler)
    k.deliver_rx(0x6007, SkBuff(payload_bytes=42), in_irq_context=True)
    env.run()
    assert len(seen) == 1
    assert seen[0][0] == 42
    # BH dispatch cost was charged before the handler ran.
    assert seen[0][1] >= k.params.bottom_half_dispatch_ns
    assert k.metrics.value("kernel.bh.executed") == 1


def test_deliver_rx_unknown_ethertype_counted():
    env = Environment()
    k = make_kernel(env)
    k.deliver_rx(0x9999, SkBuff(payload_bytes=1), in_irq_context=False)
    env.run()
    assert k.metrics.value("kernel.rx_unknown_ethertype") == 1


def test_direct_rx_runs_inline():
    env = Environment()
    k = make_kernel(env)
    seen = []

    def handler(skb):
        seen.append(env.now)
        yield from k.cpu.execute(10, PRIO_KERNEL)

    k.register_protocol(0x6007, handler)

    def proc(env):
        yield from k.direct_rx(0x6007, SkBuff(payload_bytes=1))
        return env.now

    t = env.run(env.process(proc(env)))
    assert seen == [0]
    assert t == 10
    assert k.metrics.value("kernel.bh.scheduled") == 0


def test_irq_controller_charges_entry_and_exit():
    env = Environment()
    k = make_kernel(env)
    ran = []

    def handler():
        ran.append(env.now)
        yield from k.cpu.execute(100, 0)

    k.irq.raise_irq(handler)
    env.run()
    assert ran == [k.params.irq_entry_ns]
    assert env.now == pytest.approx(k.params.irq_entry_ns + 100 + k.params.irq_exit_ns)


def test_irq_preempts_user_work():
    env = Environment()
    k = make_kernel(env)
    from repro.hw import PRIO_USER

    finished = {}

    def user(env):
        yield from k.cpu.execute(10_000, PRIO_USER)
        finished["user"] = env.now

    def handler():
        yield from k.cpu.execute(500, 0)
        finished["irq"] = env.now

    def trigger(env):
        yield env.timeout(2_000)
        k.irq.raise_irq(handler)

    env.process(user(env))
    env.process(trigger(env))
    env.run()
    assert finished["irq"] < finished["user"]
    # user work stretched by the irq service time
    irq_cost = k.params.irq_entry_ns + 500 + k.params.irq_exit_ns
    assert finished["user"] == pytest.approx(10_000 + irq_cost)
