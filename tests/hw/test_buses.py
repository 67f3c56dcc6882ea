"""Unit tests for the memory and PCI bus models."""

import pytest

from repro.config import CpuParams, MemoryParams, PciParams
from repro.hw import Cpu, MemoryBus, PciBus, PRIO_KERNEL
from repro.sim import Environment


def test_memory_copy_time_linear_in_bytes():
    env = Environment()
    mem = MemoryBus(env, MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=100))
    assert mem.copy_time(0) == 100
    assert mem.copy_time(1000) == pytest.approx(100 + 1000)


def test_memory_copy_time_rejects_negative():
    env = Environment()
    mem = MemoryBus(env, MemoryParams())
    with pytest.raises(ValueError):
        mem.copy_time(-1)


def test_cpu_copy_charges_cpu_and_bus():
    env = Environment()
    mem = MemoryBus(env, MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=0))
    cpu = Cpu(env, CpuParams())

    def work(env):
        yield from mem.cpu_copy(cpu, 5000, PRIO_KERNEL)
        return env.now

    assert env.run(env.process(work(env))) == pytest.approx(5000)
    assert cpu.total_busy == pytest.approx(5000)
    assert mem.counters["cpu_copy_bytes"] == 5000


def test_memory_bus_serializes_copies():
    env = Environment()
    mem = MemoryBus(env, MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=0))
    cpu_a = Cpu(env, CpuParams(), "a")
    cpu_b = Cpu(env, CpuParams(), "b")
    ends = []

    def work(env, cpu):
        yield from mem.cpu_copy(cpu, 1000, PRIO_KERNEL)
        ends.append(env.now)

    env.process(work(env, cpu_a))
    env.process(work(env, cpu_b))
    env.run()
    assert ends == [1000, 2000]


def test_pci_effective_bandwidth():
    p = PciParams(clock_hz=33e6, width_bytes=4, dma_efficiency=0.5)
    assert p.effective_bw_Bps == pytest.approx(66e6)


def test_pci_transfer_time_includes_setup():
    env = Environment()
    pci = PciBus(env, PciParams(clock_hz=25e6, width_bytes=4, dma_efficiency=1.0, transaction_setup_ns=500))
    # 100e6 B/s -> 1000 bytes = 10_000 ns + 500 setup
    assert pci.transfer_time(1000) == pytest.approx(10_500)


def test_pci_dma_serializes_transactions():
    env = Environment()
    pci = PciBus(env, PciParams(clock_hz=25e6, width_bytes=4, dma_efficiency=1.0, transaction_setup_ns=0))
    ends = []

    def work(env):
        yield from pci.dma(1000)
        ends.append(env.now)

    env.process(work(env))
    env.process(work(env))
    env.run()
    assert ends == [10_000, 20_000]
    assert pci.counters["dma_transactions"] == 2
    assert pci.counters["dma_bytes"] == 2000


def test_pci_priority_grants_bus_in_order():
    env = Environment()
    pci = PciBus(env, PciParams(transaction_setup_ns=0))
    order = []

    def hold(env):
        yield from pci.dma(10_000, priority=5)

    def want(env, name, prio):
        yield env.timeout(1)
        yield from pci.dma(10, priority=prio)
        order.append(name)

    env.process(hold(env))
    env.process(want(env, "low", 9))
    env.process(want(env, "high", 1))
    env.run()
    assert order == ["high", "low"]


def test_pci_utilization():
    env = Environment()
    pci = PciBus(env, PciParams(clock_hz=25e6, width_bytes=4, dma_efficiency=1.0, transaction_setup_ns=0))

    def work(env):
        yield from pci.dma(1000)  # 10_000 ns busy
        yield env.timeout(10_000)  # idle

    env.run(env.process(work(env)))
    assert pci.utilization() == pytest.approx(0.5)
