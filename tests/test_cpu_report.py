"""Tests for the CPU-time breakdown reporting."""

import pytest

from repro.analysis import breakdown_table, cpu_breakdown
from repro.analysis.cpu_report import categorize
from repro.config import CpuParams
from repro.hw import Cpu, PRIO_KERNEL, PRIO_USER
from repro.sim import Environment


def test_categorize_known_prefixes():
    assert categorize("clic_tx") == "protocol"
    assert categorize("tcp_rx") == "protocol"
    assert categorize("drv_rx_dma") == "driver rx"
    assert categorize("drv_rx_skb") == "driver rx"
    assert categorize("drv_irq") == "interrupts"
    assert categorize("irq_entry") == "interrupts"
    assert categorize("s2u") == "copies"
    assert categorize("user.app") == "application"
    assert categorize("via_poll") == "polling"
    assert categorize("mpi_call") == "middleware"
    assert categorize("weird_thing") == "other"


def test_cpu_breakdown_aggregates_work_labels():
    env = Environment()
    cpu = Cpu(env, CpuParams())

    def work(env):
        yield from cpu.execute(100, PRIO_KERNEL, label="clic_tx")
        yield from cpu.execute(50, PRIO_KERNEL, label="clic_rx")
        yield from cpu.execute(25, PRIO_USER, label="user.app")

    env.run(env.process(work(env)))
    b = cpu_breakdown(cpu)
    assert b["protocol"] == 150
    assert b["application"] == 25


def test_breakdown_ignores_non_work_counters():
    env = Environment()
    cpu = Cpu(env, CpuParams())
    cpu.counters["preemptions"] += 5
    assert cpu_breakdown(cpu) == {}


def test_breakdown_table_renders_multiple_cpus():
    env = Environment()
    a, b = Cpu(env, CpuParams(), "a"), Cpu(env, CpuParams(), "b")

    def work(env):
        yield from a.execute(1000, PRIO_KERNEL, label="tcp_rx")
        yield from b.execute(500, PRIO_KERNEL, label="clic_rx")

    env.run(env.process(work(env)))
    out = breakdown_table({"A": a, "B": b})
    assert "protocol" in out
    assert "TOTAL busy" in out
    assert "1.0" in out  # 1000 ns -> 1.0 us


def test_breakdown_table_with_wall_percentage():
    env = Environment()
    cpu = Cpu(env, CpuParams())

    def work(env):
        yield from cpu.execute(5_000, PRIO_KERNEL, label="clic_rx")

    env.run(env.process(work(env)))
    out = breakdown_table({"rx": cpu}, wall_ns=10_000)
    assert "50.0" in out  # 50% of wall


def test_breakdown_table_empty_rejected():
    with pytest.raises(ValueError):
        breakdown_table({})


def test_occupy_time_is_labeled():
    env = Environment()
    cpu = Cpu(env, CpuParams())

    def inner(env):
        yield env.timeout(777)

    def work(env):
        yield from cpu.occupy(inner(env), label="drv_rx_dma")

    env.run(env.process(work(env)))
    assert cpu.counters["work.drv_rx_dma"] == 777
    assert cpu_breakdown(cpu)["driver rx"] == 777
