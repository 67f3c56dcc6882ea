"""CPU-time breakdown reporting.

Every :meth:`~repro.hw.cpu.Cpu.execute` call carries a label; the CPU
accumulates per-label busy time in its counters (``work.<label>``).
This module folds those labels into the categories the paper argues
about — interrupt handling, protocol processing, data copies,
application — so an experiment can show *where the cycles went* (the
§2 claim that gigabit communication eats the host CPU, and the §5 claim
that CLIC gives most of it back).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..hw.cpu import Cpu
from .tables import format_table

__all__ = ["CATEGORIES", "cpu_breakdown", "breakdown_table"]

#: label-prefix -> category, first match wins.
CATEGORIES: List[Tuple[str, str]] = [
    ("irq", "interrupts"),
    ("drv_irq", "interrupts"),
    ("drv_rx_dma", "driver rx"),
    ("drv_rx", "driver rx"),
    ("drv_tx", "driver tx"),
    ("bh_dispatch", "bottom halves"),
    ("sys_", "syscalls"),
    ("lw_", "syscalls"),
    ("sched", "scheduling"),
    ("ctxsw", "scheduling"),
    ("u2s", "copies"),
    ("s2u", "copies"),
    ("u2u", "copies"),
    ("memcpy", "copies"),
    ("pvm_pack", "copies"),
    ("pvm_unpack", "copies"),
    ("clic_", "protocol"),
    ("tcp_", "protocol"),
    ("sock_", "protocol"),
    ("gamma_", "protocol"),
    ("via_poll", "polling"),
    ("via_", "protocol"),
    ("mpi_", "middleware"),
    ("pvm", "middleware"),
    ("user.", "application"),
]


def categorize(label: str) -> str:
    """Map a CPU work label to its reporting category."""
    for prefix, category in CATEGORIES:
        if label.startswith(prefix):
            return category
    return "other"


def cpu_breakdown(cpu: Cpu) -> Dict[str, float]:
    """Aggregate a CPU's ``work.*`` counters into category -> busy ns."""
    out: Dict[str, float] = {}
    for name, value in sorted(cpu.counters.items()):
        if not name.startswith("work."):
            continue
        label = name[len("work."):]
        category = categorize(label)
        out[category] = out.get(category, 0.0) + value
    return out


def breakdown_table(
    cpus: Mapping[str, Cpu],
    title: str = "CPU time breakdown",
) -> str:
    """Tabulate breakdowns for several CPUs side by side (us)."""
    if not cpus:
        raise ValueError("no CPUs")
    breakdowns = {name: cpu_breakdown(cpu) for name, cpu in cpus.items()}
    categories = sorted({c for b in breakdowns.values() for c in b})
    headers = ["category"] + [f"{name} (us)" for name in breakdowns]
    rows = []
    for category in categories:
        row: List = [category]
        for name in breakdowns:
            ns = breakdowns[name].get(category, 0.0)
            row.append(round(ns / 1000, 1))
        rows.append(row)
    total_row: List = ["TOTAL busy"]
    for name in breakdowns:
        total = sum(breakdowns[name].values())
        total_row.append(round(total / 1000, 1))
    rows.append(total_row)
    return format_table(headers, rows, title=title)
