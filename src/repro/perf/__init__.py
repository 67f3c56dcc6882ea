"""The simulated-physics regression gate: bench and check.

``python -m repro.perf`` turns the observability stack into a gate:

* ``bench`` runs a pinned suite of scenarios (headline latency, the
  Figure 4/5 bandwidth points, the span-derived Figure-7 layer budget,
  resilience, journey tracing, the hybrid flow engine and NIC
  collectives) and writes a versioned ``BENCH_<rev>.json`` of gated
  simulated metrics and event counts — deterministic, no wall time;
* ``check`` compares a bench document against the committed baseline
  (``benchmarks/baselines/BENCH_baseline.json``) and exits non-zero
  when a gated metric regresses beyond its tolerance — the trajectory
  every PR extends.

Host (wall-clock) cost is measured by ``bench/run.py`` instead.
"""

from .bench import BASELINE_PATH, BENCH_SCHEMA, run_bench, write_bench
from .check import check_bench, load_bench

__all__ = [
    "BASELINE_PATH",
    "BENCH_SCHEMA",
    "check_bench",
    "load_bench",
    "run_bench",
    "write_bench",
]
