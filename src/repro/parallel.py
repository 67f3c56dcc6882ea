"""Deterministic fan-out of independent simulation points.

The paper's figures are built from dozens of *independent* ping-pong
simulations — every sweep size, experiment id, fuzz scenario and
resilience loss-rate builds a fresh cluster from a config and a seed.
This module exploits that embarrassing parallelism (NetPIPE-style
harnesses do the same) without giving up bit-reproducibility:

* tasks are **pure-data specs** (config + seed + point parameters);
  workers rebuild the cluster from the spec — nothing stateful is ever
  pickled, so results cannot depend on which process ran them;
* results come back in **submission order** (``ProcessPoolExecutor.map``
  preserves input order), so a parallel run produces byte-identical
  artifacts to a serial one;
* worker-side :class:`~repro.obs.EnvProfiler` tallies flow back to the
  parent's ambient :func:`~repro.sim.profiled` sink as snapshot dicts,
  so ``--json`` artifacts account simulator cost identically at any
  ``--jobs`` value.

Spawn-safety: workers reference the task function by qualified name, so
it must be a **module-level** callable importable in a fresh interpreter
(under the ``spawn``/``forkserver`` start methods the ``repro`` package
must be on the child's path, e.g. ``PYTHONPATH=src``).  Closures and
lambdas are rejected by pickling with ``jobs > 1``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .obs.profile import aggregate_profiles
from .sim import core as _sim_core
from .sim import profiled

__all__ = [
    "add_jobs_argument",
    "resolve_jobs",
    "run_tasks",
    "run_tasks_profiled",
]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def add_jobs_argument(parser: Any) -> None:
    """Attach the standard ``--jobs/-j`` option to an argparse parser."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="fan independent simulation points over N worker processes "
             "(0 = one per core); results are byte-identical to --jobs 1",
    )


def _collect_task_garbage() -> None:
    """Collect cyclic garbage at a task boundary (profiling only).

    Tearing down a finished simulation closes its suspended generators,
    and their cleanup (releasing resource grants) can schedule a final
    event on the dead environment.  Whether that lands before or after
    the profiler snapshot depends on when the cycle collector happens to
    run — different between serial and pooled layouts.  Collecting at
    the task boundary pins the cleanup inside the task's own tally, so
    aggregated ``events_scheduled`` is identical at any ``--jobs``.
    """
    import gc

    gc.collect()


def _call(payload: Tuple[Callable[[Any], Any], Any, bool]) -> Tuple[Any, List[dict]]:
    """Worker-side shim: run one spec, optionally under a profiler sink.

    Module-level so the pool can pickle it by reference; returns the
    task result plus the profiler snapshots of every environment the
    task built (empty when profiling is off).
    """
    worker, spec, profile = payload
    if not profile:
        return worker(spec), []
    with profiled() as profilers:
        result = worker(spec)
        _collect_task_garbage()
    # A task that fans out through a nested run_tasks has already frozen
    # its slice of the sink to snapshot dicts — pass those through.
    return result, [p.snapshot() if hasattr(p, "snapshot") else p
                    for p in profilers]


def _pool_map(
    worker: Callable[[Any], Any],
    specs: Sequence[Any],
    jobs: int,
    profile: bool,
) -> List[Tuple[Any, List[dict]]]:
    """Map ``worker`` over ``specs`` on a process pool, submission order."""
    from concurrent.futures import ProcessPoolExecutor

    payloads = [(worker, spec, profile) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        return list(pool.map(_call, payloads))


def run_tasks(
    worker: Callable[[Any], Any],
    specs: Iterable[Any],
    jobs: int = 1,
) -> List[Any]:
    """Run ``worker`` over every spec; results in submission order.

    With ``jobs <= 1`` (or a single spec) this is a plain serial loop in
    the current process — no pool, no pickling, and any ambient
    :func:`~repro.sim.profiled` block observes the environments
    directly.  With more jobs, specs fan out over a process pool and
    worker-side profiler snapshots are appended to the ambient sink, so
    aggregated simulator-cost stats match the serial run exactly.

    A worker exception propagates to the caller either way (the pool
    re-raises it from ``map``).
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    sink = _sim_core._PROFILE_SINK
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            start = 0 if sink is None else len(sink)
            results.append(worker(spec))
            if sink is not None:
                # Same task-boundary discipline as the pool path: collect
                # teardown garbage, then freeze this task's profilers to
                # snapshot dicts so later cleanup cannot skew the tally.
                _collect_task_garbage()
                sink[start:] = [p.snapshot() if hasattr(p, "snapshot") else p
                                for p in sink[start:]]
        return results
    pairs = _pool_map(worker, specs, jobs, profile=sink is not None)
    results = []
    for result, snapshots in pairs:
        if sink is not None:
            sink.extend(snapshots)
        results.append(result)
    return results


def run_tasks_profiled(
    worker: Callable[[Any], Any],
    specs: Iterable[Any],
    jobs: int = 1,
) -> List[Tuple[Any, dict]]:
    """Like :func:`run_tasks`, returning ``(result, profile)`` pairs.

    ``profile`` is the :func:`~repro.obs.aggregate_profiles` summary of
    every environment that task built — per-task attribution for run
    artifacts and bench documents.  The task's environments are *not*
    reported to an ambient ``profiled()`` sink (the per-task profile
    supersedes it), matching a serial ``with profiled():`` per task.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        out: List[Tuple[Any, dict]] = []
        for spec in specs:
            with profiled() as profilers:
                result = worker(spec)
            out.append((result, aggregate_profiles(profilers)))
        return out
    pairs = _pool_map(worker, specs, jobs, profile=True)
    return [(result, aggregate_profiles(snaps)) for result, snaps in pairs]
