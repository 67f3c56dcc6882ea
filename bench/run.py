#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Usage (from the repository root)::

    python3 bench/run.py                                # every workload, one child each
    python3 bench/run.py --workload bulk-packet --seed 3 --seconds 15 --trace 1
    python3 bench/run.py --smoke --trace 1              # 2 points, 1 pass
    python3 bench/run.py compare PARENT.json... CHANGE.json...
    python3 bench/run.py --write-reference              # never in a perf change

One workload run: 2 untimed warm-up points, then passes over the point
list until ``--seconds`` is spent, each point timed on its own right
after a calibration run; a point's host time is its fastest pass, at the
reference machine's speed.  Then every point's simulated output is
checked.  ``--trace 1`` adds an untimed counting pass (event-loop
profiler and model counters) and sampled passes that split host time by
layer.  Every metric is printed as ``workload name value unit``; the last
line is one JSON object, and a JSON result file keeps every per-point
time.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# the package ``bench`` and the checkout's own ``repro``, never an installed one
sys.path[:1] = [SRC, ROOT]

from bench import sampler  # noqa: E402  (stdlib only: safe before the repro check)
from bench.compare import compare  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(BENCH, "reference", "seed1.json")
OUT_DIR = os.path.join(BENCH, "out")

WARMUP_POINTS = 2
SETUP_PROBES = 7
#: seconds of one calibration-kernel run on the machine the bounds were
#: set on (2-vCPU Intel Xeon VM, CPython 3.11, quiet): host times are
#: reported at that machine's speed
CAL_REF_S = 0.0016
TRACE_MIN_SAMPLES = 800
TRACE_MAX_PASSES = 4
EVENT_TYPES = ("Event", "PriorityRequest", "Process", "Release", "Request", "StoreGet",
               "StorePut", "Timeout", "TimerHandle", "_Initialize")


def _spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _import_workloads():
    """Import the workloads (and so ``repro``), refusing a foreign ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"bench: no simulator source at {SRC}/repro")
    from bench import workloads
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(SRC, "repro") + os.sep):
        sys.exit(f"bench: imported repro from {repro.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def _calibration_kernel() -> int:
    """A fixed, repro-free slice of interpreter work shaped like the event
    loop: generators resumed through a heap of (time, seq) entries."""
    def proc(k):
        for j in range(40):
            yield (k * 13 + j * 7) % 97

    queue, seq, total = [], 0, 0
    for k in range(70):
        seq += 1
        heapq.heappush(queue, (0, seq, proc(k)))
    while queue:
        now, _, gen = heapq.heappop(queue)
        for delay in gen:
            total += delay
            seq += 1
            heapq.heappush(queue, (now + delay, seq, gen))
            break
    return total


def _calibrate() -> float:
    """Seconds one calibration-kernel run takes right now."""
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def _time_point(run, point, active: Optional[sampler.Sampler] = None):
    """(seconds, calibration seconds just before, output, failure) of one
    point; a point that raises is a failed point."""
    gc.collect()
    cal = _calibrate()
    if active is not None:
        active.active = True
    t0 = time.perf_counter()
    try:
        out, failure = run(point)[0], None
    except Exception as exc:  # a failing point is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out, failure = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if active is not None:
        active.active = False
    return elapsed, cal, out, failure


def _reference_seconds(times: List[float], cals: List[float]) -> float:
    """Host seconds of one point at the reference machine's speed.

    Noise only adds time, so the fastest pass is the estimate.  Co-tenants
    still slow whole runs by up to a third for minutes at a time, and the
    calibration run just before that pass was slowed alike, so dividing by
    it removes most of what the minimum cannot.
    """
    elapsed, cal = min(zip(times, cals))
    return elapsed / cal * CAL_REF_S


def _setup_probes(workload: str, seed: int, n: int) -> List[float]:
    """Set-up seconds of ``n`` fresh interpreters, one after another, at
    the reference machine's speed.

    A probe is divided by calibration runs made in this process just
    before and just after it: the probe's own process is too young to
    calibrate, as the kernel runs at two speeds there.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(n):
        before = statistics.median(_calibrate() for _ in range(5))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
        after = statistics.median(_calibrate() for _ in range(5))
        times.append(float(done.stdout) / (before + after) * 2 * CAL_REF_S)
    return times


def _load_reference(workload: str) -> List[Dict[str, Any]]:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def _counting_pass(wl, workload: str, points: List[Dict]) -> Dict[str, Any]:
    """Untimed pass under the event-loop profiler; reads model counters."""
    from repro.obs import aggregate_profiles
    from repro.sim import profiled

    run = wl.RUNNERS[workload]
    profiles, totals, events, bw_errs = [], Counter(), [], []
    for i, point in enumerate(points):
        with profiled() as sink:
            out, read_counters = run(point)
            totals.update(read_counters())
            del read_counters  # let teardown events land before the profile is read
            profile = aggregate_profiles(sink)
        profiles.append(profile)
        events.append(profile["events_processed"])
        if workload == "bulk-flow" and i < len(wl.BULK_CLASSES):
            bw_errs.append(wl.bw_error(out, run(dict(point, flow_mode="off"))[0]))
    return {"profile": aggregate_profiles(profiles), "counters": dict(totals),
            "events": events, "bw_err_max": max(bw_errs, default=0.0)}


def _per_layer(host_s: float, counted: Dict[str, Any], shares, samples: int,
               overhead: float) -> Dict[str, Any]:
    profile, counts = counted["profile"], counted["counters"]
    metrics: Dict[str, Any] = {}
    for layer, share in shares.items():
        metrics[f"{layer}.self_s"] = (share["self"] * host_s, "s")
        metrics[f"{layer}.incl_s"] = (share["incl"] * host_s, "s")
    metrics["trace.samples"] = (samples, "count")
    metrics["trace.overhead"] = (overhead, "ratio")
    for key in ("events_processed", "events_scheduled", "queue_high_water"):
        metrics[f"sim.{key}"] = (profile[key], "count")
    for etype in EVENT_TYPES:
        metrics[f"sim.ev.{etype}"] = (profile["per_type"].get(etype, 0), "count")
    processed, frames = profile["events_processed"], counts["hw.nic.tx_frames"]
    metrics["sim.host_us_per_event"] = (host_s * 1e6 / processed, "us")
    metrics["sim.events_per_frame"] = (processed / frames, "ratio")
    for layer, n in sampler.events_by_layer(profile["per_process"]).items():
        metrics[f"{layer}.events"] = (n, "count")
    for name, value in counts.items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    metrics["sim.flowmode.batched_frac"] = (counts["sim.flowmode.frames_batched"] / frames,
                                            "fraction")
    metrics["sim.flowmode.bw_err_max"] = (counted["bw_err_max"], "fraction")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Measure one workload in this process; return its result document."""
    # One CPU for the points, the calibration runs and the set-up probes
    # (which inherit it): the vCPUs of a shared host slow down apart, and a
    # calibration run only tracks the CPU it ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = _import_workloads()
    points = wl.points(workload, seed)[:2 if smoke else None]
    run = wl.RUNNERS[workload]
    reference = _load_reference(workload) if seed == 1 else None

    for point in points[:WARMUP_POINTS]:
        _time_point(run, point)
    gc.collect()
    gc.freeze()  # keep per-point collections to the point's own garbage

    times: List[List[float]] = [[] for _ in points]
    cals: List[List[float]] = [[] for _ in points]
    outs: List[Optional[Dict]] = [None] * len(points)
    failures: Dict[int, str] = {}
    pass_s: List[float] = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, point in enumerate(points):
            elapsed, cal, out, failure = _time_point(run, point)
            times[i].append(elapsed)
            cals[i].append(cal)
            if failure is not None:
                failures.setdefault(i, failure)
            elif outs[i] is None:
                outs[i] = out
            elif out != outs[i]:
                failures.setdefault(i, "simulated output changed between passes")
        pass_s.append(time.perf_counter() - t_pass)
        if smoke or time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, point in enumerate(points):
        if i not in failures:
            problem = wl.check(workload, point, outs[i], reference[i] if reference else None)
            if problem is not None:
                failures[i] = problem

    best = [_reference_seconds(t, c) for t, c in zip(times, cals)]
    host_s = sum(best)
    delivered = sum(wl.messages(workload, p) for i, p in enumerate(points) if i not in failures)
    setup = _setup_probes(workload, seed, 1 if smoke else SETUP_PROBES)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "host_s": (host_s, "s"),
        "msgs_per_s": (delivered / host_s, "msg/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "passes": len(pass_s), "pass_s": pass_s,
        "attempted": len(points), "failed": len(failures),
        "failures": {str(i): why for i, why in sorted(failures.items())},
        "reference": "checked" if reference else "unchecked",
        "setup_probes_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "points": [{"point": p, "t": t, "cal": c, "best": b}
                   for p, t, c, b in zip(points, times, cals, best)],
    }
    if workload == "bulk-flow" and reference:
        result["flow_contract_misses"] = sum(
            1 for entry in reference[:len(points)] if entry["flow_err"] > wl.FLOW_BW_TOLERANCE)

    if trace:
        counted = _counting_pass(wl, workload, points)
        traced = [([], []) for _ in points]
        with sampler.Sampler() as active:
            for _ in range(1 if smoke else TRACE_MAX_PASSES):
                for i, point in enumerate(points):
                    elapsed, cal = _time_point(run, point, active)[:2]
                    traced[i][0].append(elapsed)
                    traced[i][1].append(cal)
                if active.samples >= TRACE_MIN_SAMPLES:
                    break
        # per point, so that a noisy moment in the few sampled passes
        # moves one ratio rather than the total
        overhead = statistics.median(_reference_seconds(t, c) / b
                                     for (t, c), b in zip(traced, best))
        per_layer = _per_layer(host_s, counted, active.shares(), active.samples, overhead)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        for entry, n in zip(result["points"], counted["events"]):
            entry["events"] = n
        result["traced_t"] = traced
    return result


def _print_metrics(result: Dict[str, Any]) -> None:
    for section in ("metrics", "per_layer"):
        for name, m in result.get(section, {}).items():
            print(f"{result['workload']} {name} {m['value']!r} {m['unit']}")
    for i, why in result["failures"].items():
        print(f"{result['workload']} failed point {i}: {why}", file=sys.stderr)


def _write_json(path: str, doc: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# every workload, each in a child interpreter
# ---------------------------------------------------------------------------

def _flow_ratios(results: Dict[str, Dict[str, Any]]) -> Dict[str, Optional[float]]:
    """Bulk-packet over bulk-flow on their shared points: wall and events."""
    packet, flow = results.get("bulk-packet"), results.get("bulk-flow")
    if not packet or not flow:
        return {}
    shared = len(packet["points"])
    ratios: Dict[str, Optional[float]] = {
        "flow_wall_ratio": (sum(p["best"] for p in packet["points"])
                            / sum(p["best"] for p in flow["points"][:shared]))}
    if "events" in packet["points"][0] and "events" in flow["points"][0]:
        ratios["flow_event_ratio"] = (sum(p["events"] for p in packet["points"])
                                      / sum(p["events"] for p in flow["points"][:shared]))
    else:
        ratios["flow_event_ratio"] = None
    return ratios


def run_all(args, names: List[str]) -> int:
    results = {}
    for workload in names:
        path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--json", path] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print("\n".join(done.stdout.splitlines()[:-1]))
        if done.returncode != 0:
            print(f"bench: {workload} exited {done.returncode}", file=sys.stderr)
            return 1
        with open(path) as fh:
            results[workload] = json.load(fh)

    metrics = [m["name"] for m in _spec()["end_to_end"]]
    print(f"\n{'workload':<13}" + "".join(f"{n:>14}" for n in metrics) + f"{'failed':>10}  reference")
    for workload, r in results.items():
        print(f"{workload:<13}" + "".join(f"{r['metrics'][n]['value']:>14.6g}" for n in metrics)
              + f"{r['failed']:>6}/{r['attempted']:<3}  {r['reference']}")
    ratios = _flow_ratios(results)
    for name, value in ratios.items():
        shown = "n/a (needs --trace 1)" if value is None else f"{value:.3f}"
        print(f"{name} {shown}")
    misses = results["bulk-flow"].get("flow_contract_misses")
    if misses is not None:
        print(f"bulk-flow baseline 5% contract misses at seed 1: "
              f"{misses}/{results['bulk-flow']['attempted']} (recorded, tolerated)")
    path = args.json or os.path.join(OUT_DIR, f"all-seed{args.seed}-trace{args.trace}.json")
    _write_json(path, {"seed": args.seed, "trace": args.trace, "ratios": ratios,
                       "workloads": results})
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def write_reference(names: List[str]) -> int:
    """Record every point's simulated output at seed 1."""
    wl = _import_workloads()
    doc: Dict[str, Any] = {"seed": 1, "workloads": {}}
    for workload in names:
        run, entries = wl.RUNNERS[workload], []
        for point in wl.points(workload, 1):
            out = run(point)[0]
            problem = wl.conservation(workload, point, out)
            if problem is not None:
                sys.exit(f"bench: {workload} point breaks conservation: {problem}")
            if workload == "bulk-flow":
                packet = run(dict(point, flow_mode="off"))[0]
                entries.append({"point": point, "packet": packet,
                                "flow_err": wl.bw_error(out, packet)})
            else:
                entries.append({"point": point, "out": out})
        doc["workloads"][workload] = entries
        print(f"{workload}: {len(entries)} points")
    _write_json(REFERENCE, doc)
    return 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = _spec()
    if argv[:1] == ["compare"]:
        paths = argv[1:]
        if len(paths) < 2 or len(paths) % 2:
            sys.exit("usage: run.py compare PARENT.json... CHANGE.json... (as many of each)")
        return compare(paths[:len(paths) // 2], paths[len(paths) // 2:], spec)
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="2 points, 1 pass")
    parser.add_argument("--json", help="result file (default under bench/out/)")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite bench/reference/seed1.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        wl = _import_workloads()
        wl.CLUSTER_BUILDERS[args.workload](wl.points(args.workload, args.seed)[0])
        print(repr(time.perf_counter() - t0))
        return 0
    if args.write_reference:
        return write_reference(names)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, names)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _write_json(args.json or os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), result)
    _print_metrics(result)
    section = "per_layer" if args.trace else "metrics"
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result[section]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
