"""CLI entry: ``python -m repro.perf {bench,micro,diff,check}``.

* ``bench`` runs the pinned scenario suite and writes
  ``BENCH_<rev>.json`` (see :mod:`repro.perf.bench`); ``--jobs N`` fans
  the scenarios out over worker processes (wall clock only — the gated
  document is byte-identical);
* ``micro`` runs the event-loop A/B microbenchmarks and writes
  ``MICRO_<rev>.json`` (see :mod:`repro.perf.micro`);
* ``diff A B`` compares two run/bench JSON documents metric-by-metric
  and exits 1 when anything moved beyond tolerance;
* ``check [CANDIDATE]`` gates a bench document against the committed
  baseline and exits 1 on regression (``--warn-only`` downgrades
  failures to warnings for first-landing workflows);
* ``slo [CANDIDATE]`` evaluates the baseline's gates as declared SLO
  specs (see :func:`repro.perf.check.slo_from_bench`), prints the
  per-scenario scorecards, optionally writes them as JSON, and exits 1
  on any violated objective — the CI-facing form of ``check``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..parallel import add_jobs_argument, resolve_jobs
from .bench import BASELINE_PATH, SCENARIOS, run_bench, write_bench
from .check import check_bench, load_bench, report, scenario_scorecards
from .micro import run_micro


def _cmd_bench(args: argparse.Namespace) -> int:
    doc = run_bench(quick=not args.full, scenarios=args.scenario or None,
                    rev=args.rev, jobs=resolve_jobs(args.jobs))
    path = args.output or f"BENCH_{doc['rev']}.json"
    write_bench(doc, path)
    for name, scenario in sorted(doc["scenarios"].items()):
        gates = ", ".join(f"{k}={v['value']:g}"
                          for k, v in sorted(scenario["gates"].items()))
        print(f"{name}: {gates} [{scenario['wall_s']}s]")
    print(f"wrote {path}")
    return 0


def _cmd_micro(args: argparse.Namespace) -> int:
    doc = run_micro(ops=args.ops, repeat=args.repeat, rev=args.rev)
    path = args.output or f"MICRO_{doc['rev']}.json"
    write_bench(doc, path)
    for name, case in doc["cases"].items():
        print(f"{name}: {case['ns_per_op']:g} ns/op [{case['wall_s']}s]")
    print(f"call_later fast path vs timer process: "
          f"{doc['speedup']['fastpath_vs_process']:g}x")
    print(f"slotted Frame vs __dict__ Frame: "
          f"{doc['speedup']['slots_vs_dict']:g}x wall, "
          f"{doc['memory']['frame_bytes_slots']} vs "
          f"{doc['memory']['frame_bytes_dict']} bytes/frame")
    print(f"wrote {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from ..obs import RunDiff

    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    diff = RunDiff(a, b, tolerance=args.tolerance)
    print(diff.report(only_changes=not args.all,
                      title=f"Run diff: {args.a} -> {args.b}"))
    return 0 if diff.within_tolerance() else 1


def _cmd_check(args: argparse.Namespace) -> int:
    baseline = load_bench(args.baseline)
    if args.candidate:
        candidate = load_bench(args.candidate)
    else:
        print("no candidate given; running a quick bench in-process...",
              file=sys.stderr)
        candidate = run_bench(quick=True)
    results = check_bench(candidate, baseline)
    print(report(results, title=f"Perf check vs {args.baseline}"))
    regressions = [r for r in results if r.status == "regressed"]
    missing = [r for r in results if r.status == "baseline-only"]
    if missing:
        print(f"warning: {len(missing)} baseline gate(s) missing from the "
              f"candidate (suite shrank?)", file=sys.stderr)
    if regressions:
        verb = "warning" if args.warn_only else "FAIL"
        print(f"{verb}: {len(regressions)} gated metric(s) regressed beyond "
              f"tolerance", file=sys.stderr)
        return 0 if args.warn_only else 1
    print("perf check passed", file=sys.stderr)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from ..obs.slo import scorecard_table

    baseline = load_bench(args.baseline)
    if args.candidate:
        candidate = load_bench(args.candidate)
    else:
        print("no candidate given; running a quick bench in-process...",
              file=sys.stderr)
        candidate = run_bench(quick=True)
    cards = scenario_scorecards(candidate, baseline)
    for scenario in sorted(cards):
        print(scorecard_table(cards[scenario]))
        print()
    if args.output:
        doc = {
            "schema": "repro.slo-scorecards/1",
            "baseline": baseline.get("rev"),
            "candidate": candidate.get("rev"),
            "ok": all(card["ok"] for card in cards.values()),
            "scenarios": {name: cards[name] for name in sorted(cards)},
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    violated = sorted(
        f"{scenario}:{name}"
        for scenario, card in cards.items()
        for name in card["violations"])
    if violated:
        verb = "warning" if args.warn_only else "FAIL"
        print(f"{verb}: {len(violated)} SLO objective(s) violated: "
              + ", ".join(violated), file=sys.stderr)
        return 0 if args.warn_only else 1
    print("all perf SLOs met", file=sys.stderr)
    return 0


def main(argv: Optional[list] = None) -> int:
    """Parse arguments and dispatch to bench/diff/check."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark lab: run the pinned suite, diff runs, "
                    "gate regressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the pinned scenario suite")
    bench.add_argument("--full", action="store_true",
                       help="full-depth scenarios (slower; default is quick)")
    bench.add_argument("--quick", action="store_true",
                       help="quick scenarios (the default; kept for symmetry)")
    bench.add_argument("-o", "--output", metavar="PATH", default=None,
                       help="output path (default BENCH_<rev>.json)")
    bench.add_argument("--rev", default=None,
                       help="revision tag for the filename/document "
                            "(default: git short rev)")
    bench.add_argument("--scenario", action="append",
                       choices=[name for name, _ in SCENARIOS],
                       help="run only this scenario (repeatable)")
    add_jobs_argument(bench)
    bench.set_defaults(func=_cmd_bench)

    micro = sub.add_parser("micro",
                           help="A/B microbenchmarks for the event-loop hot path")
    micro.add_argument("--ops", type=int, default=50_000,
                       help="timer churns per case (default 50000)")
    micro.add_argument("--repeat", type=int, default=3,
                       help="repeats per case; best wall time wins (default 3)")
    micro.add_argument("-o", "--output", metavar="PATH", default=None,
                       help="output path (default MICRO_<rev>.json)")
    micro.add_argument("--rev", default=None,
                       help="revision tag for the filename/document "
                            "(default: git short rev)")
    micro.set_defaults(func=_cmd_micro)

    diff = sub.add_parser("diff", help="compare two run/bench JSON documents")
    diff.add_argument("a", help="first (old) JSON document")
    diff.add_argument("b", help="second (new) JSON document")
    diff.add_argument("--tolerance", type=float, default=0.05,
                      help="relative tolerance before a metric counts as "
                           "changed (default 0.05)")
    diff.add_argument("--all", action="store_true",
                      help="show every compared metric, not only changes")
    diff.set_defaults(func=_cmd_diff)

    check = sub.add_parser("check", help="gate a bench run against the baseline")
    check.add_argument("candidate", nargs="?", default=None,
                       help="bench JSON to check (default: run a quick bench)")
    check.add_argument("--baseline", default=BASELINE_PATH,
                       help=f"baseline bench JSON (default {BASELINE_PATH})")
    check.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (first landing)")
    check.set_defaults(func=_cmd_check)

    slo = sub.add_parser("slo", help="evaluate the baseline's gates as SLO "
                                     "scorecards (CI-facing check)")
    slo.add_argument("candidate", nargs="?", default=None,
                     help="bench JSON to score (default: run a quick bench)")
    slo.add_argument("--baseline", default=BASELINE_PATH,
                     help=f"baseline bench JSON (default {BASELINE_PATH})")
    slo.add_argument("-o", "--output", metavar="PATH", default=None,
                     help="also write the scorecards as JSON to PATH")
    slo.add_argument("--warn-only", action="store_true",
                     help="report violations but exit 0 (first landing)")
    slo.set_defaults(func=_cmd_slo)

    args = parser.parse_args(argv)
    if args.command == "bench" and args.full and args.quick:
        parser.error("--quick and --full are mutually exclusive")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
