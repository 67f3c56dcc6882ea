"""CLI entry: ``python -m repro.perf {bench,check}``.

* ``bench`` runs the pinned scenario suite and writes
  ``BENCH_<rev>.json`` (see :mod:`repro.perf.bench`); ``--jobs N`` fans
  the scenarios out over worker processes and writes the same bytes;
* ``check [CANDIDATE]`` gates a bench document against the committed
  baseline and exits 1 on regression (``--warn-only`` downgrades
  failures to warnings for first-landing workflows) and 2 when the
  candidate cannot be compared (wrong schema, or quick vs ``--full``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..parallel import add_jobs_argument, resolve_jobs
from .bench import BASELINE_PATH, SCENARIOS, run_bench, write_bench
from .check import check_bench, load_bench, report


def _cmd_bench(args: argparse.Namespace) -> int:
    doc = run_bench(quick=not args.full, scenarios=args.scenario or None,
                    rev=args.rev, jobs=resolve_jobs(args.jobs))
    path = args.output or f"BENCH_{doc['rev']}.json"
    write_bench(doc, path)
    for name, scenario in sorted(doc["scenarios"].items()):
        gates = ", ".join(f"{k}={v['value']:g}"
                          for k, v in sorted(scenario["gates"].items()))
        print(f"{name}: {gates}")
    print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        baseline = load_bench(args.baseline)
        candidate = load_bench(args.candidate) if args.candidate else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if candidate is None:
        print("no candidate given; running a quick bench in-process...",
              file=sys.stderr)
        candidate = run_bench(quick=True)
    try:
        results = check_bench(candidate, baseline)
    except ValueError as exc:  # quick vs full: not comparable
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def main(argv: Optional[list] = None) -> int:
    """Parse arguments and dispatch to bench/check."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark lab: run the pinned suite, gate regressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the pinned scenario suite")
    bench.add_argument("--full", action="store_true",
                       help="full-depth scenarios (slower; default is quick)")
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

    check = sub.add_parser("check", help="gate a bench run against the baseline")
    check.add_argument("candidate", nargs="?", default=None,
                       help="bench JSON to check (default: run a quick bench)")
    check.add_argument("--baseline", default=BASELINE_PATH,
                       help=f"baseline bench JSON (default {BASELINE_PATH})")
    check.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (first landing)")
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
