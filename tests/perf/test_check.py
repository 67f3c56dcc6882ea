"""Gate-check tests: classification rules and the perf CLI exit codes."""

import json

import pytest

from repro.perf import BENCH_SCHEMA, check_bench, load_bench
from repro.perf.check import _classify, report
from repro.perf.__main__ import main


def _doc(quick=True, **gates):
    """Minimal one-scenario bench document with the given gates."""
    return {
        "schema": BENCH_SCHEMA, "rev": "t", "quick": quick, "python": "3",
        "scenarios": {"s": {"gates": {
            name: {"value": value, "better": better, "tol": tol}
            for name, (value, better, tol) in gates.items()
        }, "metrics": {}}},
    }


def test_classify_directions_and_tolerance():
    assert _classify(100.0, 104.0, "lower", 0.05) == "ok"
    assert _classify(100.0, 106.0, "lower", 0.05) == "regressed"
    assert _classify(100.0, 90.0, "lower", 0.05) == "improved"
    assert _classify(100.0, 96.0, "higher", 0.05) == "ok"
    assert _classify(100.0, 94.0, "higher", 0.05) == "regressed"
    assert _classify(100.0, 110.0, "higher", 0.05) == "improved"


def test_gate_boundaries_by_direction():
    """A lower-is-better gate fails above value*(1+tol), a higher-is-better
    one below value*(1-tol); the bound itself passes."""
    assert _classify(100.0, 100.0 * (1 + 0.05), "lower", 0.05) == "ok"
    assert _classify(200.0, 200.0 * (1 - 0.10), "higher", 0.10) == "ok"
    baseline = _doc(lat=(100.0, "lower", 0.05), tput=(200.0, "higher", 0.10))
    at_bound = _doc(lat=(105.0, "lower", 0.05), tput=(180.0, "higher", 0.10))
    past = _doc(lat=(105.5, "lower", 0.05), tput=(179.0, "higher", 0.10))
    assert {r.metric: r.status for r in check_bench(at_bound, baseline)} == {
        "lat": "ok", "tput": "ok"}
    assert {r.metric: r.status for r in check_bench(past, baseline)} == {
        "lat": "regressed", "tput": "regressed"}


def test_check_bench_union_and_statuses():
    baseline = _doc(lat=(100.0, "lower", 0.05), gone=(5.0, "lower", 0.05))
    candidate = _doc(lat=(120.0, "lower", 0.05), fresh=(1.0, "higher", 0.05))
    results = check_bench(candidate, baseline)
    by_metric = {r.metric: r for r in results}
    assert by_metric["lat"].status == "regressed"
    assert by_metric["lat"].rel_delta == pytest.approx(0.2)
    assert by_metric["gone"].status == "baseline-only"
    assert by_metric["fresh"].status == "new"
    table = report(results)
    assert "regressed" in table and "baseline-only" in table and "new" in table
    # Regressions sort first in the report.
    lines = table.splitlines()
    assert "regressed" in lines[3]


def test_check_bench_flags_only_gates_past_tolerance():
    baseline = _doc(lat=(100.0, "lower", 0.05))
    bad = _doc(lat=(150.0, "lower", 0.05))
    good = _doc(lat=(101.0, "lower", 0.05))
    assert [r.status for r in check_bench(bad, baseline)] == ["regressed"]
    assert [r.status for r in check_bench(good, baseline)] == ["ok"]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_bench_validates_schema(tmp_path):
    bad = _write(tmp_path, "bad.json", {"schema": "other/1"})
    with pytest.raises(ValueError, match="schema"):
        load_bench(bad)
    good = _write(tmp_path, "good.json", _doc(x=(1.0, "lower", 0.05)))
    assert load_bench(good)["schema"] == BENCH_SCHEMA


def test_cli_check_pass_fail_and_warn_only(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _doc(lat=(100.0, "lower", 0.05)))
    good = _write(tmp_path, "good.json", _doc(lat=(101.0, "lower", 0.05)))
    bad = _write(tmp_path, "bad.json", _doc(lat=(150.0, "lower", 0.05)))
    assert main(["check", good, "--baseline", base]) == 0
    assert main(["check", bad, "--baseline", base]) == 1
    assert main(["check", bad, "--baseline", base, "--warn-only"]) == 0
    out = capsys.readouterr()
    assert "regressed" in out.out and "warning" in out.err


def test_check_rejects_quick_vs_full(tmp_path, capsys):
    """A --full candidate measures other points than a quick baseline:
    check refuses the pair (exit 2) rather than report regressions."""
    base = _write(tmp_path, "base.json", _doc(lat=(100.0, "lower", 0.05)))
    full = _write(tmp_path, "full.json",
                  _doc(quick=False, lat=(100.0, "lower", 0.05)))
    with pytest.raises(ValueError, match="quick"):
        check_bench(load_bench(full), load_bench(base))
    assert main(["check", full, "--baseline", base]) == 2
    assert main(["check", full, "--baseline", base, "--warn-only"]) == 2
    err = capsys.readouterr().err
    assert "quick=False" in err and "quick=True" in err
    # A document that is not a bench document is refused the same way.
    other = _write(tmp_path, "other.json", {"schema": "other/1"})
    assert main(["check", other, "--baseline", base]) == 2


def test_cli_bench_writes_document(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--scenario", "fig7", "--rev", "cli"]) == 0
    out = capsys.readouterr().out
    assert "wrote BENCH_cli.json" in out and "fig7:" in out
    doc = json.loads((tmp_path / "BENCH_cli.json").read_text())
    assert doc["schema"] == BENCH_SCHEMA and doc["rev"] == "cli"
    assert doc["quick"] is True
    # --quick is gone: quick is the default, --full the only switch.
    with pytest.raises(SystemExit):
        main(["bench", "--quick"])
