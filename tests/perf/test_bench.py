"""Bench-suite tests: document structure, gates, determinism."""

import json

import pytest

from repro.perf import BENCH_SCHEMA, run_bench, write_bench
from repro.perf.bench import SCENARIOS, current_rev


@pytest.fixture(scope="module")
def bench_doc():
    """One quick fig7 + headline bench run shared across tests."""
    return run_bench(quick=True, scenarios=["fig7", "headline"], rev="test")


def test_bench_document_structure(bench_doc):
    doc = bench_doc
    assert set(doc) == {"schema", "rev", "quick", "python", "scenarios"}
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["rev"] == "test" and doc["quick"] is True
    assert list(doc["scenarios"]) == ["headline", "fig7"]
    scenario = doc["scenarios"]["fig7"]
    assert set(scenario) == {"gates", "metrics"}
    for gate in scenario["gates"].values():
        assert gate["better"] in ("lower", "higher")
        assert 0 < gate["tol"] < 1
        assert isinstance(gate["value"], (int, float))
    # Simulator cost rides along as a gated event count.
    assert scenario["gates"]["events_processed"]["value"] > 0
    assert scenario["gates"]["events_processed"]["better"] == "lower"
    json.dumps(doc)  # fully serializable


def test_fig7_scenario_layer_budget(bench_doc):
    """The fig7 scenario carries the per-layer attribution of the 12-hop
    critical path and its five Figure-7(a) stages."""
    scenario = bench_doc["scenarios"]["fig7"]
    layers = scenario["metrics"]["layers_us"]
    gates = scenario["gates"]
    assert gates["total_us"]["value"] == pytest.approx(
        sum(layers.values()), rel=1e-6)
    assert scenario["metrics"]["path_hops"] == 12
    assert len(scenario["metrics"]["stages_us"]) == 5
    shares = scenario["metrics"]["layer_shares"]
    assert sum(shares.values()) == pytest.approx(1.0)
    # Every nonzero layer is individually gated.
    for layer, us in layers.items():
        if us > 0:
            assert gates[f"{layer}_us"]["better"] == "lower"


def _bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def test_bench_is_deterministic(bench_doc):
    """The document holds no wall time: two runs are byte-identical."""
    again = run_bench(quick=True, scenarios=["fig7", "headline"], rev="test")
    assert _bytes(again) == _bytes(bench_doc)


def test_bench_jobs2_matches_serial(bench_doc):
    """Fanning the scenarios over a pool writes the same bytes."""
    pooled = run_bench(quick=True, scenarios=["fig7", "headline"], rev="test",
                       jobs=2)
    assert _bytes(pooled) == _bytes(bench_doc)


def test_write_bench_stable_json(bench_doc, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_bench(bench_doc, str(a))
    write_bench(json.loads(a.read_text()), str(b))
    assert a.read_text() == b.read_text()


def test_run_bench_rejects_unknown_scenarios():
    with pytest.raises(KeyError, match="unknown"):
        run_bench(scenarios=["nope"])
    assert [name for name, _ in SCENARIOS] == [
        "headline", "fig4", "fig5", "fig7", "resilience", "journey",
        "bulk-flowmode", "collectives-scaling"]


def test_current_rev_is_short_string():
    rev = current_rev()
    assert isinstance(rev, str) and rev and "\n" not in rev
