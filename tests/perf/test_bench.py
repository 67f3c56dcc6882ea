"""Bench-suite tests: document structure, gates, determinism."""

import json

import pytest

from repro.perf import BENCH_SCHEMA, run_bench, write_bench
from repro.perf.bench import SCENARIOS, current_rev


@pytest.fixture(scope="module")
def fig7_doc():
    """One quick fig7-only bench run shared across tests."""
    return run_bench(quick=True, scenarios=["fig7"], rev="test")


def test_bench_document_structure(fig7_doc):
    doc = fig7_doc
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["rev"] == "test" and doc["quick"] is True
    assert list(doc["scenarios"]) == ["fig7"]
    scenario = doc["scenarios"]["fig7"]
    for gate in scenario["gates"].values():
        assert gate["better"] in ("lower", "higher")
        assert 0 < gate["tol"] < 1
        assert isinstance(gate["value"], (int, float))
    # Simulator cost rides along: profiler tallies plus a gated event count.
    assert scenario["profile"]["events_processed"] > 0
    assert scenario["gates"]["events_processed"]["better"] == "lower"
    assert scenario["wall_s"] >= 0
    assert doc["totals"]["events_processed"] == scenario["profile"]["events_processed"]
    json.dumps(doc)  # fully serializable


def test_fig7_scenario_layer_budget(fig7_doc):
    """The fig7 scenario carries the per-layer attribution of the 12-hop
    critical path and its five Figure-7(a) stages."""
    scenario = fig7_doc["scenarios"]["fig7"]
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


def test_bench_is_deterministic(fig7_doc):
    """Two runs of the same seeded scenario produce identical gates and
    metrics (only wall_s may differ)."""
    again = run_bench(quick=True, scenarios=["fig7"], rev="test")
    assert again["scenarios"]["fig7"]["gates"] == fig7_doc["scenarios"]["fig7"]["gates"]
    assert again["scenarios"]["fig7"]["metrics"] == fig7_doc["scenarios"]["fig7"]["metrics"]
    assert again["scenarios"]["fig7"]["profile"] == fig7_doc["scenarios"]["fig7"]["profile"]


def test_bench_jobs2_matches_serial(fig7_doc):
    """Fanning scenarios over a pool moves only the wall clock: gates,
    metrics and profiler tallies stay byte-identical."""
    pooled = run_bench(quick=True, scenarios=["fig7"], rev="test", jobs=2)
    for key in ("gates", "metrics", "profile"):
        assert pooled["scenarios"]["fig7"][key] == fig7_doc["scenarios"]["fig7"][key]


def test_totals_record_per_scenario_wall(fig7_doc):
    walls = fig7_doc["totals"]["wall_by_scenario"]
    assert set(walls) == {"fig7"}
    assert walls["fig7"] == fig7_doc["scenarios"]["fig7"]["wall_s"]
    assert fig7_doc["totals"]["wall_s"] >= walls["fig7"]


def test_write_bench_stable_json(fig7_doc, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_bench(fig7_doc, str(a))
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
