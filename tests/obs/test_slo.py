"""SLO layer: objective kinds, path resolution, burn rates, scorecards."""

import pytest

from repro.obs import (
    OBJECTIVE_KINDS,
    SCORECARD_SCHEMA,
    Objective,
    SLOSpec,
    evaluate,
    jsonable,
)
from repro.obs.slo import burn_rate, resolve_metric


def _spec(*objectives, name="test"):
    return SLOSpec(name=name, objectives=tuple(objectives))


def test_objective_kind_validated():
    for kind in OBJECTIVE_KINDS:
        Objective("o", "a.b", kind, 1.0)
    with pytest.raises(ValueError, match="kind"):
        Objective("o", "a.b", "target", 1.0)


def test_spec_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        _spec(Objective("a", "x", "ceiling", 1.0),
              Objective("a", "y", "floor", 2.0))


def test_resolve_metric_longest_prefix_wins():
    doc = {
        "metrics": {
            "node0.kernel.syscall_ns": {"p99": 1800.0},
            "node0": {"decoy": True},
        },
        "result": {"latency": {"p99_us": 42.0}},
    }
    assert resolve_metric(doc, "metrics.node0.kernel.syscall_ns.p99") == 1800.0
    assert resolve_metric(doc, "result.latency.p99_us") == 42.0
    assert resolve_metric(doc, "result.latency.p999_us") is None
    assert resolve_metric(doc, "nowhere.at.all") is None


def test_burn_rate_windowed_and_total():
    # Rise of 30 over the 1000ns window dominates the early slow climb.
    pts = [[0.0, 0.0], [1000.0, 5.0], [2000.0, 10.0], [3000.0, 40.0]]
    assert burn_rate(pts, window_ns=1000.0) == pytest.approx(30.0 * 1e9 / 1000.0)
    # No window: total rise over total span.
    assert burn_rate(pts) == pytest.approx(40.0 * 1e9 / 3000.0)
    # Draining burns nothing; short series burn nothing.
    assert burn_rate([[0.0, 10.0], [1000.0, 2.0]]) == 0.0
    assert burn_rate([[0.0, 1.0]]) == 0.0


def test_evaluate_kinds_and_margins():
    doc = {"result": {"delivered": 100.0, "p99_us": 1500.0, "drops": 2.0}}
    card = evaluate(_spec(
        Objective("delivered", "result.delivered", "floor", 100.0),
        Objective("p99", "result.p99_us", "ceiling", 2000.0),
        Objective("loss", "result.drops", "budget", 0.0),
    ), doc)
    assert card["schema"] == SCORECARD_SCHEMA
    assert not card["ok"]
    assert card["violations"] == ["loss"]
    by_name = {r["name"]: r for r in card["objectives"]}
    assert by_name["delivered"]["margin"] == 0.0  # floor met exactly
    assert by_name["p99"]["margin"] == 500.0
    assert by_name["loss"]["status"] == "violated"
    assert by_name["loss"]["margin"] == -2.0


def test_evaluate_missing_metric_is_violation():
    card = evaluate(_spec(
        Objective("ghost", "metrics.never.recorded", "ceiling", 1.0)), {})
    assert not card["ok"]
    assert card["objectives"][0]["status"] == "missing"
    assert card["objectives"][0]["value"] is None
    # A non-scalar at the path is just as missing as no value at all.
    card = evaluate(_spec(
        Objective("odd", "x", "ceiling", 1.0)), {"x": {"nested": 1}})
    assert card["objectives"][0]["status"] == "missing"


def test_evaluate_burn_rate_reads_timeseries_dict():
    doc = {"timeseries": {"nic.rx_depth": {
        "unit": "frames",
        "points": [[0.0, 0.0], [1_000_000.0, 10.0]],
    }}}
    card = evaluate(_spec(
        Objective("burn", "timeseries.nic.rx_depth", "burn_rate",
                  threshold=20_000.0, window_ns=1_000_000.0)), doc)
    row = card["objectives"][0]
    assert row["value"] == pytest.approx(10.0 * 1e9 / 1e6)  # 10k/s
    assert row["ok"]


def test_evaluate_non_finite_value_is_missing():
    """NaN/inf is no measurement: it scores as missing (as the null the
    serialized artifact stores for it does), never as ok or violated."""
    spec = _spec(Objective("p99", "result.p99_us", "ceiling", 2000.0),
                 Objective("goodput", "result.goodput", "floor", 50.0),
                 Objective("drops", "result.drops", "budget", 0.0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        doc = {"result": {"p99_us": bad, "goodput": bad, "drops": bad}}
        card = evaluate(spec, doc)
        assert not card["ok"]
        assert card["violations"] == ["p99", "goodput", "drops"]
        for row in card["objectives"]:
            assert row["status"] == "missing"
            assert row["value"] is None and row["margin"] is None
        # live and serialized documents score the same
        assert card == evaluate(spec, jsonable(doc))
