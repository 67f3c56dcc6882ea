"""End-to-end tests for the repro.trace and repro.experiments CLIs."""

import json

import pytest

from repro.obs import RunArtifact
from repro.trace import PIPELINE_SCOPE, capture_fig7, main

FIG7_STAGES_STOCK = [
    "sender: syscall + CLIC_MODULE + driver",
    "NIC DMA + flight",
    "receiver: driver interrupt (NIC->system copy)",
    "bottom halves -> CLIC_MODULE",
    "CLIC_MODULE copy to user + wake",
]


def test_capture_fig7_artifact_is_complete():
    art = capture_fig7()
    assert art.experiment == "fig7"
    assert art.result["total_us"] > 0
    assert art.metrics  # cluster-wide metrics snapshot present
    assert art.records
    stage_spans = [s for s in art.spans if s["scope"] == PIPELINE_SCOPE]
    assert [s["name"] for s in stage_spans] == FIG7_STAGES_STOCK


def test_cli_chrome_output_round_trips(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["--chrome", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ns"
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # At least one complete span per Figure-7 pipeline stage.
    stage_names = {e["name"] for e in complete if e["cat"] == PIPELINE_SCOPE}
    assert stage_names == set(FIG7_STAGES_STOCK)
    # Component spans are exported too, with metadata lanes.
    assert any(e["cat"].startswith("node0") for e in complete)
    assert any(e["ph"] == "M" for e in doc["traceEvents"])


def test_cli_direct_variant_and_filters(capsys):
    assert main(["--variant", "direct", "--source", "node1", "--event", "driver_rx"]) == 0
    doc = json.loads(capsys.readouterr().out)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants and all(e["name"] == "driver_rx" for e in instants)
    # --source node1 keeps only receiver-side spans (pipeline spans are
    # scoped fig7.pipeline and filtered out too).
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert complete and all(e["cat"].startswith("node1") for e in complete)


def test_cli_span_listing(capsys):
    assert main(["--spans"]) == 0
    out = capsys.readouterr().out
    assert "node0.kernel/syscall" in out
    assert f"{PIPELINE_SCOPE}/NIC DMA + flight" in out


def test_cli_summary_table(capsys):
    assert main(["--summary", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "top scopes by self time" in out
    assert "self us" in out
    # --top bounds the table: header + separator + title + <= 3 rows.
    rows = [l for l in out.splitlines() if l.count("|") >= 4]
    assert 1 <= len(rows) - 1 <= 3  # minus the header row
    # Summary works offline from a saved artifact too.


def test_cli_summary_from_artifact(tmp_path, capsys):
    art_path = tmp_path / "run.json"
    assert main(["--artifact", str(art_path), "-o", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    assert main(["--input", str(art_path), "--summary"]) == 0
    assert "top scopes by self time" in capsys.readouterr().out


def test_cli_artifact_write_and_reload(tmp_path, capsys):
    art_path = tmp_path / "run.json"
    out_path = tmp_path / "trace.json"
    assert main(["--artifact", str(art_path), "-o", str(out_path)]) == 0
    loaded = RunArtifact.load(str(art_path))
    assert loaded.experiment == "fig7"
    # Re-export from the artifact, no simulation run.
    assert main(["--input", str(art_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(out_path.read_text())


def test_experiments_json_flag(tmp_path, capsys):
    from repro.experiments.registry import main as experiments_main

    path = tmp_path / "fig7.json"
    assert experiments_main(["fig7", "--json", str(path)]) == 0
    art = RunArtifact.load(str(path))
    assert art.experiment == "fig7"
    assert art.quick is True
    assert "report" not in art.result
    assert art.result["a"]["total_us"] > 0
    json.loads(art.to_json())  # round-trips
    # Every --json artifact now carries aggregated simulator-cost stats.
    assert art.profile["environments"] >= 1
    assert art.profile["events_processed"] > 0


# ---------------------------------------------------------------------------
# fig4-point: journey capture, --journey / --outliers, flow+counter export
# ---------------------------------------------------------------------------

_FIG4P_ARGS = ["--experiment", "fig4-point", "--nbytes", "16384",
               "--messages", "8", "--loss", "0.02"]


@pytest.fixture(scope="module")
def fig4p_artifact(tmp_path_factory):
    from repro.trace import capture_fig4_point

    art = capture_fig4_point(nbytes=16_384, messages=8, loss=0.02)
    path = tmp_path_factory.mktemp("fig4p") / "art.json"
    art.write(str(path))
    return art, path


def test_capture_fig4_point_artifact(fig4p_artifact):
    art, _ = fig4p_artifact
    assert art.experiment == "fig4.point"
    assert len(art.journeys) == 8
    assert all(j["delivered"] for j in art.journeys)
    assert any(j["retransmits"] for j in art.journeys)
    assert art.result["latency"]["p999_us"] >= art.result["latency"]["p50_us"]
    assert art.timeseries  # queue depths were sampled
    assert any(name.endswith(".rx_depth") for name in art.timeseries)
    assert any(name.startswith("switch.port") for name in art.timeseries)


def test_cli_fig4_point_chrome_has_flows_and_counters(fig4p_artifact, capsys):
    _, path = fig4p_artifact
    assert main(["--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"s", "f", "C"} <= phases


def test_cli_journey_waterfall(fig4p_artifact, capsys):
    _, path = fig4p_artifact
    assert main(["--input", str(path), "--journey", "1"]) == 0
    out = capsys.readouterr().out
    assert "Journey #1" in out
    for hop in ("send", "wire", "switch", "irq", "deliver", "TOTAL"):
        assert hop in out


def test_cli_outliers_report(fig4p_artifact, capsys):
    _, path = fig4p_artifact
    assert main(["--input", str(path), "--outliers", "3"]) == 0
    out = capsys.readouterr().out
    assert "Top 3 slowest journeys" in out
    assert "dominant hop" in out


def test_cli_journey_flags_reject_artifacts_without_journeys(tmp_path, capsys):
    art_path = tmp_path / "fig7.json"
    assert main(["--artifact", str(art_path), "-o", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--input", str(art_path), "--outliers", "3"])
    assert "no journeys" in capsys.readouterr().err


def test_cli_unknown_journey_id_errors(fig4p_artifact, capsys):
    _, path = fig4p_artifact
    with pytest.raises(SystemExit):
        main(["--input", str(path), "--journey", "999"])
    assert "no journey with id 999" in capsys.readouterr().err


def test_capture_fig4_point_checks_its_envelope(fig4p_artifact):
    art, _ = fig4p_artifact
    assert art.slo == {"ok": True, "failed": []}


def test_capture_fig4_point_live_scorecard_equals_serialized(fig4p_artifact):
    """The checks run on the live sections; re-checking the serialized
    artifact, and the artifact reloaded from disk, gives the same verdict."""
    from repro.trace import _fig4_point_failed

    art, path = fig4p_artifact
    for doc in (art.to_dict(), RunArtifact.load(str(path)).to_dict()):
        assert doc["slo"] == art.slo
        assert _fig4_point_failed(doc["result"], doc["timeseries"],
                                  16_384, 8, 0.02) == art.slo["failed"]


def _envelope_sections(loss=0.02, **latency):
    """Synthetic result/timeseries sections of a 4 x 10 kB fig4-point run
    that pass every check; ``latency`` overrides latency fields."""
    result = {"goodput_mbps": 300.0,
              "latency": {"delivered": 4, "p999_us": 1_000.0,
                          "retransmitted": 1 if loss else 0, **latency}}
    # 10 frames in 1 ms = 10,000 frames/s, well under the 64,000 cap
    rx_depth = {"points": [[0.0, 0.0], [500_000.0, 4.0], [1_000_000.0, 10.0]]}
    return result, {"node1.nic0.rx_depth": rx_depth}


@pytest.mark.parametrize("loss", [0.0, 0.02])
def test_fig4_point_checks_fail_one_by_one(loss):
    from repro.trace import _fig4_point_failed

    def failed(result, timeseries):
        return _fig4_point_failed(result, timeseries, 10_000, 4, loss)

    result, timeseries = _envelope_sections(loss)
    assert failed(result, timeseries) == []
    # 4 x 80 µs x 4 + 5 ms = 6,280 µs of tail budget
    for name, latency in [("delivered", {"delivered": 3}),
                          ("p999-latency", {"p999_us": 6_281.0}),
                          ("p999-latency", {"p999_us": float("nan")}),
                          ("retransmit-budget", {"retransmitted": 5 if loss else 1})]:
        result, timeseries = _envelope_sections(loss, **latency)
        assert failed(result, timeseries) == [name], latency
    result, timeseries = _envelope_sections(loss)
    result["goodput_mbps"] = 49.0 if loss else 199.0
    assert failed(result, timeseries) == ["goodput"]
    result["goodput_mbps"] = 50.0 if loss else 200.0
    assert failed(result, timeseries) == []
    # 65 frames within 1 ms rise faster than 64,000 frames/s
    timeseries["node1.nic0.rx_depth"]["points"].append([1_500_000.0, 75.0])
    assert failed(result, timeseries) == ["rx-depth-burn"]
    assert failed(result, {}) == ["rx-depth-burn"]


def _burn_rate_rescan(points, window_ns):
    """The windowed burn rate by its definition: rescan every window."""
    best = 0.0
    lo = 0
    for hi, (t, v) in enumerate(points):
        while t - points[lo][0] > window_ns:
            lo += 1
        if lo < hi:
            best = max(best, v - min(p[1] for p in points[lo:hi]))
    return best * 1e9 / window_ns


def _random_series(rng, n):
    t, points = 0.0, []
    for _ in range(n):
        t += rng.choice((0.0, 0.0, 1_000.0, 50_000.0, rng.uniform(0, 400_000.0)))
        v = rng.choice((rng.randint(0, 8), float(rng.randint(0, 8)), rng.uniform(0, 64)))
        points.append([t, v])
    return points


@pytest.mark.parametrize("seed", range(20))
def test_burn_rate_equals_the_window_rescan(seed):
    """The sliding-window minimum gives the rescan's float exactly."""
    import random

    from repro.trace import _burn_rate

    rng = random.Random(seed)
    for n in (0, 1, 2, 3, 17, 200):
        points = _random_series(rng, n)
        for window in (1.0, 1_000.0, 100_000.0, 1_000_000.0):
            assert repr(_burn_rate(points, window)) == repr(
                _burn_rate_rescan(points, window)), (n, window)


def test_burn_rate_edge_series():
    from repro.trace import _burn_rate

    window = 1_000_000.0
    equal_times = [[5.0, 3.0], [5.0, 1.0], [5.0, 4.0], [5.0, 1.0], [5.0, 9.0]]
    for points in ([], [[0.0, 7.0]], equal_times,
                   [[0.0, 2], [1.0, 2.0], [2.0, 2], [3.0, 5]],
                   [[0.0, 9.0], [2e6, 0.0], [2.5e6, 3.0]]):
        assert repr(_burn_rate(points, window)) == repr(_burn_rate_rescan(points, window))
    assert _burn_rate([], window) == 0.0
    assert _burn_rate([[0.0, 7.0]], window) == 0.0
    # equal timestamps share one window: the rise is 9 - 1
    assert _burn_rate(equal_times, window) == 8.0 * 1e9 / window


def test_capture_fig4_point_never_serializes_in_the_run(monkeypatch):
    """Structural cost pin: a capture builds no serialized copy of its
    records — neither RunArtifact.to_dict nor dataclasses.asdict runs."""
    import dataclasses

    from repro.trace import capture_fig4_point

    def forbidden(*args, **kwargs):
        raise AssertionError("serialized copy built inside the capture")

    monkeypatch.setattr(RunArtifact, "to_dict", forbidden)
    monkeypatch.setattr(dataclasses, "asdict", forbidden)
    art = capture_fig4_point(nbytes=8_192, messages=2, loss=0.02)
    assert sorted(art.slo) == ["failed", "ok"]


def test_cli_fig4_point_capture_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_FIG4P_ARGS + ["-o", str(out_a)]) == 0
    assert main(_FIG4P_ARGS + ["-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
