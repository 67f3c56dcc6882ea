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


def test_capture_fig4_point_has_slo_and_health(fig4p_artifact):
    art, _ = fig4p_artifact
    card = art.slo
    assert card["schema"] == "repro.slo-scorecard/1"
    assert card["slo"] == "fig4-point"
    assert card["ok"], f"fig4-point SLO violated: {card['violations']}"
    names = {r["name"] for r in card["objectives"]}
    assert {"delivered", "p999-latency", "goodput",
            "retransmit-budget", "rx-depth-burn"} <= names
    # The watchdog rode the sampler; a healthy lossy-but-delivering run
    # has an event list (possibly empty) and no critical events.
    assert isinstance(art.health, list)
    assert not any(e["severity"] == "critical" for e in art.health)


def test_capture_fig4_point_live_scorecard_equals_serialized(fig4p_artifact):
    """The SLO is scored on the live sections; re-scoring the serialized
    artifact, and the artifact reloaded from disk, gives the same card."""
    from repro.obs import evaluate
    from repro.trace import fig4_point_slo

    art, path = fig4p_artifact
    spec = fig4_point_slo(16_384, 8, 0.02)
    assert art.slo == evaluate(spec, art.to_dict())
    assert RunArtifact.load(str(path)).slo == evaluate(spec, art.to_dict())


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
    assert art.slo["slo"] == "fig4-point"
    assert len(art.slo["objectives"]) == 5


def test_cli_html_dashboard_is_self_contained(fig4p_artifact, tmp_path, capsys):
    _, path = fig4p_artifact
    out = tmp_path / "dash.html"
    assert main(["--input", str(path), "--html", "-o", str(out)]) == 0
    html = out.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html
    for needle in ("http://", "https://", "<script src"):
        assert needle not in html
    assert "fig4.point" in html
    assert "SLO scorecard" in html


def test_cli_html_to_stdout(fig4p_artifact, capsys):
    _, path = fig4p_artifact
    assert main(["--input", str(path), "--html"]) == 0
    assert "<!DOCTYPE html>" in capsys.readouterr().out


def test_cli_fig4_point_capture_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_FIG4P_ARGS + ["-o", str(out_a)]) == 0
    assert main(_FIG4P_ARGS + ["-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
