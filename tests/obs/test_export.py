"""Exporter tests: Chrome trace golden file, RunArtifact, jsonable."""

import json
import os

import pytest

from repro.obs import (
    RUN_SCHEMA,
    RunArtifact,
    chrome_trace_events,
    chrome_trace_json,
    jsonable,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_chrome.json")

SPANS = [
    {"id": 1, "scope": "node0.kernel", "name": "syscall", "start_ns": 0.0,
     "end_ns": 4450.0, "parent": None, "attrs": {"label": "clic_send"}},
    {"id": 2, "scope": "node0.clic", "name": "clic_send", "start_ns": 350.0,
     "end_ns": 3250.0, "parent": 1, "attrs": {"dst": 1, "nbytes": 1400}},
    {"id": 3, "scope": "node1.eth0", "name": "irq", "start_ns": 56495.0,
     "end_ns": 74240.0, "parent": None, "attrs": {"drained": 1}},
]

RECORDS = [
    {"time": 3250.0, "source": "node0.eth0", "event": "driver_tx",
     "detail": {"pkt": 1, "nbytes": 1412}},
    {"time": 74240.0, "source": "node1.eth0", "event": "driver_rx",
     "detail": {"pkt": 1, "t0": 56495.0, "nbytes": 1412}},
]


def test_chrome_export_matches_golden_file():
    """The exporter's output format is a contract: byte-compare against
    the checked-in golden document."""
    got = chrome_trace_json(SPANS, RECORDS, indent=2)
    with open(GOLDEN) as fh:
        want = fh.read().rstrip("\n")
    assert got == want


def test_chrome_events_structure():
    events = chrome_trace_events(SPANS, RECORDS)
    doc = json.loads(chrome_trace_json(SPANS, RECORDS))
    assert doc["traceEvents"] == jsonable(events)
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 3
    assert len(instants) == 2
    assert {m["name"] for m in meta} == {"process_name", "thread_name"}
    # timestamps are microseconds
    syscall = next(e for e in complete if e["name"] == "syscall")
    assert syscall["ts"] == 0.0 and syscall["dur"] == 4.45
    # pid/tid assignment is deterministic: sorted first-appearance
    assert chrome_trace_events(SPANS, RECORDS) == events
    # parent ids surface in args
    child = next(e for e in complete if e["name"] == "clic_send")
    assert child["args"]["parent"] == 1 and child["args"]["span"] == 2


def test_run_artifact_round_trip(tmp_path):
    art = RunArtifact(
        experiment="fig7",
        result={"total_us": 84.9},
        metrics={"node0.kernel.syscalls": 2},
        profile={"events_processed": 10},
        spans=SPANS,
        records=RECORDS,
    )
    path = tmp_path / "run.json"
    art.write(str(path))
    loaded = RunArtifact.load(str(path))
    assert loaded == art
    assert loaded.schema == RUN_SCHEMA
    # An artifact loaded from disk can still export Chrome JSON.
    assert json.loads(chrome_trace_json(loaded.spans, loaded.records))["traceEvents"]


def test_run_artifact_to_dict_is_a_fixed_point():
    """to_dict -> from_dict -> to_dict must be the identity, including
    the schema-2 profile field."""
    art = RunArtifact(
        experiment="fig7",
        result={"total_us": 84.9},
        profile={"events_processed": 10, "per_type": {"timer": 4}},
        spans=SPANS,
        records=RECORDS,
    )
    once = art.to_dict()
    twice = RunArtifact.from_dict(once).to_dict()
    assert once == twice
    assert once["schema"] == RUN_SCHEMA
    assert once["profile"]["per_type"] == {"timer": 4}


def test_run_artifact_to_dict_does_not_alias_the_artifact():
    """to_dict returns a copy: mutating any of its nested containers
    leaves the artifact (and so a second to_dict) unchanged."""
    art = RunArtifact(
        experiment="fig4.point",
        result={"latency": {"p99_us": 12.5, "ids": [1, 2]}},
        journeys=[{"id": 1, "events": [{"hop": "send", "t_ns": 0.0}],
                   "retransmits": [(0, 1)]}],
        timeseries={"nic.rx_depth": {"unit": "frames",
                                     "points": [(0.0, 1.0), (5.0, 3.0)]}},
    )
    before = art.to_dict()
    doc = art.to_dict()
    doc["result"]["latency"]["p99_us"] = -1.0
    doc["result"]["latency"]["ids"].append(3)
    doc["journeys"][0]["events"][0]["hop"] = "forged"
    doc["journeys"][0]["retransmits"][0][1] = 99
    doc["journeys"].append({"id": 2})
    doc["timeseries"]["nic.rx_depth"]["points"][0][1] = 1e9
    doc["timeseries"]["nic.rx_depth"]["points"].clear()
    assert art.result == {"latency": {"p99_us": 12.5, "ids": [1, 2]}}
    assert art.journeys[0]["events"][0]["hop"] == "send"
    assert art.journeys[0]["retransmits"] == [(0, 1)] and len(art.journeys) == 1
    assert art.timeseries["nic.rx_depth"]["points"] == [(0.0, 1.0), (5.0, 3.0)]
    assert art.to_dict() == before


@pytest.mark.parametrize("schema", ["repro.run/1", "repro.run/2", "repro.run/3"],
                         ids=["v1", "v2", "v3"])
def test_run_artifact_refuses_older_schemas(schema):
    """Only the current schema loads: no writer produces v1-v3, so an
    older document is refused by name rather than upgraded."""
    doc = RunArtifact(experiment="fig7", spans=SPANS, records=RECORDS).to_dict()
    doc["schema"] = schema
    with pytest.raises(ValueError, match=schema):
        RunArtifact.from_dict(doc)


def test_chrome_export_is_deterministic_across_runs():
    """Two identical seeded captures export byte-identical Chrome JSON
    (and artifact JSON) — the reproducibility contract of the tracer."""
    from repro.trace import capture_fig7

    a, b = capture_fig7(), capture_fig7()
    assert (chrome_trace_json(a.spans, a.records)
            == chrome_trace_json(b.spans, b.records))
    assert a.to_json() == b.to_json()
    assert a.profile and a.profile == b.profile


def test_run_artifact_validation():
    with pytest.raises(ValueError, match="schema"):
        RunArtifact.from_dict({"schema": "bogus/9", "experiment": "x"})
    with pytest.raises(ValueError, match="experiment"):
        RunArtifact.from_dict({"schema": RUN_SCHEMA})
    with pytest.raises(ValueError, match="object"):
        RunArtifact.from_dict([1, 2])
    # Unknown keys are dropped, not fatal (forward compatibility).
    art = RunArtifact.from_dict(
        {"schema": RUN_SCHEMA, "experiment": "x", "future_field": 1}
    )
    assert art.experiment == "x"


def test_jsonable_sanitizes():
    from dataclasses import dataclass

    @dataclass
    class Point:
        x: int

    out = jsonable({
        1: (1, 2),
        "inf": float("inf"),
        "nan": float("nan"),
        "set": {3, 1},
        "dc": Point(x=4),
        "obj": object,
    })
    assert out["1"] == [1, 2]
    assert out["inf"] is None and out["nan"] is None
    assert out["set"] == [1, 3]
    assert out["dc"] == {"x": 4}
    assert isinstance(out["obj"], str)
    assert json.dumps(out)  # fully serializable


def test_jsonable_dataclass_matches_asdict_walk():
    """Dataclasses serialize field by field to exactly what the
    deep-copying ``dataclasses.asdict`` walk used to give."""
    import dataclasses

    @dataclasses.dataclass
    class Inner:
        pts: tuple
        tags: dict

    @dataclasses.dataclass
    class Outer:
        name: str
        inner: Inner
        many: list
        ratio: float = float("nan")

    obj = Outer("o", Inner(((0.0, 1.0),), {2: float("inf"), "s": {3, 1}}),
                [Inner((), {}), {"k": (1, Inner((5,), {}))}])
    assert jsonable(obj) == jsonable(dataclasses.asdict(obj))
    assert json.dumps(jsonable(obj), sort_keys=True) == \
        json.dumps(jsonable(dataclasses.asdict(obj)), sort_keys=True)
