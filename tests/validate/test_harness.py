"""End-to-end harness checks: the fuzzer is clean on main and
bit-deterministic, and the CLI agrees."""

import json

import pytest

from repro.validate import generate_scenario, run_scenario
from repro.validate.__main__ import main


def _report(master_seed, index):
    return run_scenario(generate_scenario(master_seed, index).to_dict())


@pytest.mark.parametrize("index", range(12))
def test_fuzz_scenarios_hold_all_invariants_on_main(index):
    report = _report(7, index)
    assert report["violations"] == [], report["violations"]
    # the scenario actually exercised the stack
    assert report["stats"]["frames_offered"] > 0
    assert report["stats"]["channels"] >= 1


def test_reports_are_bit_deterministic():
    spec = generate_scenario(7, 3).to_dict()
    a, b = run_scenario(spec), run_scenario(spec)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_permanent_fault_scenario_converges_to_peer_death():
    """Find a generated peer-death case and check it ends in dead peers
    with zero violations (the retry budget converges)."""
    from repro.validate import Scenario

    for index in range(40):
        scenario = generate_scenario(7, index)
        if scenario.permanent_fault:
            break
    else:
        pytest.skip("no permanent-fault scenario in the first 40")
    report = run_scenario(scenario.to_dict())
    assert report["violations"] == []


def test_cli_fuzz_clean_campaign(tmp_path, capsys):
    rc = main(["fuzz", "--budget", "6", "--seed", "11", "--out", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.glob("REPLAY_*.json")) == []
    out = capsys.readouterr().out
    assert "0 failing" in out


def test_cli_replay_rejects_unknown_schema(tmp_path, capsys):
    bogus = tmp_path / "REPLAY_bogus.json"
    bogus.write_text(json.dumps({"schema": "repro.validate/999"}))
    assert main(["replay", str(bogus)]) == 2


def test_trains_hold_all_invariants(monkeypatch):
    """The drawn fuzz campaigns form no train (their small messages and
    drawn axes fall back before one forms), so this fault-free star CLIC
    scenario sends messages long enough to batch under ``auto`` and runs
    it through the harness with the probe on every channel: trains
    form, no rule of the catalog is violated, and every node receives
    the bytes the ``off`` run does."""
    from repro.validate import Message, Scenario
    from repro.validate import runner

    built = []

    class _Kept(runner.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "Cluster", _Kept)
    messages = (Message(0, 1, 300_000, 1), Message(0, 1, 200_003, 2),
                Message(2, 1, 150_000, 3), Message(1, 0, 250_000, 4),
                Message(0, 2, 64_001, 5))
    received = {}
    for mode in ("off", "auto"):
        scenario = Scenario(seed=11, num_nodes=3, messages=messages, flow_mode=mode)
        report = run_scenario(scenario.to_dict())
        assert report["violations"] == [], report["violations"]
        assert report["stats"]["unfinished_procs"] == 0
        cluster = built[-1]
        received[mode] = [node.clic.counters["bytes_rx"] for node in cluster.nodes]
    assert cluster.env.flow.counters["trains"] > 0
    assert received["auto"] == received["off"] == [250_000, 650_003, 64_001]
