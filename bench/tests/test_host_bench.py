"""Tests of the host-time benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import sampler, workloads
from bench.compare import verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(ROOT, "bench", "reference", "seed1.json")) as fh:
    REFERENCE = json.load(fh)["workloads"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_point_lists_are_pure_functions_of_the_seed(workload):
    assert workloads.points(workload, 1) == workloads.points(workload, 1)
    assert workloads.points(workload, 1) != workloads.points(workload, 2)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_bulk_flow_starts_with_the_bulk_packet_points():
    for seed in (1, 7):
        packet = workloads.points("bulk-packet", seed)
        flow = workloads.points("bulk-flow", seed)
        assert len(flow) == workloads.FLOW_BLOCKS * len(packet)
        assert [dict(p, flow_mode="off") for p in flow[:len(packet)]] == packet


def test_every_source_file_maps_to_a_layer():
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), src)
                assert sampler.layer_of_file(rel) in sampler.LAYERS, rel


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_process_name_maps_to_a_layer(workload):
    from repro.obs import aggregate_profiles
    from repro.sim import profiled

    with profiled() as sink:
        for point in workloads.points(workload, 1)[:2]:
            workloads.RUNNERS[workload](point)
    names = aggregate_profiles(sink)["per_process"]
    assert names
    assert [n for n in names if sampler.layer_of_process(n) is None] == []


@pytest.mark.parametrize("workload,perturb", [
    ("bulk-packet", lambda out: out.update(elapsed_ns=out["elapsed_ns"] + 1)),
    ("latency", lambda out: out.update(rtt_ns=out["rtt_ns"] + 1)),
    ("lossy-traced", lambda out: out.update(elapsed_ns=out["elapsed_ns"] + 1)),
    ("collectives", lambda out: out["rank_ns"].__setitem__(0, out["rank_ns"][0] + 1)),
])
def test_a_result_one_ns_off_the_reference_fails(workload, perturb):
    point, ref = workloads.points(workload, 1)[0], REFERENCE[workload][0]
    out = workloads.RUNNERS[workload](point)[0]
    assert workloads.check(workload, point, out, ref) is None
    perturb(out)
    assert workloads.check(workload, point, out, ref) is not None


def test_bulk_flow_is_held_to_the_packet_engine_within_its_contract():
    point, ref = workloads.points("bulk-flow", 1)[0], REFERENCE["bulk-flow"][0]
    out = workloads.RUNNERS["bulk-flow"](point)[0]
    assert workloads.check("bulk-flow", point, out, ref) is None
    allowed = max(workloads.FLOW_BW_TOLERANCE, ref["flow_err"])
    out["elapsed_ns"] = ref["packet"]["elapsed_ns"] / (1 + 1.01 * allowed)
    assert workloads.check("bulk-flow", point, out, ref) is not None


def test_a_point_that_loses_bytes_fails_on_any_seed():
    point = workloads.points("bulk-packet", 5)[0]
    out = workloads.RUNNERS["bulk-packet"](point)[0]
    assert workloads.check("bulk-packet", point, out) is None
    out["bytes_rx"] -= 1
    assert workloads.check("bulk-packet", point, out) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_of_the_spec(workload, tmp_path):
    done = _run("--workload", workload, "--smoke", "--trace", "1",
                "--json", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {line.split()[1] for line in lines[:-1]}
    wanted = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert [n for n in wanted if n not in printed] == []
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 2 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    shares = sum(last["metrics"][f"{layer}.self_s"]["value"] for layer in sampler.LAYERS)
    host_s = json.loads((tmp_path / "r.json").read_text())["metrics"]["host_s"]["value"]
    assert shares == pytest.approx(host_s) or last["metrics"]["trace.samples"]["value"] == 0


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    done = _run("--workload", "latency", "--smoke", "--json", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "bulk-packet", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert verdict(parent, list(parent), "lower", 0.1)["verdict"] == "unchanged"
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)["verdict"] == "better"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "worse"
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)["verdict"] == "better"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
