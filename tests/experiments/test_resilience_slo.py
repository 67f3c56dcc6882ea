"""Resilience declared contracts: adversarial SLOs, watchdog, fleet fold."""

import json

import pytest

from repro.experiments.resilience import (
    ADVERSARIAL_KINDS,
    _adversarial_run,
    _cell,
    adversarial_slo,
)
from repro.obs import Histogram, MetricsRegistry, evaluate


def test_adversarial_slo_specs_are_data():
    for kind in ADVERSARIAL_KINDS:
        spec = adversarial_slo(kind, messages=40)
        assert spec.name == f"adversarial.{kind}"
        names = [o.name for o in spec.objectives]
        assert names[0] == "delivered"
    overload = adversarial_slo("overload", 40)
    by_name = {o.name: o for o in overload.objectives}
    assert by_name["loss-budget"].kind == "budget"
    assert by_name["loss-budget"].threshold == 0.0


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_adversarial_runs_meet_declared_contract(kind):
    out = _adversarial_run(kind, nbytes=4096, messages=40)
    card = out["slo"]
    assert card["ok"], f"{kind}: violated {card['violations']}"
    # Scoring the stored scorecard's spec again reproduces it.
    again = evaluate(adversarial_slo(kind, 40), out)
    assert again["objectives"] == card["objectives"]
    assert out["health_summary"]["schema"] == "repro.health/1"


def test_overload_watchdog_flags_pause_storm():
    out = _adversarial_run("overload", nbytes=4096, messages=40)
    storms = [e for e in out["health"]
              if e["kind"] == "storm" and "pause" in e["rule"]]
    assert storms, "overload run should trip the pause-storm rule"
    assert all(e["severity"] in ("warning", "critical") for e in storms)
    # Pure observer: the degraded counters still satisfy the contract.
    assert out["degraded"]["overrun_drops"] == 0.0


def test_cell_digest_folds_to_fleet_percentiles():
    a = _cell("clic", "uniform", 0.0, nbytes=2048, messages=2)
    b = _cell("clic", "uniform", 0.02, nbytes=2048, messages=2)
    for cell in (a, b):
        json.dumps(cell["digest"])  # pool-safe plain JSON
    fleet = MetricsRegistry()
    fleet.merge_from(a["digest"])
    fleet.merge_from(b["digest"])
    syscall = Histogram("kernel.syscall_ns")
    merged_names = []
    for name, inst in fleet.items():
        if name.endswith("kernel.syscall_ns"):
            merged_names.append(name)
            syscall.merge(inst)
    assert merged_names, "cells should carry per-node syscall histograms"
    assert syscall.count == sum(
        entry["count"]
        for cell in (a, b)
        for name, entry in cell["digest"].items()
        if name.endswith("kernel.syscall_ns"))
    assert syscall.p999 >= syscall.p50 > 0.0
