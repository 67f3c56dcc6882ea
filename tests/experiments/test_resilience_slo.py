"""Resilience: the adversarial runs' degraded-mode conditions and the fleet fold."""

import json

import pytest

from repro.experiments.resilience import (
    ADVERSARIAL_KINDS,
    _adversarial_failed,
    _adversarial_run,
    _cell,
)
from repro.obs import Histogram


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_adversarial_runs_meet_degraded_mode_conditions(kind):
    out = _adversarial_run(kind, nbytes=4096, messages=40)
    s, d = out["summary"], out["degraded"]
    assert s["delivered"] == s["messages"] == 40
    if kind == "reorder":
        assert d["reorder_buffered"] >= 1
    elif kind == "duplicate":
        assert d["dup_suppressed"] >= 1
    else:
        assert d["pause_events"] >= 1
        assert d["pause_time_ns"] >= 100_000
        assert d["overrun_drops"] == 0
    assert _adversarial_failed(kind, out) == []


def test_adversarial_conditions_name_what_failed():
    short = {"delivered": 39, "messages": 40}
    assert _adversarial_failed("overload", {"summary": short, "degraded": {
        "pause_events": 1.0, "pause_time_ns": 99_999.0, "overrun_drops": 1.0}}) == [
        "delivered == messages", "pause_time_ns >= 100000", "overrun_drops == 0"]
    full = {"delivered": 2, "messages": 2}
    assert _adversarial_failed("overload", {"summary": full, "degraded": {
        "pause_events": 0.0, "pause_time_ns": 0.0, "overrun_drops": 0.0}}) == [
        "pause_events >= 1", "pause_time_ns >= 100000"]
    assert _adversarial_failed("reorder", {
        "summary": full, "degraded": {"reorder_buffered": 0}}) == ["reorder_buffered >= 1"]
    assert _adversarial_failed("duplicate", {
        "summary": full, "degraded": {"dup_suppressed": 0}}) == ["dup_suppressed >= 1"]


def test_cell_digest_folds_to_fleet_percentiles():
    a = _cell("clic", "uniform", 0.0, nbytes=2048, messages=2)
    b = _cell("clic", "uniform", 0.02, nbytes=2048, messages=2)
    for cell in (a, b):
        assert list(cell["histograms"]) == sorted(cell["histograms"])
        assert {e["kind"] for e in cell["histograms"].values()} == {"histogram"}
        # pool-safe plain JSON that rebuilds losslessly
        shipped = json.loads(json.dumps(cell["histograms"]))
        assert shipped == cell["histograms"]
    fleet = {}
    for cell in (a, b):
        for name, entry in cell["histograms"].items():
            hist = Histogram.from_dict(entry, name)
            fleet.setdefault(name, Histogram(name, hist.growth)).merge(hist)
    syscall = Histogram("kernel.syscall_ns")
    merged_names = [name for name in sorted(fleet)
                    if name.endswith("kernel.syscall_ns")]
    assert merged_names, "cells should carry per-node syscall histograms"
    for name in merged_names:
        syscall.merge(fleet[name])
    assert syscall.count == sum(
        entry["count"]
        for cell in (a, b)
        for name, entry in cell["histograms"].items()
        if name.endswith("kernel.syscall_ns"))
    assert syscall.p999 >= syscall.p50 > 0.0
