"""Tests for the experiment helpers (shape checks, sweeps)."""

import pytest

from repro.config import granada2003
from repro.experiments.common import (
    ShapeCheckFailure,
    check,
    full_sizes,
    quick_sizes,
    sweep_pingpong,
    sweep_stream,
)
from repro.workloads import clic_pair


def test_check_passes_silently():
    check(True, "fine")


def test_check_raises_with_claim_text():
    with pytest.raises(ShapeCheckFailure, match="jumbo beats"):
        check(False, "jumbo beats standard", "599 vs 601")


def test_check_detail_included():
    with pytest.raises(ShapeCheckFailure, match="599 vs 601"):
        check(False, "claim", "599 vs 601")


def test_size_grids():
    q = quick_sizes()
    f = full_sizes()
    assert q[0] >= 10 and q[-1] == 1_000_000
    assert f[0] == 10 and f[-1] == 10_000_000
    assert len(f) > len(q)
    assert f == sorted(f)


def test_sweep_pingpong_produces_series():
    series = sweep_pingpong("t", granada2003(), clic_pair, sizes=[1_000, 100_000])
    assert series.sizes == [1_000, 100_000]
    assert series.mbps[1] > series.mbps[0]


def test_sweep_stream_wraps_as_series():
    series = sweep_stream("t", granada2003(), clic_pair, sizes=[10_000], messages=4)
    assert series.sizes == [10_000]
    assert series.asymptote() > 0
    # Stream "rtt" is synthesized as 2x the per-message time so the
    # bandwidth helper (n / (rtt/2)) reports stream throughput.
    point = series.points[0]
    assert point.bandwidth_mbps == pytest.approx(
        10_000 * 8 / (point.rtt_ns / 2) * 1e9 / 1e6 / 1e0, rel=1e-6
    )
