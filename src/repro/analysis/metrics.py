"""Curve metrics for the paper's headline comparisons."""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["interpolate_half_bandwidth", "size_reaching"]


def interpolate_half_bandwidth(sizes: Sequence[int], mbps: Sequence[float]) -> Optional[float]:
    """Size (log-interpolated) at which a curve first reaches half its
    final bandwidth — the paper's 4 KB / 16 KB metric."""
    if len(sizes) != len(mbps) or not sizes:
        raise ValueError("mismatched or empty curve")
    target = mbps[-1] / 2
    for i, bw in enumerate(mbps):
        if bw >= target:
            if i == 0:
                return float(sizes[0])
            x0, x1 = math.log10(sizes[i - 1]), math.log10(sizes[i])
            y0, y1 = mbps[i - 1], mbps[i]
            frac = (target - y0) / (y1 - y0) if y1 != y0 else 0.0
            return 10 ** (x0 + frac * (x1 - x0))
    return None


def size_reaching(sizes: Sequence[int], mbps: Sequence[float], threshold: float) -> Optional[float]:
    """Log-interpolated size at which the curve first reaches
    ``threshold`` Mb/s (None if it never does).  Comparing two curves at
    a common threshold captures the paper's "rises faster" claim."""
    for i, bw in enumerate(mbps):
        if bw >= threshold:
            if i == 0:
                return float(sizes[0])
            x0, x1 = math.log10(sizes[i - 1]), math.log10(sizes[i])
            y0, y1 = mbps[i - 1], mbps[i]
            frac = (threshold - y0) / (y1 - y0) if y1 != y0 else 0.0
            return 10 ** (x0 + frac * (x1 - x0))
    return None

