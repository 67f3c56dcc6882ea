"""ASCII log-x line plots.

The paper's Figures 4-6 are bandwidth-vs-size plots with a logarithmic
size axis; this renders the reproduced curves directly in the terminal /
benchmark output so the *shape* comparison (who wins, where curves
cross, how fast they rise) is visible without a plotting stack.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

__all__ = ["logx_plot"]

_MARKERS = "ox+*#@%&"
#: plot area in characters
_WIDTH = 72
_HEIGHT = 20


def logx_plot(series_list: Sequence, title: Optional[str] = None) -> str:
    """Render SweepSeries curves (Mbps) on a log-x / linear-y character grid."""
    if not series_list:
        raise ValueError("no series")
    all_x = [x for s in series_list for x in s.sizes if x > 0]
    all_y = [y for s in series_list for y in s.mbps]
    if not all_x:
        raise ValueError("no positive sizes to plot")
    x_lo, x_hi = math.log10(min(all_x)), math.log10(max(all_x))
    y_hi = max(all_y) * 1.05 or 1.0
    x_span = max(x_hi - x_lo, 1e-9)

    grid = [[" "] * _WIDTH for _ in range(_HEIGHT)]
    for si, series in enumerate(series_list):
        marker = _MARKERS[si % len(_MARKERS)]
        for x, y in zip(series.sizes, series.mbps):
            if x <= 0:
                continue
            col = int((math.log10(x) - x_lo) / x_span * (_WIDTH - 1))
            row = _HEIGHT - 1 - int(y / y_hi * (_HEIGHT - 1))
            row = min(max(row, 0), _HEIGHT - 1)
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y_val = y_hi * (_HEIGHT - 1 - i) / (_HEIGHT - 1)
        lines.append(f"{y_val:8.0f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * _WIDTH)
    # Decade tick labels.
    ticks = [" "] * _WIDTH
    decade = math.ceil(x_lo)
    while decade <= x_hi:
        col = int((decade - x_lo) / x_span * (_WIDTH - 1))
        label = f"1e{decade}"
        for j, ch in enumerate(label):
            if col + j < _WIDTH:
                ticks[col + j] = ch
        decade += 1
    lines.append(" " * 10 + "".join(ticks) + "  bytes")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {s.label}" for i, s in enumerate(series_list)
    )
    lines.append(f"  [Mbps]  {legend}")
    return "\n".join(lines)
