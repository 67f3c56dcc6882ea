"""Plain-text tables for experiment output.

Every experiment prints its results as a table whose rows mirror what
the paper reports, so EXPERIMENTS.md can be regenerated by running the
benchmarks and pasting.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_series_table"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table (floats to one decimal)."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append(
            [f"{v:.1f}" if isinstance(v, float) else str(v) for v in row]
        )
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers {headers!r}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(series_list, title: Optional[str] = None) -> str:
    """Tabulate several SweepSeries against their common size grid."""
    if not series_list:
        raise ValueError("no series")
    sizes = series_list[0].sizes
    for s in series_list:
        if s.sizes != sizes:
            raise ValueError("series measured on different size grids")
    headers = ["bytes"] + [s.label for s in series_list]
    rows = []
    for i, n in enumerate(sizes):
        rows.append([n] + [round(s.mbps[i], 1) for s in series_list])
    return format_table(headers, rows, title=title)
