"""Result analysis: tables, ASCII plots, pipeline timelines, curve metrics."""

from .ascii_plot import logx_plot
from .cpu_report import breakdown_table, categorize, cpu_breakdown
from .metrics import (
    crossover_size,
    interpolate_half_bandwidth,
    ratio_at,
    rise_rate,
    size_reaching,
)
from .tables import format_series_table, format_table
from .timeline import PacketTimeline, Stage, fig7_timeline

__all__ = [
    "PacketTimeline",
    "breakdown_table",
    "categorize",
    "cpu_breakdown",
    "Stage",
    "crossover_size",
    "fig7_timeline",
    "format_series_table",
    "format_table",
    "interpolate_half_bandwidth",
    "logx_plot",
    "ratio_at",
    "rise_rate",
    "size_reaching",
]
