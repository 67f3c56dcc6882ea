"""Result analysis: tables, ASCII plots, pipeline timelines, curve metrics."""

from .ascii_plot import logx_plot
from .cpu_report import breakdown_table, cpu_breakdown
from .metrics import interpolate_half_bandwidth, size_reaching
from .tables import format_series_table, format_table
from .timeline import PacketTimeline, Stage, fig7_timeline

__all__ = [
    "PacketTimeline",
    "breakdown_table",
    "cpu_breakdown",
    "Stage",
    "fig7_timeline",
    "format_series_table",
    "format_table",
    "interpolate_half_bandwidth",
    "logx_plot",
    "size_reaching",
]
