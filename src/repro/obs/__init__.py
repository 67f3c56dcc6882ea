"""Observability: structured spans, typed metrics, profiling, exporters.

This package is the measurement layer of the reproduction — the paper's
contributions *are* measurements (Figure 7's per-stage microsecond
breakdown, Section 2's interrupt accounting), so every experiment
reports its numbers through the instruments here:

* :mod:`repro.obs.span` — span-based structured tracing (``begin``/
  ``end`` with parent links and per-node/per-subsystem scopes such as
  ``node0.clic``), point instants and per-message hop records — the
  run's one record stream;
* :mod:`repro.obs.journey` — per-message causal tracing:
  :func:`journeys_of` derives from the hop records every message's
  journey send → fragment → wire → reassembly → deliver, with per-hop
  waterfalls and retransmit genealogy;
* :mod:`repro.obs.metrics` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with streaming p50/p95/p99/p99.9,
  :class:`TimeSeries` sampled on a cadence by
  :class:`TimeSeriesSampler`) behind a :class:`MetricsRegistry`;
* :mod:`repro.obs.profile` — event-loop profiling hooks for
  :class:`repro.sim.Environment` (events per process, queue high-water);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``; spans as slices, journeys as flow events, time
  series as counters) and the per-run :class:`RunArtifact` JSON.

Only :mod:`~repro.obs.metrics` and :mod:`~repro.obs.span` load with the
package, because the models record through them.  ``analyze``,
``export``, ``journey`` and ``profile`` load on first use: ``from
repro.obs import RunArtifact`` (or any other name of theirs in
``__all__``) imports the defining submodule then, so a run that never
analyses or exports pays nothing for them.

The package deliberately imports nothing from :mod:`repro.sim` so the
simulation kernel can build *on top of* the instruments (``repro.sim``
-> ``repro.obs``, never the other way).
"""

from .. import _lazy_exports
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    TimeSeriesSampler,
)
from .span import NULL_SPAN, Instant, Span, Tracer

#: public names of the analysis/export submodules, imported on first access
_LAZY = {
    "analyze": (
        "LAYERS", "CriticalPath", "PathSegment", "ScopeStat", "SpanNode",
        "critical_path", "explain_outliers", "journey_latency_summary",
        "journey_waterfall", "outlier_report", "scope_stats", "span_tree",
        "summary_table", "waterfall_table",
    ),
    "export": (
        "RUN_SCHEMA", "RunArtifact", "chrome_trace_events",
        "chrome_trace_json", "instants_of", "jsonable", "spans_of",
        "timeseries_of",
    ),
    "journey": ("journeys_of",),
    "profile": ("EnvProfiler", "aggregate_profiles"),
}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "Counter",
    "CriticalPath",
    "EnvProfiler",
    "Gauge",
    "Histogram",
    "Instant",
    "LAYERS",
    "MetricsRegistry",
    "NULL_SPAN",
    "PathSegment",
    "RUN_SCHEMA",
    "RunArtifact",
    "ScopeStat",
    "Span",
    "SpanNode",
    "TimeSeries",
    "TimeSeriesSampler",
    "Tracer",
    "aggregate_profiles",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path",
    "explain_outliers",
    "instants_of",
    "journey_latency_summary",
    "journey_waterfall",
    "journeys_of",
    "jsonable",
    "outlier_report",
    "scope_stats",
    "span_tree",
    "spans_of",
    "summary_table",
    "timeseries_of",
    "waterfall_table",
]
