"""repro.obs — sim-clock telemetry: metrics registry, span tracing,
exporters.

Everything here runs on *virtual* time (never the wall clock), schedules
no simulator events, and draws no randomness — so instrumented seeded
runs stay bit-identical, and a run without an installed :class:`Obs`
records nothing at all (the zero-cost-when-disabled default).
"""

from .metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    CounterAttr,
    CounterVec,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import Obs, Span, Tracer, install
from .export import (
    LEG_NAMES,
    MIGRATION_LEG_NAMES,
    attach_leg_breakdown,
    chrome_thread_ids,
    mean_leg_breakdown,
    migration_leg_breakdown,
    spans_to_chrome,
    spans_to_jsonl,
    summarize,
    write_chrome,
    write_jsonl,
)
from .fleet import FleetKpiStore, KpiCollector

__all__ = [
    "FleetKpiStore",
    "KpiCollector",
    "LATENCY_BUCKETS_MS",
    "LEG_NAMES",
    "MIGRATION_LEG_NAMES",
    "Counter",
    "CounterAttr",
    "CounterVec",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "Span",
    "Tracer",
    "attach_leg_breakdown",
    "chrome_thread_ids",
    "install",
    "mean_leg_breakdown",
    "migration_leg_breakdown",
    "spans_to_chrome",
    "spans_to_jsonl",
    "summarize",
    "write_chrome",
    "write_jsonl",
]
