"""repro.obs — sim-clock telemetry: metrics registry, span tracing,
exporters.

Everything here runs on *virtual* time (never the wall clock), schedules
no simulator events, and draws no randomness — so instrumented seeded
runs stay bit-identical, and a run without an installed :class:`Obs`
records nothing at all (the zero-cost-when-disabled default).
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".metrics": "LATENCY_BUCKETS_MS Counter CounterAttr CounterVec Gauge"
                " Histogram LazyCounterAttr MetricsRegistry create_counters",
    ".trace": "Obs Span Tracer install",
    ".export": "LEG_NAMES MIGRATION_LEG_NAMES attach_leg_breakdown"
               " chrome_thread_ids mean_leg_breakdown"
               " migration_leg_breakdown spans_to_chrome spans_to_jsonl"
               " summarize",
    ".fleet": "FleetKpiStore KpiCollector",
})
