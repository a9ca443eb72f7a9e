"""§6.1 prototype-benchmark harness (testbed topology + attach latency)."""

from repro import lazy_exports

lazy_exports(globals(), {
    ".attach_bench": "ARCH_BASELINE ARCH_CELLBRICKS AttachBenchmarkResult"
                     " AttachSample run_attach_benchmark run_figure7"
                     " run_traced_attach",
    ".megaload": "MegaloadWorkload run_megaload",
    ".placement": "PLACEMENTS TestbedTopology",
    ".traced_drive": "run_traced_drive",
}, run_megaload_cell=(".megaload", "run_cell"))
