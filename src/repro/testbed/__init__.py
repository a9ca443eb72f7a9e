"""§6.1 prototype-benchmark harness (testbed topology + attach latency)."""

from .attach_bench import (
    ARCH_BASELINE,
    ARCH_CELLBRICKS,
    AttachBenchmarkResult,
    AttachSample,
    run_attach_benchmark,
    run_figure7,
    run_traced_attach,
)
from .megaload import MegaloadWorkload, run_megaload
from .megaload import run_cell as run_megaload_cell
from .placement import PLACEMENTS, TestbedTopology
from .traced_drive import run_traced_drive

__all__ = [
    "MegaloadWorkload",
    "run_megaload",
    "run_megaload_cell",
    "ARCH_BASELINE",
    "ARCH_CELLBRICKS",
    "AttachBenchmarkResult",
    "AttachSample",
    "PLACEMENTS",
    "TestbedTopology",
    "run_attach_benchmark",
    "run_figure7",
    "run_traced_attach",
    "run_traced_drive",
]
