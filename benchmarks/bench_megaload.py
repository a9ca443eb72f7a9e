"""XTRA-MEGALOAD — the event engine under a population-scale workload.

The paper's premise only matters at population scale, so this drives
the discrete-event core with hundreds of bTelco sites and 10^5
scripted UEs (arrival/mobility/diurnal models) on the tick calendar
and prints what it cost.  Acceptance shape: the whole population
arrives, attaches, moves and departs.  (Determinism and parity with the
one-heap-event-per-wake reference engine are tier-1,
``tests/test_megaload.py``; wall time is compared by the ledger.)
"""

from conftest import bench_scale, print_header

from repro.testbed.megaload import run_megaload


def test_megaload_population(benchmark):
    ues = 100_000 if bench_scale() >= 1.0 else 20_000
    report = benchmark.pedantic(run_megaload, kwargs=dict(ues=ues),
                                rounds=1, iterations=1)
    print_header("XTRA-MEGALOAD - population-scale workload")
    print(f"{'UEs/s':>10s} {'wall s':>8s} {'s/sim-s':>9s} "
          f"{'RSS MB':>8s} {'events':>9s}")
    (cell,) = report["cells"]
    perf = cell["perf"]
    print(f"{perf['ues_per_sec']:10.0f} {perf['wall_s']:8.2f} "
          f"{perf['wall_per_sim_second']:9.5f} "
          f"{perf['peak_rss_mb']:8.1f} {perf['events_processed']:9d}")
    assert cell["workload"]["arrived"] == ues
    assert cell["workload"]["attach_ok"] > 0
    assert cell["workload"]["moves"] > 0
    assert cell["workload"]["departed"] > 0

