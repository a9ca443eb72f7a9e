"""Determinism of the telemetry layer.

Two identically-seeded runs must produce *byte-identical* JSONL traces:
the tracer is passive (no scheduled events, no randomness, virtual
timestamps only) and id allocation is a plain counter, so any divergence
means instrumentation perturbed the simulation.
"""

from repro.emulation import ChaosSchedule, brownout, outage, run_chaos
from repro.obs import Obs, spans_to_jsonl
from repro.testbed import ARCH_CELLBRICKS, run_traced_attach


def _chaos_trace(seed: int, rat: str = "lte") -> tuple:
    schedule = ChaosSchedule()
    schedule.add(outage(2.0, 1.5, target="*-broker"))
    schedule.add(brownout(5.0, 1.5))
    obs = Obs()
    report = run_chaos(attaches=40, schedule=schedule, revoke_every=10,
                       seed=seed, base_loss=0.05, obs=obs, rat=rat)
    return report, spans_to_jsonl(obs.tracer.spans())


class TestByteIdenticalTraces:
    def test_seeded_chaos_runs_produce_identical_jsonl(self):
        report_a, jsonl_a = _chaos_trace(seed=7)
        report_b, jsonl_b = _chaos_trace(seed=7)
        assert jsonl_a  # non-trivial trace
        assert jsonl_a == jsonl_b
        assert report_a.to_dict() == report_b.to_dict()

    def test_seeded_attach_traces_identical(self):
        runs = []
        for _ in range(2):
            _, obs, _ = run_traced_attach(arch=ARCH_CELLBRICKS,
                                          placement="us-west-1", trials=5)
            runs.append(spans_to_jsonl(obs.tracer.spans()))
        assert runs[0] == runs[1]

    def test_tracing_does_not_perturb_the_chaos_run(self):
        """The same seed with tracing off yields the same report."""
        schedule = ChaosSchedule()
        schedule.add(outage(2.0, 1.5, target="*-broker"))
        schedule.add(brownout(5.0, 1.5))
        untraced = run_chaos(attaches=40, schedule=schedule,
                             revoke_every=10, seed=7, base_loss=0.05)
        traced, _ = _chaos_trace(seed=7)
        assert untraced.to_dict() == traced.to_dict()
