"""Smoke gates: declared once beside each testbed, pure, and host-free.

Every gated bench (``chaos``, ``broker-scale``, ``broker-ha``,
``fleet-drive``, ``megaload``, ``observe``) owns one seeded smoke
configuration and one ``gates(report)`` function.  Here each is called on
a small real report (every gate passes) and on copies with exactly one
fact falsified (exactly that gate fails), and the CLI is held to turn a
failed gate into a non-zero exit from any working directory — the parent
printed ``gate skipped`` and exited 0 when its baseline file was not
under the cwd.
"""

import copy

import pytest

from repro.cli import main
from repro.emulation import chaos
from repro.testbed import broker_ha, broker_scale, fleet_drive, megaload

LTE = ("lte",)
SMALL = dict(ues=2000, sites=32, duration=30.0, tick=0.05, seed=11)


def failing(records) -> list:
    return [entry["gate"] for entry in records if not entry["pass"]]


def doctored(report, *path_and_value):
    """A deep copy of ``report`` with the value at ``path`` replaced."""
    *path, last, value = path_and_value
    out = node = copy.deepcopy(report)
    for key in path:
        node = node[key]
    node[last] = value
    return out


@pytest.fixture(scope="module")
def chaos_report():
    config = dict(chaos.SMOKE, attaches=20)
    return chaos.run_chaos(schedule=chaos.smoke_schedule(),
                           **config).to_dict()


@pytest.fixture(scope="module")
def scale_report():
    return broker_scale.run_sweep(rats=LTE, **broker_scale.SMOKE)


@pytest.fixture(scope="module")
def ha_report():
    return broker_ha.run_suite(rats=LTE, **broker_ha.SMOKE)


@pytest.fixture(scope="module")
def fleet_report():
    report, records = fleet_drive.run_fleet_suite(rats=LTE,
                                                  **fleet_drive.SMOKE)
    assert failing(records) == []
    return report


@pytest.fixture(scope="module")
def mega_report():
    report = megaload.run_megaload(**SMALL)
    report["mixed"] = megaload.run_cell(
        ues=400, sites=8, duration=20.0, seed=13, real_fraction=0.01,
        real_sites=2)
    return report


@pytest.fixture()
def mega_pin(monkeypatch, mega_report):
    """The digest pins belong to the 100k-UE smoke cell and its 20k-UE
    mixed cell; point them at the small cells so ``gates`` can run on a
    report a unit test can afford."""
    monkeypatch.setattr(megaload, "SMOKE_DIGEST",
                        mega_report["cells"][0]["digest"])
    monkeypatch.setattr(megaload, "SMOKE_MIXED_DIGEST",
                        mega_report["mixed"]["digest"])


@pytest.fixture(scope="module")
def mega_seen():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(megaload, "OBSERVE_SMOKE", SMALL)
        return megaload.observe(smoke=True)


@pytest.fixture(scope="module")
def ha_seen():
    return broker_ha.observe(LTE, smoke=True)


class TestChaosGates:
    def test_real_report_passes(self, chaos_report):
        records = chaos.gates(chaos_report, smoke=True)
        assert [r["gate"] for r in records] == [
            "unauthorized_session_seconds", "success_rate"]
        assert failing(records) == []

    def test_unauthorized_seconds_fail_any_run(self, chaos_report):
        bad = doctored(chaos_report, "unauthorized_session_seconds", 0.1)
        assert failing(chaos.gates(bad)) == ["unauthorized_session_seconds"]
        assert failing(chaos.gates(bad, smoke=True)) == [
            "unauthorized_session_seconds"]

    @pytest.mark.parametrize("rat, rate, fails", [
        ("lte", 0.95, False), ("lte", 0.949, True),
        ("5g", 0.989, True), ("5g", 0.99, False)])
    def test_success_bar_is_per_rat_and_smoke_only(self, chaos_report, rat,
                                                   rate, fails):
        bad = doctored(doctored(chaos_report, "rat", rat),
                       "success_rate", rate)
        assert failing(chaos.gates(bad, smoke=True)) == \
            (["success_rate"] if fails else [])
        assert failing(chaos.gates(bad)) == []


class TestBrokerScaleGates:
    def test_smoke_reproduces_the_pins_to_the_digit(self, scale_report):
        records = broker_scale.gates(scale_report)
        assert len(records) == 3        # serial, pipeline, speedup
        assert failing(records) == []

    def test_attaches_per_sec_off_by_a_hundredth(self, scale_report):
        value = scale_report["cells"][1]["attaches_per_sec"]
        bad = doctored(scale_report, "cells", 1, "attaches_per_sec",
                       round(value - 0.01, 2))
        assert failing(broker_scale.gates(bad)) == [
            "lte/64/pipeline/8:attaches_per_sec"]

    def test_speedup_under_the_bar(self, scale_report):
        bad = doctored(scale_report, "speedups", 0, "speedup", 2.99)
        assert failing(broker_scale.gates(bad)) == ["lte/64/8:speedup"]

    def test_cell_without_a_pin_cannot_pass(self, scale_report):
        bad = doctored(scale_report, "cells", 0, "concurrency", 63)
        assert failing(broker_scale.gates(bad)) == [
            "lte/63/serial/1:attaches_per_sec"]


class TestBrokerHaGates:
    def test_report_carries_its_gates(self, ha_report):
        assert ha_report["gates"] == broker_ha.gates(ha_report)
        assert len(ha_report["gates"]) == 5
        assert ha_report["pass"] is True

    @pytest.mark.parametrize("key, value, gate", [
        ("success_rate", 0.98, "attach_success_rate"),
        ("unauthorized_session_seconds", 0.1,
         "unauthorized_session_seconds"),
        ("replay_denied_across_failover", False,
         "replay_denied_across_failover"),
        ("failovers_total", 1, "failovers_exercised"),
        ("recovery_s", [0.7, broker_ha.RECOVERY_BOUND_S + 0.01],
         "recovery_time"),
        ("recovery_s", [], "recovery_time"),
    ])
    def test_each_fact_fails_its_gate(self, ha_report, key, value, gate):
        bad = doctored(ha_report, "cells", 0, key, value)
        assert failing(broker_ha.gates(bad)) == [f"lte:{gate}"]


class TestFleetDriveGates:
    def gates(self, report):
        return fleet_drive.gates(report, report["cells"][0]["digest"])

    def test_report_keeps_its_name_to_bool_map(self, fleet_report):
        records = self.gates(fleet_report)
        assert failing(records) == []
        assert fleet_report["gates"] == {r["gate"]: True for r in records}
        assert len(records) == 7
        assert fleet_report["pass"] is True

    def test_rerun_digest_must_match(self, fleet_report):
        assert failing(fleet_drive.gates(fleet_report, "0" * 64)) == [
            "deterministic_digest"]

    @pytest.mark.parametrize("cell, path, value, gate", [
        (0, ("probes", "replay", "ok"), False, "probes_denied"),
        (0, ("unauthorized_session_s",), 0.1, "zero_unauthorized_seconds"),
        (1, ("unauthorized_session_s",), 0.1, "zero_unauthorized_seconds"),
        (0, ("operator_handovers",), 0, "handovers_happened"),
        (1, ("broker_auth_rpcs",), 0, "scoped_beats_baseline"),
        (0, ("scope_notices", "accepted"), 0, "scope_notices_flow"),
    ])
    def test_each_fact_fails_its_gate(self, fleet_report, cell, path,
                                      value, gate):
        bad = doctored(fleet_report, "cells", cell, *path, value)
        assert failing(self.gates(bad)) == [f"lte_{gate}"]

    def test_one_scoped_auth_rpc_fails(self, fleet_report):
        bad = doctored(fleet_report, "cells", 0, "broker_auth_rpcs", 1)
        assert "lte_scoped_zero_auth_rpcs" in failing(self.gates(bad))


class TestMegaloadGates:
    def test_small_report_passes_against_its_own_digest(self, mega_report,
                                                        mega_pin):
        records = megaload.gates(mega_report)
        assert len(records) == 4
        assert failing(records) == []

    def test_the_pin_is_the_100k_cell(self, mega_report):
        assert megaload.SMOKE["ues"] == 100_000
        assert megaload.SMOKE_DIGEST.startswith("b6b306f2")
        assert megaload.SMOKE_MIXED["ues"] == 20_000
        assert failing(megaload.gates(mega_report)) == ["digest",
                                                        "mixed:digest"]

    def test_digest_one_hex_digit_off(self, mega_report, mega_pin):
        digest = mega_report["cells"][0]["digest"]
        flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        bad = doctored(mega_report, "cells", 0, "digest", flipped)
        assert failing(megaload.gates(bad)) == ["digest"]

    def test_rss_per_ue_over_the_ceiling(self, mega_report, mega_pin):
        assert megaload.MAX_RSS_PER_UE_BYTES == 512
        ok = doctored(mega_report, "cells", 0, "perf", "rss_per_ue_bytes",
                      512.0)
        bad = doctored(mega_report, "cells", 0, "perf", "rss_per_ue_bytes",
                       513.0)
        assert failing(megaload.gates(ok)) == []
        assert failing(megaload.gates(bad)) == ["rss_per_ue_bytes"]

    def test_mixed_cell_facts(self, mega_report, mega_pin):
        bad = doctored(mega_report, "mixed", "workload", "real_cohort",
                       "attach_ok", 0)
        assert failing(megaload.gates(bad)) == ["mixed:real_attaches"]
        digest = mega_report["mixed"]["digest"]
        flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        bad = doctored(mega_report, "mixed", "digest", flipped)
        assert failing(megaload.gates(bad)) == ["mixed:digest"]


class TestObserveGates:
    def test_megaload_collector_is_passive_and_costs_counted_events(
            self, mega_seen):
        records = megaload.observe_gates(mega_seen)
        assert failing(records) == []
        events = next(r for r in records if r["gate"] == "collector_events")
        assert events["value"] == len(mega_seen["store"].rows) - 1 > 0

    def test_megaload_event_delta_off_by_one(self, mega_seen):
        bare = mega_seen["bare"]["perf"]["events_processed"]
        for delta in (-1, 1):
            bad = dict(mega_seen, bare=doctored(
                mega_seen["bare"], "perf", "events_processed", bare + delta))
            assert failing(megaload.observe_gates(bad)) == [
                "collector_events"]

    def test_megaload_kpi_json_and_digest(self, mega_seen):
        bad = dict(mega_seen,
                   rerun_kpi_json=mega_seen["rerun_kpi_json"] + " ")
        assert failing(megaload.observe_gates(bad)) == [
            "kpi_json_identical_across_runs"]
        bad = dict(mega_seen, bare=doctored(mega_seen["bare"], "digest",
                                            "0" * 64))
        assert failing(megaload.observe_gates(bad)) == [
            "digest_equals_collector_free_run"]

    def test_broker_ha_kpi_json(self, ha_seen):
        assert ha_seen["config"]["attaches"] == \
            broker_ha.SMOKE["attaches"]
        assert failing(broker_ha.observe_gates(ha_seen)) == []
        bad = dict(ha_seen, rerun_kpi_json=["{}"])
        assert failing(broker_ha.observe_gates(bad)) == [
            "lte:kpi_json_identical_across_runs"]


class TestSmokeExitCodeFromAnyDirectory:
    """The regression: ``--smoke`` run outside the repo root used to find
    no baseline file, print ``gate skipped`` and exit 0."""

    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        assert "gate skipped" not in out
        assert ("FAIL" in out) == (code != 0)
        return code

    @pytest.fixture(autouse=True)
    def elsewhere(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_chaos(self, chaos_report, monkeypatch, capsys):
        class Result:
            def __init__(self, payload):
                self.__dict__.update(payload)
                self.to_dict = lambda: dict(payload)

        for payload, code in (
                (chaos_report, 0),
                (doctored(chaos_report, "success_rate", 0.5), 1)):
            monkeypatch.setattr(chaos, "run_chaos",
                                lambda **kw: Result(payload))
            assert self.run(["chaos", "--smoke"], capsys) == code

    def test_broker_scale(self, scale_report, monkeypatch, capsys):
        argv = ["broker-scale", "--smoke", "--rat", "lte"]
        monkeypatch.setattr(broker_scale, "run_sweep",
                            lambda **kw: scale_report)
        assert self.run(argv, capsys) == 0
        monkeypatch.setitem(broker_scale.SMOKE_ATTACHES_PER_SEC,
                            "lte/64/serial/1", 198.71)
        assert self.run(argv, capsys) == 1

    def test_broker_ha(self, ha_report, monkeypatch, capsys):
        argv = ["broker-ha", "--smoke", "--rat", "lte"]
        monkeypatch.setattr(broker_ha, "run_cell",
                            lambda rat, **kw: ha_report["cells"][0])
        assert self.run(argv, capsys) == 0
        bad = doctored(ha_report, "cells", 0,
                       "replay_denied_across_failover", False)
        monkeypatch.setattr(broker_ha, "run_cell",
                            lambda rat, **kw: bad["cells"][0])
        assert self.run(argv, capsys) == 1

    def test_fleet_drive(self, fleet_report, monkeypatch, capsys):
        argv = ["fleet-drive", "--smoke", "--rat", "lte"]
        cells = iter(fleet_report["cells"] + fleet_report["cells"][:1])
        monkeypatch.setattr(fleet_drive, "run_fleet_drive",
                            lambda **kw: next(cells))
        assert self.run(argv, capsys) == 0
        bad = doctored(fleet_report, "cells", 0, "probes", "expired", "ok",
                       False)
        cells = iter(bad["cells"] + bad["cells"][:1])
        assert self.run(argv, capsys) == 1

    def test_megaload(self, mega_report, monkeypatch, capsys):
        monkeypatch.setattr(megaload, "smoke",
                            lambda kpi_store=None: mega_report)
        assert self.run(["megaload", "--smoke"], capsys) == 1   # digests
        monkeypatch.setattr(megaload, "SMOKE_DIGEST",
                            mega_report["cells"][0]["digest"])
        assert self.run(["megaload", "--smoke"], capsys) == 1   # mixed
        monkeypatch.setattr(megaload, "SMOKE_MIXED_DIGEST",
                            mega_report["mixed"]["digest"])
        assert self.run(["megaload", "--smoke"], capsys) == 0

    def test_observe(self, mega_seen, ha_seen, monkeypatch, capsys):
        monkeypatch.setattr(megaload, "observe", lambda **kw: mega_seen)
        assert self.run(["observe", "--smoke"], capsys) == 0
        bad = dict(ha_seen, rerun_kpi_json=["{}"])
        monkeypatch.setattr(broker_ha, "observe", lambda *a, **kw: bad)
        assert self.run(["observe", "--bench", "broker-ha", "--smoke",
                         "--rat", "lte"], capsys) == 1
