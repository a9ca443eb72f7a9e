"""Megaload workload + the bugfix sweep that rode along with it.

Covers the population-scale harness (determinism, parity with the
reference engine, workload sanity), the adaptive broker batch window, and the fixes the
megaload drive surfaced: the ``links=None`` dataclass default, silent
attach-failure swallowing, and the O(n) AMBR bearer scan.
"""

import hashlib
import json

import pytest

from repro.core.broker import AdaptiveBatchWindow
from repro.core.mobility import CellBricksNetwork, MobilityManager
from repro.lte.bearer import SgwPgw
from repro.net import Simulator
from repro.testbed.megaload import (
    MegaloadWorkload,
    run_cell,
    run_megaload,
)

# Small enough to keep the suite fast, large enough for every lifecycle
# path (retries, idle detaches, multi-segment mobility) to fire.
SMALL = dict(ues=2000, sites=32, duration=30.0, tick=0.05, seed=11)


class HeapPerWake:
    """Reference engine: every wake is its own simulator event, popped
    in (time, schedule order), and its own one-pair tick — the model the
    tick calendar must equal."""

    def __init__(self, sim, tick, dispatch):
        self.sim, self.tick, self.dispatch = sim, tick, dispatch

    def wake(self, idx, key, code=0):
        self.sim.schedule_at(idx * self.tick, self._one, idx, key, code)

    def _one(self, idx, key, code):
        self.dispatch(idx, [key], [code])


class ReferenceWorkload(MegaloadWorkload):
    engine_class = HeapPerWake


class ScriptOnly:
    """An engine that keeps the arrival wakes and runs nothing."""

    def __init__(self, sim, tick, dispatch):
        self.wakes = []

    def wake(self, idx, key, code=0):
        self.wakes.append((idx, key, code))


class ScriptedWorkload(MegaloadWorkload):
    engine_class = ScriptOnly


class TestAdaptiveBatchWindow:
    def test_starts_at_min_window(self):
        window = AdaptiveBatchWindow(min_window=0.0002, max_window=0.008)
        assert window.window() == 0.0002

    def test_tracks_sustained_arrival_rate(self):
        # 100 us inter-arrival gap, full_size 32 -> ~3.2 ms window
        # (stretch to fill a batch under sustained load, Nagle-style).
        window = AdaptiveBatchWindow(min_window=0.0002, max_window=0.008,
                                     full_size=32)
        for i in range(200):
            window.observe(i * 0.0001)
        assert window.window() == pytest.approx(0.0032, rel=0.05)

    def test_clamps_to_max_window(self):
        window = AdaptiveBatchWindow(min_window=0.0002, max_window=0.008,
                                     full_size=32)
        for i in range(50):
            window.observe(i * 0.002)   # 2 ms gaps -> 64 ms unclamped
        assert window.window() == 0.008

    def test_sparse_arrivals_collapse_to_min(self):
        # Gaps at/above max_window mean batching can't help: the next
        # request won't arrive within any permissible window, so waiting
        # only adds latency.
        window = AdaptiveBatchWindow(min_window=0.0002, max_window=0.008)
        for i in range(50):
            window.observe(i * 0.5)
        assert window.window() == 0.0002

    def test_full_triggers_at_full_size(self):
        window = AdaptiveBatchWindow(full_size=8)
        assert not window.full(7)
        assert window.full(8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(min_window=0.01, max_window=0.001)
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(full_size=0)


class TestNetworkLinksDefault:
    """``links`` used to default to None (mutable-default workaround gone
    wrong): hand-constructed networks crashed every caller that iterated
    ``network.links`` (the chaos harness, the megaload sweep)."""

    def test_lte_network_defaults_to_empty_dict(self):
        network = CellBricksNetwork(
            sim=Simulator(), ca=None, broker_host=None, brokerd=None,
            sites={}, ue_host=None, credentials=None)
        assert network.links == {}
        for _name, _link in network.links.items():   # the crashing idiom
            pass

    def test_5g_network_defaults_to_empty_dict(self):
        network = CellBricksNetwork(
            sim=Simulator(), ca=None, broker_host=None, brokerd=None,
            sites={}, ue_host=None, credentials=None, rat="5g")
        assert network.links == {}

    def test_default_dicts_are_not_shared(self):
        first = CellBricksNetwork(
            sim=Simulator(), ca=None, broker_host=None, brokerd=None,
            sites={}, ue_host=None, credentials=None)
        second = CellBricksNetwork(
            sim=Simulator(), ca=None, broker_host=None, brokerd=None,
            sites={}, ue_host=None, credentials=None)
        first.links["x"] = object()
        assert second.links == {}


class _FakeResult:
    def __init__(self, success, cause="", latency=0.01, ue_ip="10.128.0.2"):
        self.success = success
        self.cause = cause
        self.latency = latency
        self.ue_ip = ue_ip


class TestAttachFailureAccounting:
    def _manager(self):
        network = CellBricksNetwork(
            sim=Simulator(), ca=None, broker_host=None, brokerd=None,
            sites={}, ue_host=None, credentials=None)
        return MobilityManager(network)

    def test_failures_are_counted_not_swallowed(self):
        manager = self._manager()
        manager._attach_done(_FakeResult(False, cause="quota_exceeded"))
        manager._attach_done(_FakeResult(False, cause="quota_exceeded"))
        manager._attach_done(_FakeResult(False))
        assert manager.attach_failures == 3
        assert manager.failure_causes == {"quota_exceeded": 2,
                                          "unspecified": 1}
        assert manager.attach_latencies == []   # no phantom latency rows

    def test_on_failed_hook_fires_with_site_and_result(self):
        manager = self._manager()
        seen = []
        manager.on_failed = lambda site, result: seen.append((site, result))
        result = _FakeResult(False, cause="denied")
        manager._attach_done(result)
        assert seen == [(None, result)]

    def test_success_path_untouched(self):
        manager = self._manager()
        attached = []
        manager.on_attached = lambda site, result: attached.append(result)
        manager._attach_done(_FakeResult(True, latency=0.042))
        assert manager.attach_failures == 0
        assert manager.attach_latencies == [0.042]
        assert len(attached) == 1


class TestBearerIpIndex:
    def test_bearer_by_ip_round_trip(self):
        spgw = SgwPgw()
        bearer = spgw.create_default_bearer("alice", qci=9,
                                            ambr_dl_bps=1e7,
                                            ambr_ul_bps=1e6)
        assert spgw.bearer_by_ip(bearer.ue_ip) is bearer
        assert spgw.bearer_by_ip("10.99.0.1") is None

    def test_deleted_bearer_drops_out_of_index(self):
        spgw = SgwPgw()
        bearer = spgw.create_default_bearer("alice", qci=9,
                                            ambr_dl_bps=1e7,
                                            ambr_ul_bps=1e6)
        spgw.delete_bearer(bearer.ebi)
        assert spgw.bearer_by_ip(bearer.ue_ip) is None

    def test_reattach_reindexes(self):
        spgw = SgwPgw()
        first = spgw.create_default_bearer("alice", qci=9,
                                           ambr_dl_bps=1e7,
                                           ambr_ul_bps=1e6)
        second = spgw.create_default_bearer("alice", qci=9,
                                            ambr_dl_bps=2e7,
                                            ambr_ul_bps=2e6)
        assert spgw.bearer_by_ip(second.ue_ip) is second
        assert first.ue_ip == second.ue_ip or \
            spgw.bearer_by_ip(first.ue_ip) is None


class TestMegaload:
    def test_same_seed_same_digest(self):
        first = run_cell(**SMALL)
        second = run_cell(**SMALL)
        assert first["digest"] == second["digest"]
        assert first["workload"] == second["workload"]

    def test_engine_parity_with_reference_engine(self):
        # The tick calendar changes execution mechanics, never simulated
        # behavior: one heap event per occupied tick must replay *exactly*
        # what one heap event per wake does — under the adaptive broker
        # window, with and without batches that fill before their timer,
        # and on a coarser grid.
        for change, full_flushes in ((dict(), False), (dict(tick=0.1), False),
                                     (dict(ues=20_000), True)):
            config = dict(SMALL, **change)
            reference = ReferenceWorkload(**config).run()
            calendar = run_cell(**config)
            assert reference["workload"] == calendar["workload"]
            assert reference["digest"] == calendar["digest"]
            assert (calendar["workload"]["broker_full_flushes"] > 0) \
                == full_flushes
            # ... at a fraction of the heap traffic.
            assert reference["perf"]["events_scheduled"] > \
                5 * calendar["perf"]["events_scheduled"]
            if not change:
                # The capacity / retry / give-up branch of the tick loop
                # is on the compared path, not only the happy one.
                assert calendar["workload"]["retries"] > 0
                assert calendar["workload"]["gave_up"] > 0

    @pytest.mark.parametrize("rat", ["lte", "5g"])
    def test_engine_parity_with_a_real_cohort(self, rat):
        # A_REAL_* wakes leave the tick loop for the cohort, whose attach
        # completions come back off the tick grid.
        reference = ReferenceWorkload(real_rat=rat, **MIXED).run()
        calendar = run_cell(real_rat=rat, **MIXED)
        assert reference["workload"] == calendar["workload"]
        assert calendar["workload"]["real_cohort"]["attach_ok"] > 0

    def test_workload_exercises_every_lifecycle_path(self):
        cell = run_cell(**SMALL)
        workload = cell["workload"]
        assert workload["arrived"] == SMALL["ues"]
        assert workload["attach_ok"] > 0
        assert workload["moves"] > 0
        assert workload["idle_detaches"] > 0
        assert workload["broker_batches"] > 0
        assert workload["attach_ms_p99"] >= workload["attach_ms_p50"] > 0
        # Conservation: every arrival either departed, idled out, is
        # still attached at horizon, or gave up after its retry.
        assert workload["attach_ok"] <= workload["broker_requests"]

    def test_report_structure(self):
        report = run_megaload(**SMALL)
        assert set(report) == {"bench", "config", "cells"}
        (cell,) = report["cells"]
        assert set(cell) == {"workload", "digest", "perf"}
        assert cell["perf"]["events_processed"] > 0
        assert cell["perf"]["build_s"] > 0      # reported, never hashed
        assert cell["workload"]["adaptive_window"] is True

    @pytest.mark.parametrize("sites, pinned", [
        (32, "f2935dd9f9737563acb99ce0cb48a0f3"
             "ad8e8cac026a057ffc600d2947fb1958"),
        # 5 sites: getrandbits(3) draws 5..7 too, so the rejection loop
        # of the hand-rolled randrange is on the pinned path.
        (5, "a954db2cf877275ec8c061157c6482c9"
            "ef1e448705345d0aafd62d7df2e99782"),
    ])
    def test_script_is_pinned_not_only_its_outcome(self, sites, pinned):
        # Recorded at the commit that still drew through rng.uniform /
        # rng.randrange / policy.is_night.  The outcome digest can miss a
        # changed poke gap that no idle timer happens to observe.
        workload = ScriptedWorkload(**dict(SMALL, sites=sites))
        script = json.dumps([workload.script_codes.tolist(),
                             workload.script_off.tolist(),
                             workload.engine.wakes])
        assert hashlib.sha256(script.encode()).hexdigest() == pinned

    def test_wake_code_fields_are_bounded_at_construction(self, monkeypatch):
        # Idle tokens and epochs are OR'ed unmasked into 10-bit fields: a
        # script that could overflow them fails here instead of silently
        # cancelling the wrong timer.
        from repro.testbed import megaload
        workload = MegaloadWorkload(**SMALL)
        workload.run()
        assert 0 < max(workload.ue_idle_token) <= \
            (1 + megaload.MAX_POKES_PER_SEGMENT) * megaload.MAX_SEGMENTS
        assert 0 < max(workload.ue_epoch) <= megaload.MAX_SEGMENTS
        monkeypatch.setattr(megaload, "MAX_POKES_PER_SEGMENT", 254)
        MegaloadWorkload(**SMALL)           # (1 + 254) * 4 = 1020 fits
        monkeypatch.setattr(megaload, "MAX_POKES_PER_SEGMENT", 255)
        with pytest.raises(ValueError, match="10-bit"):
            MegaloadWorkload(**SMALL)

    def test_rejects_unknown_engine(self):
        # The ledger's frozen caller still names the one engine; any
        # other value of its three keywords selects nothing and raises.
        MegaloadWorkload(engine="optimized", adaptive=True,
                         compaction=True, **SMALL)
        for words in (dict(engine="warp"), dict(engine="legacy"),
                      dict(adaptive=False), dict(compaction=False)):
            with pytest.raises(ValueError):
                MegaloadWorkload(**words, **SMALL)


class TestRssUnits:
    """``ru_maxrss`` is KiB on Linux but bytes on macOS — the report
    must normalize per platform instead of guessing from magnitude."""

    def test_linux_maxrss_is_kib(self):
        from repro.testbed.megaload import _rss_bytes
        assert _rss_bytes(2048, platform="linux") == 2048 * 1024.0

    def test_darwin_maxrss_is_bytes(self):
        from repro.testbed.megaload import _rss_bytes
        assert _rss_bytes(2048, platform="darwin") == 2048.0

    def test_large_linux_value_not_misread_as_bytes(self):
        from repro.testbed.megaload import _rss_bytes
        # 32 GiB in KiB units: the old magnitude heuristic flipped to
        # byte units here and under-reported by 1024x.
        raw_kib = 32 * 1024 * 1024 * 1024 // 1024
        assert _rss_bytes(raw_kib, platform="linux") == \
            32 * 1024 ** 3 * 1.0


# A mixed-fidelity micro-cell: 4 real UEs riding a 400-UE scripted
# population (big enough for moves/failures, small enough for CI).
MIXED = dict(ues=400, sites=8, duration=20.0, tick=0.05, seed=13,
             real_fraction=0.01, real_sites=2)


class TestMixedFidelity:
    @pytest.mark.parametrize("rat", ["lte", "5g"])
    def test_two_seeded_runs_identical(self, rat):
        first = run_cell(real_rat=rat, **MIXED)
        second = run_cell(real_rat=rat, **MIXED)
        assert first["digest"] == second["digest"]
        assert first["workload"]["real_cohort"] == \
            second["workload"]["real_cohort"]
        assert first["workload"] == second["workload"]

    def test_cohort_runs_the_real_attach_path(self):
        cell = run_cell(**MIXED)
        cohort = cell["workload"]["real_cohort"]
        assert cohort["count"] == 4          # round(400 * 0.01)
        assert cohort["arrived"] == 4
        assert cohort["attach_ok"] > 0
        assert cohort["broker_pipeline_requests"] > 0
        if cohort["attach_ok"]:
            assert cohort["attach_ms_p99"] >= cohort["attach_ms_p50"] > 0

    def test_real_fraction_zero_keeps_plain_report(self):
        cell = run_cell(**SMALL)
        assert "real_cohort" not in cell["workload"]
        assert "real_fraction" not in cell["workload"]

    def test_rejects_bad_real_fraction(self):
        with pytest.raises(ValueError):
            run_cell(real_fraction=1.5, **SMALL)

    def test_rejects_unknown_rat(self):
        bad = dict(MIXED)
        bad["real_rat"] = "6g"
        with pytest.raises(ValueError):
            run_cell(**bad)
