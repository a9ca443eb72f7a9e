"""Fleet observatory tests: KPI collection + data-path span tracing.

Covers the observability PR's acceptance bars:

* the traced mobility drive's migration legs (re-auth, transport
  re-establish, drain) sum *exactly* to the end-to-end stall on both
  RATs, and two seeded runs export byte-identical traces;
* the chrome exporter's pid/tid assignment is stable and collision-free
  across runs;
* the KPI collector is passive (a collected megaload replays the exact
  collector-free workload digest) and deterministic (two seeded runs
  emit byte-identical KPI JSON);
* windowed counter deltas, rates, and gauges behave per spec.
"""

import json

import pytest

from repro.net import Simulator
from repro.obs import MIGRATION_LEG_NAMES
from repro.obs.export import (
    chrome_thread_ids,
    migration_leg_breakdown,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.obs.fleet import FleetKpiStore, KpiCollector
from repro.testbed.traced_drive import run_traced_drive


# -- KPI collector ------------------------------------------------------------

class TestKpiCollector:
    def _collector(self, interval=1.0, horizon=None):
        sim = Simulator()
        store = FleetKpiStore("t")
        collector = KpiCollector(sim, store, interval=interval,
                                 horizon=horizon)
        return sim, store, collector

    def test_counter_probe_windows_deltas_and_rates(self):
        sim, store, collector = self._collector(interval=2.0)
        state = {"served": 0}
        collector.add_counter_probe("b", lambda: dict(state))
        collector.start()
        sim.schedule(0.5, lambda: state.__setitem__("served", 3))
        sim.schedule(2.5, lambda: state.__setitem__("served", 10))
        sim.schedule(4.5, lambda: None)   # keep the sim alive to t=4.5
        sim.run(until=5.0)
        assert [row["b.served"] for row in store.rows] == [3, 7]
        assert [row["b.served_per_s"] for row in store.rows] == [1.5, 3.5]

    def test_gauge_probe_samples_levels(self):
        sim, store, collector = self._collector()
        level = {"v": 4}
        collector.add_gauge_probe("g", lambda: dict(depth=level["v"]))
        collector.start()
        sim.schedule(1.5, lambda: level.__setitem__("v", 9))
        sim.schedule(2.5, lambda: None)
        sim.run(until=2.7)
        assert [row["g.depth"] for row in store.rows] == [4, 9]

    def test_stop_flushes_partial_window(self):
        sim, store, collector = self._collector(interval=10.0)
        state = {"n": 0}
        collector.add_counter_probe("c", lambda: dict(state))
        collector.start()
        sim.schedule(1.0, lambda: state.__setitem__("n", 5))
        sim.run(until=2.0)
        assert store.rows == []
        collector.stop()
        assert len(store.rows) == 1
        assert store.rows[0]["c.n"] == 5
        assert store.rows[0]["window_s"] == 2.0

    def test_collector_does_not_keep_sim_alive(self):
        """Daemon-like ticking: once the workload drains, an unbounded
        run() terminates even though the collector was still armed."""
        sim, store, collector = self._collector(interval=0.5)
        collector.add_gauge_probe("g", lambda: {"x": 1})
        collector.start()
        sim.schedule(1.2, lambda: None)
        sim.run()   # no `until`: would hang if ticks re-armed forever
        assert sim.now < 2.5
        assert len(store.rows) >= 2

    def test_horizon_bounds_sampling(self):
        sim, store, collector = self._collector(interval=1.0, horizon=3.0)
        collector.add_gauge_probe("g", lambda: {"x": 1})
        collector.start()
        sim.schedule(100.0, lambda: None)   # long-tail cleanup event
        sim.run()
        assert all(row["t"] <= 3.0 for row in store.rows)

class TestFleetKpiStore:
    def _store(self):
        store = FleetKpiStore("s")
        store.record({"t": 1.0, "window_s": 1.0, "a.x": 2, "a.y": 5.0})
        store.record({"t": 2.0, "window_s": 1.0, "a.x": 4})
        return store

    def test_keys_series_summary(self):
        store = self._store()
        assert store.keys() == ["a.x", "a.y"]
        assert store.series("a.x") == [2, 4]
        assert store.series("a.y") == [5.0, 0]   # missing -> 0
        assert store.summary()["a.x"] == {"min": 2, "max": 4, "mean": 3.0}

    def test_json_roundtrip_sorted_and_newline_terminated(self):
        payload = self._store().to_json()
        assert payload.endswith("\n")
        decoded = json.loads(payload)
        assert decoded["windows"] == 2
        assert list(decoded["summary"]) == sorted(decoded["summary"])

    def test_dashboard_and_html_render(self):
        store = self._store()
        dash = store.dashboard()
        assert "a.x" in dash and "max=4.00" in dash
        html = store.to_html()
        assert "<svg" in html and "a.y" in html


# -- passive collection over megaload ----------------------------------------

MEGA = dict(ues=1500, sites=16, duration=15.0, seed=5)


class TestMegaloadCollection:
    def test_collected_digest_equals_bare_digest(self):
        """The collector is read-only: attaching it must not perturb the
        deterministic workload outcome at all."""
        from repro.testbed.megaload import run_cell

        bare = run_cell(**MEGA)
        store = FleetKpiStore("m")
        collected = run_cell(kpi_store=store, **MEGA)
        assert collected["digest"] == bare["digest"]
        assert len(store.rows) > 0
        assert any(row.get("workload.attach_ok", 0) > 0
                   for row in store.rows)

    def test_kpi_json_byte_identical_across_runs(self):
        from repro.testbed.megaload import run_cell

        stores = []
        for _ in range(2):
            store = FleetKpiStore("m")
            run_cell(kpi_store=store, **MEGA)
            stores.append(store)
        assert stores[0].to_json() == stores[1].to_json()


# -- traced mobility drive ----------------------------------------------------

class TestTracedDrive:
    @pytest.fixture(scope="class")
    def lte(self):
        return run_traced_drive("lte", obs=None)

    @pytest.fixture(scope="class")
    def fiveg(self):
        return run_traced_drive("5g", obs=None)

    def test_lte_legs_sum_exactly(self, lte):
        assert lte["pass"], lte["gates"]
        legs = lte["legs"]
        assert legs["transport"] == "mptcp.subflow_establish"
        total = sum(legs[name] for name in MIGRATION_LEG_NAMES)
        assert total == pytest.approx(legs["total_ms"], abs=1e-9)
        assert legs["total_ms"] == pytest.approx(lte["stall_ms"], abs=1e-6)

    def test_5g_legs_sum_exactly(self, fiveg):
        assert fiveg["pass"], fiveg["gates"]
        legs = fiveg["legs"]
        assert legs["transport"] == "quic.path_validation"
        total = sum(legs[name] for name in MIGRATION_LEG_NAMES)
        assert total == pytest.approx(legs["total_ms"], abs=1e-9)

    def test_traffic_resumes_after_switch(self, lte, fiveg):
        for report in (lte, fiveg):
            assert report["deliveries_before_switch"] > 0
            assert report["deliveries_after_switch"] > 0


class TestTraceExportRoundtrip:
    @pytest.fixture(scope="class")
    def runs(self):
        from repro.obs import Obs

        out = []
        for _ in range(2):
            obs = Obs(tracing=True)
            run_traced_drive("lte", obs=obs)
            out.append(obs.tracer.spans())
        return out

    def test_jsonl_schema_and_byte_identity(self, runs):
        payloads = [spans_to_jsonl(spans) for spans in runs]
        assert payloads[0] == payloads[1]
        for line in payloads[0].splitlines():
            record = json.loads(line)
            for key in ("trace_id", "span_id", "parent_id", "name",
                        "node", "start", "kind"):
                assert key in record

    def test_chrome_tids_stable_and_collision_free(self, runs):
        tids = [chrome_thread_ids(spans) for spans in runs]
        assert tids[0] == tids[1]
        values = list(tids[0].values())
        assert len(values) == len(set(values))   # one tid per node
        chromes = [spans_to_chrome(spans) for spans in runs]
        assert chromes[0] == chromes[1]
        span_events = [event for event in chromes[0]["traceEvents"]
                       if event["ph"] != "M"]
        assert all(event["pid"] == 1 for event in span_events)
        assert {event["tid"] for event in span_events} <= set(values)

    def test_migration_breakdown_from_exported_spans(self, runs):
        breakdowns = [migration_leg_breakdown(spans) for spans in runs]
        assert breakdowns[0] == breakdowns[1]
        assert len(breakdowns[0]) == 1


# -- broker-ha trace instants -------------------------------------------------

class TestBrokerHaInstants:
    def test_failover_instants_recorded(self):
        """A broker-ha drill under trace records the frontend's failover
        story: detection, promotion, and degraded reroutes land as
        instants (the degraded path's instants nest in attach traces)."""
        from repro.obs import Obs
        from repro.testbed.broker_ha import run_cell

        obs = Obs(tracing=True)
        cell = run_cell("lte", attaches=40, obs=obs)
        assert cell["failovers_total"] >= 2
        names = {span.name for span in obs.tracer.spans()}
        assert "broker.failover" in names
        assert "broker.promoted" in names

    def test_shard_stats_surface_replication_gauges(self):
        from repro.testbed.broker_ha import run_cell

        store = FleetKpiStore("ha")
        run_cell("lte", attaches=40, kpi_store=store)
        keys = set(store.keys())
        assert any(key.endswith("repl_lag_s") for key in keys)
        assert any(key.endswith("repl_backlog_ops") for key in keys)
        assert any(key.endswith("health") for key in keys)
