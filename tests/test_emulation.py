"""Tests for the §6.2 emulation harness: routes, radio, paired scenarios."""

import pytest

from repro.emulation import (
    ARCH_CELLBRICKS,
    ARCH_MNO,
    CapacityProcess,
    EmulationConfig,
    PairedEmulation,
    ROUTES,
    generate_handover_schedule,
)
from repro.emulation.radio import HANDOVER_WARMUP_S, MIN_HANDOVER_SPACING
from repro.analysis.stats import mean, stddev
from repro.net import Simulator


class TestRoutes:
    def test_all_routes_have_both_conditions(self):
        for route in ROUTES.values():
            assert route.day.policed_rate_bps is not None
            assert route.night.policed_rate_bps is None

    def test_mttho_matches_table1_calibration(self):
        assert ROUTES["suburb"].day.mttho_s == 73.50
        assert ROUTES["downtown"].night.mttho_s == 50.60
        assert ROUTES["highway"].night.mttho_s == 25.50

    def test_highway_night_capacity_lowest(self):
        caps = {name: ROUTES[name].night.capacity_mean_bps
                for name in ROUTES}
        assert caps["highway"] == min(caps.values())

    def test_invalid_time_of_day(self):
        with pytest.raises(ValueError):
            ROUTES["suburb"].conditions("dusk")


class TestHandoverSchedule:
    def test_mean_spacing_near_mttho(self):
        events = generate_handover_schedule(duration=100_000, mttho_s=50,
                                            seed=1)
        gaps = [events[i].at - events[i - 1].at
                for i in range(1, len(events))]
        assert mean(gaps) == pytest.approx(50, rel=0.1)

    def test_minimum_spacing_respected(self):
        events = generate_handover_schedule(duration=10_000, mttho_s=10,
                                            seed=2)
        gaps = [events[i].at - events[i - 1].at
                for i in range(1, len(events))]
        assert min(gaps) >= MIN_HANDOVER_SPACING

    def test_warmup_respected(self):
        events = generate_handover_schedule(duration=1000, mttho_s=20,
                                            seed=3)
        assert events and all(e.at >= HANDOVER_WARMUP_S for e in events)

    def test_deterministic_for_seed(self):
        a = generate_handover_schedule(1000, 50, seed=7)
        b = generate_handover_schedule(1000, 50, seed=7)
        assert a == b

    def test_gap_durations_in_range(self):
        events = generate_handover_schedule(10_000, 30, seed=4)
        assert all(0.04 <= e.gap_s <= 0.12 for e in events)

    def test_mttho_below_spacing_rejected(self):
        with pytest.raises(ValueError):
            generate_handover_schedule(1000, mttho_s=5)


class TestCapacityProcess:
    def test_stationary_mean_near_target(self):
        sim = Simulator()
        conditions = ROUTES["downtown"].night
        process = CapacityProcess(sim, conditions, seed=5)
        samples = [process.sample() for _ in range(5000)]
        assert mean(samples) == pytest.approx(
            conditions.capacity_mean_bps, rel=0.15)

    def test_clipped_to_bounds(self):
        sim = Simulator()
        conditions = ROUTES["downtown"].night
        process = CapacityProcess(sim, conditions, seed=6)
        samples = [process.sample() for _ in range(5000)]
        assert min(samples) >= 1.5e6
        assert max(samples) <= conditions.capacity_max_bps

    def test_correlated_in_time(self):
        """AR(1): adjacent samples must correlate (TCP rides the swells)."""
        sim = Simulator()
        conditions = ROUTES["downtown"].night
        process = CapacityProcess(sim, conditions, seed=7)
        samples = [process.sample() for _ in range(4000)]
        mu = mean(samples)
        num = sum((samples[i] - mu) * (samples[i - 1] - mu)
                  for i in range(1, len(samples)))
        den = sum((s - mu) ** 2 for s in samples)
        assert num / den > 0.5

    def test_listeners_receive_samples(self):
        sim = Simulator()
        process = CapacityProcess(sim, ROUTES["downtown"].night, seed=8)
        seen = []
        process.listeners.append(seen.append)
        process.start(duration=10)
        sim.run(until=12)
        assert len(seen) == 10


class TestPairedEmulation:
    def test_day_iperf_is_policed_for_both(self):
        sim = Simulator()
        config = EmulationConfig(route="downtown", time_of_day="day",
                                 duration=30, seed=11, handovers=False)
        emulation = PairedEmulation(sim, config)
        stats = emulation.run_iperf()
        for arch in (ARCH_MNO, ARCH_CELLBRICKS):
            assert 0.8 < stats[arch].average_mbps(30) < 1.4

    def test_night_exceeds_day(self):
        def run(time_of_day):
            sim = Simulator()
            config = EmulationConfig(route="downtown",
                                     time_of_day=time_of_day,
                                     duration=30, seed=11, handovers=False)
            return PairedEmulation(sim, config).run_iperf()[
                ARCH_MNO].average_mbps(30)

        assert run("night") > 5 * run("day")

    def test_handover_changes_cb_address_not_mno(self):
        sim = Simulator()
        config = EmulationConfig(route="highway", time_of_day="day",
                                 duration=40, seed=13)
        emulation = PairedEmulation(sim, config)
        mno_before = emulation.mno.ue.address
        cb_before = emulation.cb.ue.address
        emulation.handover_events = emulation.handover_events[:1] or \
            emulation.handover_events
        stats = emulation.run_ping()
        if emulation.handovers_applied:
            assert emulation.mno.ue.address == mno_before
            assert emulation.cb.ue.address != cb_before

    def test_cb_slowdown_is_small(self):
        """The headline result: CellBricks costs at most a few percent."""
        sim = Simulator()
        config = EmulationConfig(route="highway", time_of_day="day",
                                 duration=90, seed=17)
        emulation = PairedEmulation(sim, config)
        stats = emulation.run_iperf()
        mno = stats[ARCH_MNO].average_mbps(90)
        cb = stats[ARCH_CELLBRICKS].average_mbps(90)
        slowdown = (mno - cb) / mno * 100
        assert emulation.handovers_applied >= 1
        assert -6.0 < slowdown < 6.0

    def test_voip_mos_survives_handovers(self):
        sim = Simulator()
        config = EmulationConfig(route="highway", time_of_day="day",
                                 duration=60, seed=19)
        emulation = PairedEmulation(sim, config)
        stats = emulation.run_voip()
        assert stats[ARCH_MNO].mos > 4.0
        assert stats[ARCH_CELLBRICKS].mos > 3.8

    def test_ping_p50_in_expected_envelope(self):
        sim = Simulator()
        config = EmulationConfig(route="suburb", time_of_day="day",
                                 duration=40, seed=23)
        emulation = PairedEmulation(sim, config)
        stats = emulation.run_ping()
        for arch in (ARCH_MNO, ARCH_CELLBRICKS):
            assert 40 < stats[arch].p50_ms < 60
