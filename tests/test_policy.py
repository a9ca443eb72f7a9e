"""Tests for the time-of-day rate-limit policy (Appendix A)."""

import pytest

from repro.apps import IperfClient, IperfServer, KIND_TCP
from repro.emulation.policy import PolicyScheduler, TimeOfDayPolicy
from repro.net import CellularPath, Simulator


class TestPolicyLogic:
    def test_night_window(self):
        policy = TimeOfDayPolicy(night_starts_hour=0.5, night_ends_hour=6.0)
        assert not policy.is_night(23.9)
        assert policy.is_night(0.5)
        assert policy.is_night(3.0)
        assert not policy.is_night(6.0)
        assert not policy.is_night(12.0)

    def test_wrapping_window(self):
        policy = TimeOfDayPolicy(night_starts_hour=22.0, night_ends_hour=5.0)
        assert policy.is_night(23.0)
        assert policy.is_night(2.0)
        assert not policy.is_night(12.0)

    def test_rates(self):
        policy = TimeOfDayPolicy(day_rate_bps=1e6, night_rate_bps=None)
        assert policy.rate_at(12.0) == 1e6
        assert policy.rate_at(2.0) is None

    def test_next_switch_hour(self):
        policy = TimeOfDayPolicy(night_starts_hour=0.5, night_ends_hour=6.0)
        assert policy.next_switch_hour(0.0) == pytest.approx(0.5)
        assert policy.next_switch_hour(2.0) == pytest.approx(4.0)
        assert policy.next_switch_hour(23.0) == pytest.approx(1.5)


class TestScheduler:
    def test_mode_flip_mid_run(self):
        """A drive that starts at 00:20 crosses the 00:30 switch: the
        measured throughput is bimodal within one run (Fig 10's pattern,
        observed live instead of as two separate drives)."""
        sim = Simulator()
        path = CellularPath(sim, shaper_rate=1.2e6)
        path.assign_ue_address()
        policy = TimeOfDayPolicy(day_rate_bps=1.2e6, night_rate_bps=30e6)
        # 00:20, with time compressed 60x: the switch lands at t=10 s.
        scheduler = PolicyScheduler(sim, policy, [path],
                                    clock_offset_hours=20 / 60,
                                    time_scale=60.0)
        IperfServer(KIND_TCP, path.server)
        client = IperfClient(KIND_TCP, path.ue, path.server.address)
        scheduler.start(duration=30.0)
        client.start()
        sim.run(until=30.0)

        day_mbps = client.stats.window_mbps(2.0, 9.0)
        night_mbps = client.stats.window_mbps(15.0, 29.0)
        assert night_mbps > 5 * day_mbps
        assert len(scheduler.switches) == 2  # initial apply + the flip

    def test_no_switch_when_run_too_short(self):
        sim = Simulator()
        path = CellularPath(sim, shaper_rate=1.2e6)
        path.assign_ue_address()
        policy = TimeOfDayPolicy()
        scheduler = PolicyScheduler(sim, policy, [path],
                                    clock_offset_hours=12.0)
        scheduler.start(duration=60.0)   # noon + 60 s: no boundary
        sim.run(until=60.0)
        assert len(scheduler.switches) == 1

    def test_hour_now_wraps(self):
        sim = Simulator()
        policy = TimeOfDayPolicy()
        scheduler = PolicyScheduler(sim, policy, [],
                                    clock_offset_hours=23.0,
                                    time_scale=3600.0)  # 1 s = 1 h
        sim.run(until=2.0)
        assert scheduler.hour_now() == pytest.approx(1.0)

class TestSingleDriveModeFlip:
    def test_figure10_single_drive_is_bimodal(self):
        from repro.emulation import run_figure10_single_drive

        result = run_figure10_single_drive(duration=120.0, switch_at=60.0)
        # Pre-switch policed (~1.2 Mbps); post-switch radio-limited.
        assert result.day_avg < 2.0
        assert result.night_avg > 5 * result.day_avg
