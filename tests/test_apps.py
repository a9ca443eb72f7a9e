"""Integration tests for the application models over both transports."""

import pytest

from repro.apps import (
    HlsPlayer,
    HlsServer,
    IperfClient,
    IperfServer,
    KIND_MPTCP,
    KIND_QUIC,
    KIND_TCP,
    LEVEL_BITRATES,
    PingClient,
    PingServer,
    WebClient,
    WebServer,
    make_call,
    segment_bytes,
)
from repro.apps.web import MAIN_DOCUMENT_BYTES
from repro.net import CellularPath, Simulator


def make_path(shaper_rate=None, **kwargs):
    sim = Simulator()
    path = CellularPath(sim, shaper_rate=shaper_rate, **kwargs)
    path.assign_ue_address()
    return sim, path


def cb_handover(sim, path, at, gap=0.08, d=0.032, prefix="10.129.0"):
    def go():
        path.detach(interruption_s=gap)
        sim.schedule(gap + d, path.attach, prefix)
    sim.schedule_at(at, go)


class TestPing:
    def test_rtt_reflects_path_latency(self):
        sim, path = make_path()
        PingServer(path.server)
        client = PingClient(path.ue, path.server.address)
        client.start(duration=20)
        sim.run(until=25)
        # 2*(radio 18 ms + core + wan) ~ 48-49 ms
        assert client.stats.p50_ms == pytest.approx(48.0, rel=0.1)
        assert client.stats.received == client.stats.sent == 20

    def test_pings_lost_during_detachment(self):
        sim, path = make_path()
        PingServer(path.server)
        client = PingClient(path.ue, path.server.address)
        client.start(duration=20)
        sim.schedule(4.5, path.detach)
        sim.schedule(7.5, path.attach, "10.129.0")
        sim.run(until=25)
        # 3 s detached at 1 ping/s -> the pings at 5, 6 and 7 s are lost.
        assert client.stats.sent - client.stats.received == 3


class TestIperf:
    @pytest.mark.parametrize("kind", [KIND_TCP, KIND_MPTCP, KIND_QUIC])
    def test_policed_throughput(self, kind):
        sim, path = make_path(shaper_rate=2e6)
        IperfServer(kind, path.server)
        client = IperfClient(kind, path.ue, path.server.address)
        client.start()
        sim.run(until=30)
        avg = client.stats.average_mbps(30)
        assert 1.4 < avg < 2.2

    def test_window_and_rates_accounting(self):
        sim, path = make_path(shaper_rate=2e6)
        IperfServer(KIND_TCP, path.server)
        client = IperfClient(KIND_TCP, path.ue, path.server.address)
        client.start()
        sim.run(until=10)
        rates = client.stats.rates_mbps(1.0, 10)
        assert len(rates) == 10
        total_from_bins = sum(rates) * 1e6 / 8  # bytes
        assert total_from_bins == pytest.approx(client.stats.total_bytes,
                                                rel=0.01)
        assert client.stats.window_mbps(2.0, 4.0) > 0

    def test_mptcp_survives_handover_tcp_would_not(self):
        sim, path = make_path(shaper_rate=2e6)
        IperfServer(KIND_MPTCP, path.server)
        client = IperfClient(KIND_MPTCP, path.ue, path.server.address)
        client.start()
        cb_handover(sim, path, at=10.0)
        sim.run(until=25)
        after = client.stats.bytes_between(12.0, 25.0)
        assert after > 1_000_000  # flow continued on the new address


class TestVoip:
    def test_clean_call_is_high_mos(self):
        sim, path = make_path()
        caller, callee = make_call(path.ue, path.server, duration=20)
        sim.run(until=22)
        assert caller.stats.mos > 4.2
        assert callee.stats.mos > 4.2
        assert caller.stats.loss_rate < 0.02

    def test_reinvite_restores_call_after_ip_change(self):
        sim, path = make_path()
        caller, callee = make_call(path.ue, path.server, duration=40)
        cb_handover(sim, path, at=10.0)
        sim.run(until=42)
        assert caller.reinvites_sent == 1
        assert callee.reinvites == 1
        # Packets flowed after the switch (downlink to the new address).
        late_delays = [d for d in caller.stats.delays]
        assert caller.stats.received > 40 / 0.02 * 0.8

    def test_handover_degrades_mos_slightly(self):
        sim, path = make_path()
        caller, _ = make_call(path.ue, path.server, duration=60)
        for i, at in enumerate((10.0, 25.0, 40.0)):
            cb_handover(sim, path, at=at,
                        prefix=f"10.{130 + i}.0")
        sim.run(until=62)
        assert 3.5 < caller.stats.mos < 4.45


class TestVideo:
    @pytest.mark.parametrize("kind", [KIND_TCP, KIND_MPTCP, KIND_QUIC])
    def test_day_rate_limits_quality(self, kind):
        sim, path = make_path(shaper_rate=1.2e6)
        HlsServer(kind, path.server)
        player = HlsPlayer(kind, path.ue, path.server.address)
        player.start(duration=60)
        sim.run(until=62)
        assert 1.0 < player.stats.average_level < 3.5
        assert player.stats.segments_downloaded > 10

    def test_fast_path_reaches_top_levels(self):
        sim, path = make_path()  # no policing, 75 Mbps radio
        HlsServer(KIND_TCP, path.server)
        player = HlsPlayer(KIND_TCP, path.ue, path.server.address)
        player.start(duration=60)
        sim.run(until=62)
        assert player.stats.average_level > 4.0
        assert player.stats.rebuffer_events == 0

    def test_buffer_absorbs_handover(self):
        """Table 1's observation: segment buffering makes video least
        sensitive to handovers."""
        sim, path = make_path(shaper_rate=1.2e6)
        HlsServer(KIND_MPTCP, path.server)
        player = HlsPlayer(KIND_MPTCP, path.ue, path.server.address)
        player.start(duration=60)
        cb_handover(sim, path, at=30.0)
        sim.run(until=62)
        assert player.stats.rebuffer_events <= 1

    def test_segment_bytes_ladder(self):
        sizes = [segment_bytes(level) for level in range(len(LEVEL_BITRATES))]
        assert sizes == sorted(sizes)
        assert sizes[0] > 0


class TestWeb:
    @pytest.mark.parametrize("kind", [KIND_TCP, KIND_MPTCP, KIND_QUIC])
    def test_page_load_completes_with_exact_bytes(self, kind):
        sim, path = make_path()
        server = WebServer(kind, path.server)
        client = WebClient(kind, path.ue, path.server.address)
        client.load()
        sim.run(until=30)
        assert client.result is not None
        expected = MAIN_DOCUMENT_BYTES + sum(client.object_sizes)
        assert client.result.bytes_received == expected

    def test_load_time_scales_with_policing(self):
        def load(shaper):
            sim, path = make_path(shaper_rate=shaper)
            WebServer(KIND_TCP, path.server)
            client = WebClient(KIND_TCP, path.ue, path.server.address)
            client.load()
            sim.run(until=60)
            return client.result.load_time

        assert load(1.2e6) > 1.5 * load(6e6)

    def test_mptcp_load_survives_mid_page_handover(self):
        sim, path = make_path(shaper_rate=1.2e6)
        WebServer(KIND_MPTCP, path.server)
        client = WebClient(KIND_MPTCP, path.ue, path.server.address)
        client.load()
        cb_handover(sim, path, at=1.5)
        sim.run(until=60)
        assert client.result is not None
        expected = MAIN_DOCUMENT_BYTES + sum(client.object_sizes)
        assert client.result.bytes_received == expected
