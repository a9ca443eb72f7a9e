"""Tests for the QUIC-style transport and its connection migration."""

import random

import pytest

from repro.apps import IperfClient, IperfServer, KIND_QUIC
from repro.net import CellularPath, Simulator
from repro.net.endpoint import Reassembly
from repro.net.quic import QuicConnection, QuicListener


def make_path(**kwargs):
    sim = Simulator()
    path = CellularPath(sim, **kwargs)
    path.assign_ue_address()
    return sim, path


def handover(sim, path, at, prefix="10.129.0", gap=0.08, d=0.032):
    def go():
        path.detach(interruption_s=gap)
        sim.schedule(gap + d, path.attach, prefix)
    sim.schedule_at(at, go)


class TestStreamReceiver:
    def test_in_order(self):
        recv = Reassembly()
        assert recv.receive(0, 100) == 100
        assert recv.receive(100, 50) == 50

    def test_duplicates_ignored(self):
        recv = Reassembly()
        recv.receive(0, 100)
        assert recv.receive(0, 100) == 0
        assert recv.receive(20, 50) == 0

    def test_reorder_buffered(self):
        recv = Reassembly()
        assert recv.receive(100, 100) == 0
        assert recv.receive(0, 100) == 200

    def test_overlap_partial(self):
        recv = Reassembly()
        recv.receive(0, 100)
        assert recv.receive(50, 100) == 50

    @pytest.mark.parametrize("seed", range(5))
    def test_single_pass_matches_the_rescanning_drain(self, seed):
        """Call for call, ``receive`` returns what the loop it replaced
        returned: re-sort the pending ranges, drain one, start over."""

        class Rescanning:
            def __init__(self):
                self.delivered = 0
                self.pending = {}

            def receive(self, offset, length):
                end = offset + length
                if end <= self.delivered:
                    return 0
                if offset > self.delivered:
                    self.pending[offset] = max(
                        self.pending.get(offset, 0), length)
                    return 0
                newly = end - self.delivered
                self.delivered = end
                progressed = True
                while progressed:
                    progressed = False
                    for start in sorted(self.pending):
                        if start <= self.delivered:
                            tail = start + self.pending.pop(start)
                            if tail > self.delivered:
                                newly += tail - self.delivered
                                self.delivered = tail
                            progressed = True
                            break
                return newly

        rng = random.Random(seed)
        recv, ref = Reassembly(), Rescanning()
        # A loss burst: ranges arrive shuffled within a wide window, with
        # duplicates, re-cuts of the same offset and overlaps.
        frames = []
        while len(frames) < 300:
            offset = sum(frames[-1]) if frames else 0
            frames.append((offset, rng.choice((300, 1350, 1350))))
        frames += [(offset + rng.randrange(1350), rng.randrange(1, 4000))
                   for offset, _ in rng.sample(frames, 80)]
        frames += rng.sample(frames, 60)
        frames.sort(key=lambda frame: frame[0] + rng.uniform(0, 150_000))
        returns = []
        for offset, length in frames:
            returns.append(recv.receive(offset, length))
            assert returns[-1] == ref.receive(offset, length)
            assert recv.delivered == ref.delivered
            assert recv._pending == ref.pending
        assert max(returns) > 10 * 1350     # some drains spanned many ranges


class TestHandshakeAndTransfer:
    def test_one_rtt_handshake(self):
        sim, path = make_path()
        QuicListener(path.server, 443, lambda conn: None)
        client = QuicConnection(path.ue, path.server.address, 443)
        established = []
        client.on_established = lambda: established.append(sim.now)
        client.connect()
        sim.run(until=1.0)
        assert established
        # One round trip (~48 ms path RTT), not two like TCP+TLS.
        assert established[0] == pytest.approx(0.048, rel=0.2)

    def test_handshake_retransmits_through_outage(self):
        sim, path = make_path()
        QuicListener(path.server, 443, lambda conn: None)
        client = QuicConnection(path.ue, path.server.address, 443)
        established = []
        client.on_established = lambda: established.append(sim.now)
        path.radio_link.set_up(False)
        client.connect()
        sim.schedule(2.5, path.radio_link.set_up, True)
        sim.run(until=10.0)
        assert established and established[0] > 2.5

    def test_bulk_transfer_exact(self):
        sim, path = make_path()
        received = [0]

        def on_conn(conn):
            conn.on_data = lambda n: received.__setitem__(0, received[0] + n)

        QuicListener(path.server, 443, on_conn)
        client = QuicConnection(path.ue, path.server.address, 443)
        client.on_established = lambda: client.send(2_000_000)
        client.connect()
        sim.run(until=20.0)
        assert received[0] == 2_000_000

    def test_transfer_with_loss_exact(self):
        sim, path = make_path(radio_loss=0.02)
        received = [0]

        def on_conn(conn):
            conn.on_data = lambda n: received.__setitem__(0, received[0] + n)

        QuicListener(path.server, 443, on_conn)
        client = QuicConnection(path.ue, path.server.address, 443)
        client.on_established = lambda: client.send(500_000)
        client.connect()
        sim.run(until=60.0)
        assert received[0] == 500_000
        assert client.stats_packets_lost > 0

    def test_throughput_respects_policer(self):
        sim, path = make_path(shaper_rate=2e6)
        IperfServer(KIND_QUIC, path.server)
        client = IperfClient(KIND_QUIC, path.ue, path.server.address)
        client.start()
        sim.run(until=20.0)
        assert 1.4 < client.stats.average_mbps(20) < 2.4


class TestMigration:
    def test_download_survives_ip_change(self):
        sim, path = make_path(shaper_rate=3e6)
        got = [0]

        def on_conn(conn):
            conn.on_data = lambda n: got.__setitem__(0, got[0] + n)
            conn.send(6_000_000)

        server_conns = []

        def accept(conn):
            server_conns.append(conn)
            conn.send(6_000_000)

        QuicListener(path.server, 443, accept)
        client = QuicConnection(path.ue, path.server.address, 443)
        client.on_data = lambda n: got.__setitem__(0, got[0] + n)
        client.connect()
        handover(sim, path, at=5.0)
        sim.run(until=60.0)
        assert got[0] == 6_000_000
        assert client.migrations == 1
        assert server_conns[0].migrations >= 1
        assert server_conns[0].peer_ip.startswith("10.129.0.")

    def test_migration_faster_than_mptcp_wait(self):
        """QUIC reacts as soon as the address exists — no 500 ms worker."""
        sim, path = make_path(shaper_rate=3e6)
        deliveries = []

        def accept(conn):
            conn.send(20_000_000)

        QuicListener(path.server, 443, accept)
        client = QuicConnection(path.ue, path.server.address, 443)
        client.on_data = lambda n: deliveries.append(sim.now)
        client.connect()
        handover(sim, path, at=5.0)
        sim.run(until=15.0)
        before = max(t for t in deliveries if t < 5.0)
        after = min(t for t in deliveries if t > 5.0)
        # gap(0.08) + d(0.032) + path validation + recovery << 0.5 s
        assert after - before < 0.45

    def test_multiple_migrations(self):
        sim, path = make_path(shaper_rate=3e6)
        got = [0]

        def accept(conn):
            conn.send(8_000_000)

        QuicListener(path.server, 443, accept)
        client = QuicConnection(path.ue, path.server.address, 443)
        client.on_data = lambda n: got.__setitem__(0, got[0] + n)
        client.connect()
        handover(sim, path, at=3.0, prefix="10.130.0")
        handover(sim, path, at=8.0, prefix="10.131.0")
        sim.run(until=90.0)
        assert got[0] == 8_000_000
        assert client.migrations == 2

    def test_unknown_cid_ignored(self):
        sim, path = make_path()
        accepted = []
        listener = QuicListener(path.server, 443, accepted.append)
        # A non-handshake packet with an unknown CID must not create state.
        from repro.net.quic import AckFrame, QuicDatagram
        from repro.net import UdpSocket
        sock = UdpSocket(path.ue)
        sock.send_to(path.server.address, 443, 100,
                     QuicDatagram(cid=0xDEAD, packet_number=0,
                                  frames=(AckFrame(0, (0,)),)))
        sim.run(until=1.0)
        assert accepted == []
        assert listener.connections == {}
