"""Integration tests for MPTCP: subflows, handovers, re-injection."""

import pytest

from repro.net import (
    CellularPath,
    MptcpConnection,
    MptcpListener,
    Simulator,
)
from repro.net.endpoint import Reassembly
from repro.net.mptcp import MpJoin
from repro.net.tcp import TcpConnection


def make_path(sim, shaper_rate=None, **kwargs):
    path = CellularPath(sim, shaper_rate=shaper_rate, **kwargs)
    path.assign_ue_address()
    return path


class DownloadServer:
    """Pushes ``size`` bytes to every accepted MPTCP connection."""

    def __init__(self, path, size, port=443):
        self.size = size
        self.connections = []
        self.listener = MptcpListener(path.server, port, self._on_connection)

    def _on_connection(self, conn):
        self.connections.append(conn)
        if self.size:
            conn.send(self.size)


class ClientSink:
    def __init__(self, path, port=443, address_wait=0.5):
        self.received = 0
        self.conn = MptcpConnection(path.ue, path.server.address, port,
                                    address_wait=address_wait)
        self.conn.on_data = self._on_data
        self.failures = []
        self.conn.on_fail = self.failures.append

    def _on_data(self, nbytes):
        self.received += nbytes

    def start(self):
        self.conn.connect()


def do_handover(sim, path, attach_delay=0.032, new_prefix="10.129.0",
                interruption=0.05):
    path.detach(interruption_s=interruption)
    sim.schedule(attach_delay, path.attach, new_prefix)


class TestConnReceiver:
    def test_in_order_delivery(self):
        recv = Reassembly()
        assert recv.receive(0, 100) == 100
        assert recv.receive(100, 50) == 50
        assert recv.delivered == 150

    def test_duplicate_is_zero(self):
        recv = Reassembly()
        recv.receive(0, 100)
        assert recv.receive(0, 100) == 0
        assert recv.receive(50, 50) == 0

    def test_out_of_order_held_then_drained(self):
        recv = Reassembly()
        assert recv.receive(100, 50) == 0
        assert recv.receive(0, 100) == 150

    def test_partial_overlap(self):
        recv = Reassembly()
        recv.receive(0, 100)
        # Re-injection overlapping already-delivered data.
        assert recv.receive(50, 100) == 50
        assert recv.delivered == 150

    def test_interleaved_gaps(self):
        recv = Reassembly()
        assert recv.receive(200, 100) == 0
        assert recv.receive(100, 100) == 0
        assert recv.receive(0, 100) == 300

    def test_thousand_out_of_order_segments(self):
        """The drain is a single sorted pass, so a worst-case shuffle of
        1000 segments reassembles exactly once and leaves nothing pending."""
        import random
        rng = random.Random(7)
        segments = [(i * 100, 100) for i in range(1000)]
        rng.shuffle(segments)
        recv = Reassembly()
        total = sum(recv.receive(seq, length)
                    for seq, length in segments)
        assert total == 100_000
        assert recv.delivered == 100_000
        assert recv._pending == {}


class TestListenerTokens:
    def test_concurrent_fallback_clients_get_distinct_connections(self):
        """Regression: untagged (plain-TCP fallback) accepts used to all
        map to token 0, each overwriting the previous server connection."""
        sim = Simulator()
        path = make_path(sim)
        server = DownloadServer(path, 0)
        clients = [TcpConnection(path.ue, path.server.address, 443)
                   for _ in range(2)]
        received = [0, 0]
        for index, client in enumerate(clients):
            client.on_data = lambda n, meta, i=index: received.__setitem__(
                i, received[i] + n)
            client.connect()
        sim.run(until=1.0)
        assert len(server.connections) == 2
        assert server.connections[0] is not server.connections[1]
        assert set(server.listener.connections) == {-1, -2}
        # Each server connection reaches its own client, not the last one.
        server.connections[0].send(1000)
        server.connections[1].send(3000)
        sim.run(until=5.0)
        assert received == [1000, 3000]

    def test_unknown_token_join_rejected(self):
        """RFC 8684 §3.2: an MP_JOIN naming a token the listener does not
        know must be reset, not silently minted into a new connection."""
        sim = Simulator()
        path = make_path(sim)
        server = DownloadServer(path, 0)
        join = TcpConnection(path.ue, path.server.address, 443)
        join.syn_meta = MpJoin(token=0xDEAD_BEEF)
        join.connect()
        sim.run(until=2.0)
        assert server.listener.rejected_joins == 1
        assert server.connections == []
        assert server.listener.connections == {}


class TestBasicTransfer:
    def test_download_completes(self):
        sim = Simulator()
        path = make_path(sim)
        server = DownloadServer(path, 1_000_000)
        client = ClientSink(path)
        client.start()
        sim.run(until=10.0)
        assert client.received == 1_000_000

    def test_upload_completes(self):
        sim = Simulator()
        path = make_path(sim)
        server = DownloadServer(path, 0)
        got = [0]
        client = ClientSink(path)
        client.start()
        sim.run(until=1.0)
        server.connections[0].on_data = lambda n: got.__setitem__(0, got[0] + n)
        client.conn.send(500_000)
        sim.run(until=10.0)
        assert got[0] == 500_000

    def test_single_subflow_without_mobility(self):
        sim = Simulator()
        path = make_path(sim)
        DownloadServer(path, 100_000)
        client = ClientSink(path)
        client.start()
        sim.run(until=5.0)
        assert client.conn.subflow_count == 1
        assert client.conn.handover_count == 0


class TestHandover:
    def test_handover_creates_new_subflow_and_transfer_continues(self):
        sim = Simulator()
        path = make_path(sim, shaper_rate=5e6)
        DownloadServer(path, 30_000_000)
        client = ClientSink(path)
        client.start()
        sim.schedule(3.0, do_handover, sim, path)
        sim.run(until=10.0)
        assert client.conn.handover_count == 1
        assert client.conn.subflow_count == 2
        # Transfer kept making progress after the switch.
        at_handover = client.received
        sim.run(until=15.0)
        assert client.received > at_handover

    def test_bytes_delivered_exactly_once_across_handover(self):
        """Re-injection must not double-deliver at the connection level."""
        sim = Simulator()
        path = make_path(sim, shaper_rate=5e6)
        size = 8_000_000
        DownloadServer(path, size)
        client = ClientSink(path)
        client.start()
        sim.schedule(2.0, do_handover, sim, path)
        sim.run(until=60.0)
        assert client.received == size

    def test_multiple_handovers(self):
        sim = Simulator()
        path = make_path(sim, shaper_rate=5e6)
        size = 12_000_000
        DownloadServer(path, size)
        client = ClientSink(path)
        client.start()
        prefixes = ["10.129.0", "10.130.0", "10.131.0"]
        for i, prefix in enumerate(prefixes):
            sim.schedule(2.0 + 3.0 * i,
                         lambda p=prefix: do_handover(sim, path, new_prefix=p))
        sim.run(until=90.0)
        assert client.conn.handover_count == 3
        assert client.conn.subflow_count == 4
        assert client.received == size

    def test_address_wait_delays_new_subflow(self):
        sim = Simulator()
        path = make_path(sim)
        DownloadServer(path, 10_000_000)

        slow = ClientSink(path, address_wait=0.5)
        slow.start()
        sim.schedule(3.0, do_handover, sim, path)
        sim.run(until=10.0)
        times = slow.conn.subflow_established_times
        assert len(times) == 2
        # New subflow cannot complete before handover(3.0) + wait(0.5).
        assert times[1] >= 3.5

    def test_modified_stack_reacts_faster(self):
        def run(wait):
            sim = Simulator()
            path = make_path(sim)
            DownloadServer(path, 10_000_000)
            client = ClientSink(path, address_wait=wait)
            client.start()
            sim.schedule(3.0, do_handover, sim, path)
            sim.run(until=10.0)
            return client.conn.subflow_established_times[1]

        assert run(0.05) < run(0.5)

    def test_remove_addr_cleans_up_server_subflows(self):
        sim = Simulator()
        path = make_path(sim)
        server = DownloadServer(path, 20_000_000)
        client = ClientSink(path)
        client.start()
        sim.schedule(2.0, do_handover, sim, path)
        sim.run(until=20.0)
        conn = server.connections[0]
        assert len(conn.subflows) == 1
        assert conn.active_subflow.remote_ip.startswith("10.129.0.")

    def test_no_new_address_times_out(self):
        sim = Simulator()
        path = make_path(sim)
        DownloadServer(path, 5_000_000)
        client = ClientSink(path)
        client.start()
        sim.run(until=2.0)
        path.detach()  # never re-attach
        sim.run(until=70.0)
        assert client.failures == ["no address within timeout"]
        assert client.conn.closed

    def test_reattach_just_before_timeout_survives(self):
        sim = Simulator()
        path = make_path(sim)
        DownloadServer(path, 5_000_000)
        client = ClientSink(path)
        client.start()
        sim.run(until=2.0)
        path.detach()
        sim.schedule(55.0, path.attach, "10.129.0")
        sim.run(until=120.0)
        assert client.failures == []
        assert client.received == 5_000_000


class TestThroughputShape:
    def test_post_handover_spike_with_policer(self):
        """Fig 8: after a handover the fresh subflow + accumulated token
        bucket credit briefly exceed steady-state throughput."""
        sim = Simulator()
        path = make_path(sim, shaper_rate=1.5e6)
        DownloadServer(path, 50_000_000)
        client = ClientSink(path)
        client.start()
        deliveries = []
        client.conn.on_data = lambda n: deliveries.append((sim.now, n))
        sim.schedule(15.0, do_handover, sim, path)
        sim.run(until=30.0)

        # (a) the handover creates a delivery gap at least as long as the
        # address-worker wait period...
        before = max(t for t, _ in deliveries if t < 15.0)
        after = min(t for t, _ in deliveries if t > 15.0)
        assert after - before >= 0.5

        # (b) ...and right after it, slow-start against the accumulated
        # token-bucket credit overshoots the steady policed rate.
        def rate(start, end):
            total = sum(n for t, n in deliveries if start <= t < end)
            return total * 8 / (end - start)

        steady = rate(5.0, 13.0)
        post = rate(after, after + 1.0)
        assert post > 1.3 * steady
