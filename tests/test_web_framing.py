"""Focused tests for the web app's in-band framing, TLS setup, and waves."""

import pytest

from repro.apps import KIND_MPTCP, KIND_TCP, WebClient, WebServer
from repro.apps.web import (
    DEFAULT_OBJECT_BYTES,
    MAIN_DOCUMENT_BYTES,
    PARALLEL_CONNECTIONS,
    REQUEST_SIZE,
    TLS_HELLO_SIZE,
)
from repro.net import CellularPath, Simulator
from repro.net.tcp import DEFAULT_MSS


def make_path(**kwargs):
    sim = Simulator()
    path = CellularPath(sim, **kwargs)
    path.assign_ue_address()
    return sim, path


class TestFraming:
    def test_hello_fits_one_segment(self):
        """The size-encoded framing relies on single-segment atomicity."""
        assert TLS_HELLO_SIZE <= DEFAULT_MSS
        assert REQUEST_SIZE + len(DEFAULT_OBJECT_BYTES) + 1 < TLS_HELLO_SIZE

    def test_server_counts_requests_and_handshakes(self):
        sim, path = make_path()
        server = WebServer(KIND_TCP, path.server)
        client = WebClient(KIND_TCP, path.ue, path.server.address)
        client.load()
        sim.run(until=30)
        # main + every object, one request each.
        assert server.requests_served == 1 + len(DEFAULT_OBJECT_BYTES)
        assert server.handshakes == PARALLEL_CONNECTIONS

    def test_resource_size_mapping(self):
        sim, path = make_path()
        server = WebServer(KIND_TCP, path.server, object_bytes=(10, 20, 30))
        assert server.resource_size(0) == MAIN_DOCUMENT_BYTES
        assert server.resource_size(1) == 10
        assert server.resource_size(3) == 30


class TestWaves:
    def test_waves_partition_all_objects(self):
        sim, path = make_path()
        WebServer(KIND_TCP, path.server)
        client = WebClient(KIND_TCP, path.ue, path.server.address)
        flattened = [i for wave in client._waves for i in wave]
        assert sorted(flattened) == list(
            range(1, len(client.object_sizes) + 1))


class TestLoadResult:
    @pytest.mark.parametrize("kind", [KIND_TCP, KIND_MPTCP])
    def test_bytes_exclude_tls(self, kind):
        sim, path = make_path()
        WebServer(kind, path.server)
        client = WebClient(kind, path.ue, path.server.address)
        client.load()
        sim.run(until=30)
        expected = MAIN_DOCUMENT_BYTES + sum(client.object_sizes)
        assert client.result.bytes_received == expected

    def test_on_loaded_callback(self):
        sim, path = make_path()
        WebServer(KIND_TCP, path.server)
        client = WebClient(KIND_TCP, path.ue, path.server.address)
        results = []
        client.on_loaded = results.append
        client.load()
        sim.run(until=30)
        assert results == [client.result]

    def test_repeated_loads_same_server(self):
        sim, path = make_path()
        WebServer(KIND_TCP, path.server)
        times = []
        for _ in range(3):
            client = WebClient(KIND_TCP, path.ue, path.server.address)
            client.load()
            sim.run(until=sim.now + 30)
            times.append(client.result.load_time)
        assert len(times) == 3
        assert all(t > 0 for t in times)
