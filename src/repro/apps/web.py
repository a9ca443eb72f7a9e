"""Web page loading (Table 1's "Web: Avg. Load Time").

A browser-like client fetches a page over several parallel persistent
connections, with the traits that dominate real page loads:

* a TLS-style setup exchange on every connection (one extra round trip
  carrying handshake bytes),
* per-request server think time (backend latency),
* *dependency waves*: sub-resources discovered only after earlier ones
  arrive (the HTML reveals CSS/JS, which reveal images/fonts), which is
  why night-time loads are latency-bound (~1.8 s in Table 1) while
  day-time loads are bandwidth-bound (~5 s at the ~1.2 Mbps policed rate).

Request framing is in-band and size-encoded: a request for resource ``i``
is ``REQUEST_SIZE + i`` bytes (small enough to ride in one segment) and
each connection keeps at most one request outstanding, so both sides
decode the stream unambiguously over TCP and MPTCP alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net import Host

from .transport import StreamClient, StreamServer

WEB_PORT = 80
REQUEST_SIZE = 400                     # GET + headers
# The hello must fit one segment (<= MSS) so the in-band framing stays
# unambiguous; real ClientHellos are a few hundred bytes anyway.
TLS_HELLO_SIZE = 1300                  # ClientHello + key exchange
TLS_RESPONSE_SIZE = 3000               # ServerHello + certificate chain
MAIN_DOCUMENT_BYTES = 60_000
SERVER_THINK_TIME = 0.050              # backend latency per request
DEFAULT_OBJECT_BYTES = (
    # a typical mix: a few large images, many small assets (bytes)
    140_000, 110_000, 85_000, 65_000, 55_000, 45_000,
    38_000, 32_000, 27_000, 24_000, 20_000, 17_000,
    15_000, 13_000, 11_000, 10_000, 9_000, 8_000,
    7_000, 6_000, 5_000, 4_500, 4_000, 3_500,
)
PARALLEL_CONNECTIONS = 4
#: fraction of sub-resources discovered in each dependency wave
#: (HTML -> CSS/JS -> images/fonts).
DEFAULT_WAVES = (0.45, 0.35, 0.2)


class WebServer:
    """Serves TLS setup exchanges and size-indexed resource requests.

    Resource 0 is the main document; resource ``1 + i`` is the page's
    i-th sub-resource.
    """

    def __init__(self, kind: str, host: Host,
                 object_bytes: tuple = DEFAULT_OBJECT_BYTES):
        self.sim = host.sim
        self.object_bytes = list(object_bytes)
        self.requests_served = 0
        self.handshakes = 0
        self.server = StreamServer(kind, host, WEB_PORT, self._on_peer)

    def resource_size(self, index: int) -> int:
        if index == 0:
            return MAIN_DOCUMENT_BYTES
        return self.object_bytes[(index - 1) % len(self.object_bytes)]

    def _on_peer(self, peer) -> None:
        pending = [0]

        def on_data(nbytes: int) -> None:
            # At most one request is outstanding per connection, so the
            # accumulated bytes form exactly one request (or handshake).
            pending[0] += nbytes
            if pending[0] >= TLS_HELLO_SIZE:
                pending[0] = 0
                self.handshakes += 1
                peer.send(TLS_RESPONSE_SIZE)
            elif pending[0] >= REQUEST_SIZE:
                index = pending[0] - REQUEST_SIZE
                pending[0] = 0
                self.requests_served += 1
                self.sim.schedule(SERVER_THINK_TIME, peer.send,
                                  self.resource_size(index))

        peer.on_data = on_data


@dataclass
class PageLoadResult:
    load_time: float
    bytes_received: int
    objects_fetched: int


class WebClient:
    """Loads the page over ``PARALLEL_CONNECTIONS`` persistent streams
    with TLS setup and dependency waves."""

    def __init__(self, kind: str, host: Host, server_ip: str,
                 object_bytes: tuple = DEFAULT_OBJECT_BYTES,
                 address_wait: float = 0.5):
        self.host = host
        self.sim = host.sim
        self.kind = kind
        self.server_ip = server_ip
        self.address_wait = address_wait
        self.object_sizes = list(object_bytes)
        self.result: Optional[PageLoadResult] = None
        self.on_loaded = None

        # Partition sub-resources into discovery waves.
        self._waves: list[list[int]] = []
        indices = list(range(1, len(self.object_sizes) + 1))
        offset = 0
        for fraction in DEFAULT_WAVES[:-1]:
            take = max(1, int(len(indices) * fraction))
            self._waves.append(indices[offset:offset + take])
            offset += take
        self._waves.append(indices[offset:])
        self._waves = [wave for wave in self._waves if wave]

        self._connections: list[StreamClient] = []
        self._started_at: Optional[float] = None
        self._fetch_queue: list[int] = []
        self._wave_index = 0
        self._wave_outstanding = 0
        self._bytes_total = 0
        self._expected: dict[int, int] = {}    # conn index -> bytes pending
        self._tls_pending: dict[int, bool] = {}
        self._idle: list[int] = []             # ready connections

    def load(self) -> None:
        """Start the page load; ``result`` is set when it completes."""
        self._started_at = self.sim.now
        self._bytes_total = 0
        first = self._make_connection(0)
        self._connections = [first]
        first.connect()

    def _resource_size(self, index: int) -> int:
        return self.object_sizes[index - 1]

    def _make_connection(self, index: int) -> StreamClient:
        client = StreamClient(self.kind, self.host, self.server_ip,
                              WEB_PORT, address_wait=self.address_wait)
        client.on_data = lambda nbytes, i=index: self._on_data(i, nbytes)
        client.on_established = lambda i=index: self._start_tls(i)
        self._tls_pending[index] = True
        return client

    def _start_tls(self, index: int) -> None:
        self._expected[index] = TLS_RESPONSE_SIZE
        self._connections[index].send(TLS_HELLO_SIZE)

    def _on_data(self, index: int, nbytes: int) -> None:
        remaining = self._expected.get(index, 0) - nbytes
        self._expected[index] = remaining
        if not self._tls_pending.get(index):
            self._bytes_total += nbytes
        if remaining > 0:
            return
        if self._tls_pending.get(index):
            self._tls_pending[index] = False
            if index == 0 and len(self._connections) == 1:
                # Main-document fetch happens on the first connection.
                self._expected[0] = MAIN_DOCUMENT_BYTES
                self._connections[0].send(REQUEST_SIZE)
            else:
                self._dispatch(index)
            return
        if index == 0 and len(self._connections) == 1:
            # Main document parsed: open the other connections and start
            # the first dependency wave.
            self._open_parallel_connections()
            self._begin_wave()
            self._dispatch(0)
            return
        self._wave_outstanding -= 1
        if not self._fetch_queue and self._wave_outstanding == 0:
            if self._wave_index >= len(self._waves):
                self._finish()
                return
            self._begin_wave()
        self._dispatch(index)

    def _open_parallel_connections(self) -> None:
        for index in range(1, PARALLEL_CONNECTIONS):
            conn = self._make_connection(index)
            self._connections.append(conn)
            conn.connect()

    def _begin_wave(self) -> None:
        if self._wave_index < len(self._waves):
            self._fetch_queue = list(self._waves[self._wave_index])
            self._wave_index += 1
            # Wake any connections that idled out at the end of a wave.
            while self._idle and self._fetch_queue:
                self._dispatch(self._idle.pop())

    def _dispatch(self, index: int) -> None:
        if not self._fetch_queue:
            if not self._waves_done():
                self._idle.append(index)
            return
        resource = self._fetch_queue.pop(0)
        self._wave_outstanding += 1
        self._expected[index] = self._resource_size(resource)
        self._connections[index].send(REQUEST_SIZE + resource)

    def _waves_done(self) -> bool:
        return (self._wave_index >= len(self._waves)
                and not self._fetch_queue and self._wave_outstanding == 0)

    def _finish(self) -> None:
        if self.result is not None:
            return
        self.result = PageLoadResult(
            load_time=self.sim.now - self._started_at,
            bytes_received=self._bytes_total,
            objects_fetched=len(self.object_sizes))
        for conn in self._connections:
            conn.close()
        if self.on_loaded is not None:
            self.on_loaded(self.result)
