"""iperf-style bulk throughput measurement (Table 1, Fig 8, Fig 9, Fig 10).

The server pushes a continuous downlink stream (how the paper runs iperf
against EC2); the client records every delivery with its timestamp so
benchmarks can compute averages, per-second time series (Fig 8/10), and
post-handover windows (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.analysis.stats import timeseries_rates
from repro.net import Host

from .transport import StreamClient, StreamServer

IPERF_PORT = 5201
BACKLOG_BYTES = 10_000_000_000  # effectively infinite source
#: inter-delivery gap (s) above which the client annotates the trace —
#: covers handover stalls (detach -> re-auth -> transport re-establish)
#: without firing on ordinary ACK-clocked spacing.
STALL_GAP_S = 0.1


@dataclass
class IperfStats:
    """Client-side delivery log."""

    started_at: float = 0.0
    deliveries: list = field(default_factory=list)  # (timestamp, nbytes)
    total_bytes: int = 0

    def record(self, timestamp: float, nbytes: int) -> None:
        self.deliveries.append((timestamp, nbytes))
        self.total_bytes += nbytes

    def average_mbps(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.total_bytes * 8 / duration / 1e6

    def rates_mbps(self, bin_seconds: float, duration: float) -> list:
        relative = [(t - self.started_at, n) for t, n in self.deliveries]
        return timeseries_rates(relative, bin_seconds, duration)

    def bytes_between(self, start: float, end: float) -> int:
        return sum(n for t, n in self.deliveries if start <= t < end)

    def window_mbps(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return self.bytes_between(start, end) * 8 / (end - start) / 1e6


class IperfServer:
    """Pushes an unbounded stream to every accepted connection."""

    def __init__(self, kind: str, host: Host):
        self.server = StreamServer(kind, host, IPERF_PORT, self._on_peer)

    def _on_peer(self, peer) -> None:
        peer.send(BACKLOG_BYTES)


class IperfClient:
    """Receives the stream and logs deliveries."""

    def __init__(self, kind: str, host: Host, server_ip: str,
                 address_wait: float = 0.5):
        self.host = host
        self.sim = host.sim
        self.stats = IperfStats()
        self.client = StreamClient(kind, host, server_ip, IPERF_PORT,
                                   address_wait=address_wait)
        self.client.on_data = self._on_data

    def start(self) -> None:
        self.stats.started_at = self.sim.now
        self.client.connect()

    def _on_data(self, nbytes: int) -> None:
        now = self.sim.now
        if self.stats.deliveries:
            gap = now - self.stats.deliveries[-1][0]
            if gap >= STALL_GAP_S:
                obs = self.sim.obs
                if obs is not None and obs.tracing:
                    obs.tracer.instant(
                        "iperf.delivery_gap", f"iperf:{self.host.name}",
                        now, category="app",
                        data={"gap_ms": round(gap * 1000.0, 3)})
        self.stats.record(now, nbytes)
