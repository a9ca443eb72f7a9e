"""HLS adaptive-bitrate video streaming (Table 1).

Mirrors the paper's setup: an nginx-HLS-style server offering the same
video transcoded at 6 quality levels (0-5, 144p to 720p) in fixed-length
segments, and an hls.js-style player that requests segments sequentially
over a persistent connection, adapting the level to its throughput
estimate and buffering several segments ahead (which is why the paper
finds video "least sensitive to the choice of handover schemes").

Request framing is in-band and size-encoded: a request is
``REQUEST_BASE + level`` bytes and at most one request is outstanding,
so the byte stream is unambiguous over both TCP and MPTCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import mean
from repro.net import Host

from .transport import StreamClient, StreamServer

VIDEO_PORT = 8080
SEGMENT_SECONDS = 4.0
#: bitrates (bps) for quality levels 0..5 (144p .. 720p ladder).
LEVEL_BITRATES = (145e3, 365e3, 730e3, 1_100e3, 2_200e3, 4_200e3)
REQUEST_BASE = 100
MAX_BUFFER_SECONDS = 24.0    # 6 segments ahead
MIN_START_BUFFER = 2 * SEGMENT_SECONDS  # hls.js-style startup threshold
EWMA_ALPHA = 0.4
SAFETY_FACTOR = 0.62


def segment_bytes(level: int) -> int:
    """On-the-wire size of one segment at quality ``level``."""
    return int(LEVEL_BITRATES[level] * SEGMENT_SECONDS / 8)


class HlsServer:
    """Serves size-encoded segment requests on a persistent stream."""

    def __init__(self, kind: str, host: Host, port: int = VIDEO_PORT):
        self.server = StreamServer(kind, host, port, self._on_peer)
        self.segments_served = 0

    def _on_peer(self, peer) -> None:
        pending = [0]

        def on_data(nbytes: int) -> None:
            pending[0] += nbytes
            while pending[0] >= REQUEST_BASE:
                # One request at a time: the residue encodes the level.
                take = min(pending[0], REQUEST_BASE + len(LEVEL_BITRATES) - 1)
                level = take - REQUEST_BASE
                pending[0] -= take
                self.segments_served += 1
                peer.send(segment_bytes(level))

        peer.on_data = on_data

    def close(self) -> None:
        self.server.close()


@dataclass
class PlaybackStats:
    """Player-side quality-of-experience metrics."""

    levels_played: list = field(default_factory=list)
    startup_delay: Optional[float] = None
    rebuffer_events: int = 0
    rebuffer_seconds: float = 0.0
    segments_downloaded: int = 0

    @property
    def average_level(self) -> float:
        return mean(self.levels_played) if self.levels_played else 0.0


class HlsPlayer:
    """Throughput-adaptive player with a segment buffer."""

    def __init__(self, kind: str, host: Host, server_ip: str,
                 port: int = VIDEO_PORT, address_wait: float = 0.5):
        self.host = host
        self.sim = host.sim
        self.stats = PlaybackStats()
        self.client = StreamClient(kind, host, server_ip, port,
                                   address_wait=address_wait)
        self.client.on_established = self._request_next
        self.client.on_data = self._on_data

        self.buffer_seconds = 0.0
        self.playing = False
        self.current_level = 0          # start conservatively, like hls.js
        self.throughput_ewma_bps: Optional[float] = None
        self._expected = 0
        self._request_started = 0.0
        self._requested_level = 0
        self._started_at: Optional[float] = None
        self._stop_at: Optional[float] = None
        self._last_drain = 0.0
        self._stalled_since: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self, duration: float) -> None:
        self._started_at = self.sim.now
        self._stop_at = self.sim.now + duration
        self._last_drain = self.sim.now
        self.client.connect()
        self._drain_tick()

    @property
    def done(self) -> bool:
        return self._stop_at is not None and self.sim.now >= self._stop_at

    # -- request/response loop ---------------------------------------------------
    def _request_next(self) -> None:
        if self.done or self._expected > 0:
            return
        if self.buffer_seconds >= MAX_BUFFER_SECONDS:
            self.sim.schedule(SEGMENT_SECONDS / 2, self._request_next)
            return
        level = self._choose_level()
        self._requested_level = level
        self._expected = segment_bytes(level)
        self._request_started = self.sim.now
        self.client.send(REQUEST_BASE + level)

    def _choose_level(self) -> int:
        if self.throughput_ewma_bps is None:
            return 0
        budget = self.throughput_ewma_bps * SAFETY_FACTOR
        level = 0
        for candidate, bitrate in enumerate(LEVEL_BITRATES):
            if bitrate <= budget:
                level = candidate
        return level

    def _on_data(self, nbytes: int) -> None:
        if self._expected <= 0:
            return
        self._expected -= nbytes
        if self._expected > 0:
            return
        # Segment complete: update ABR estimate and the buffer.
        elapsed = max(self.sim.now - self._request_started, 1e-6)
        sample = segment_bytes(self._requested_level) * 8 / elapsed
        if self.throughput_ewma_bps is None:
            self.throughput_ewma_bps = sample
        else:
            self.throughput_ewma_bps = (EWMA_ALPHA * sample
                                        + (1 - EWMA_ALPHA)
                                        * self.throughput_ewma_bps)
        self.stats.segments_downloaded += 1
        self.stats.levels_played.append(self._requested_level)
        self.buffer_seconds += SEGMENT_SECONDS
        if not self.playing and self.buffer_seconds >= MIN_START_BUFFER:
            self.playing = True
            if self.stats.startup_delay is None:
                self.stats.startup_delay = self.sim.now - self._started_at
            if self._stalled_since is not None:
                stalled = self.sim.now - self._stalled_since
                self.stats.rebuffer_seconds += stalled
                self._stalled_since = None
                obs = self.sim.obs
                if obs is not None and obs.tracing:
                    obs.tracer.instant(
                        "video.resume", f"video:{self.host.name}",
                        self.sim.now, category="app",
                        data={"stalled_ms": round(stalled * 1000.0, 3)})
        self._request_next()

    # -- playout drain -------------------------------------------------------------
    def _drain_tick(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_drain
        self._last_drain = now
        if self.playing:
            self.buffer_seconds -= elapsed
            if self.buffer_seconds <= 0:
                self.buffer_seconds = 0.0
                self.playing = False
                self.stats.rebuffer_events += 1
                self._stalled_since = now
                obs = self.sim.obs
                if obs is not None and obs.tracing:
                    obs.tracer.instant(
                        "video.rebuffer", f"video:{self.host.name}",
                        now, category="app")
        if not self.done:
            self.sim.schedule(0.25, self._drain_tick)
