"""Incremental-deployment fallback: plain TCP + L7 restart (§4.2).

Until MPTCP is universally deployed, the paper's strategy is to "fallback
to TCP and rely on the application and/or L7 protocols (e.g., SIP
re-invite; HTTP range headers) to efficiently restart failed
connections".  SIP re-INVITE lives in :mod:`repro.apps.voip`; this module
implements the HTTP-range side: a download client that, when the UE's
address changes mid-transfer, opens a *new* TCP connection from the new
address and resumes with a Range request for the missing suffix — so only
the in-flight bytes are re-fetched, not the whole object.

Wire framing: a range request is ``RANGE_REQUEST_SIZE + kilobytes_offset``
bytes; the server replies with ``total - offset`` bytes.  Offsets are
rounded down to 1 KiB (range boundaries on real CDNs are similarly
coarse), so a restart may re-download up to 1 KiB.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net import Host, TcpConnection, TcpListener, UNSPECIFIED

FALLBACK_PORT = 8081
RANGE_REQUEST_SIZE = 600
RANGE_GRANULARITY = 1024


class RangeDownloadServer:
    """Serves one object of ``total_bytes``; honors Range offsets."""

    def __init__(self, host: Host, total_bytes: int):
        self.total_bytes = total_bytes
        self.requests = 0
        self.range_requests = 0
        self._listener = TcpListener(host, FALLBACK_PORT, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        pending = [0]

        def on_data(nbytes: int, meta: object) -> None:
            pending[0] += nbytes
            if pending[0] >= RANGE_REQUEST_SIZE:
                offset_kib = pending[0] - RANGE_REQUEST_SIZE
                pending[0] = 0
                offset = offset_kib * RANGE_GRANULARITY
                self.requests += 1
                if offset > 0:
                    self.range_requests += 1
                remaining = max(0, self.total_bytes - offset)
                if remaining:
                    conn.send(remaining)

        conn.on_data = on_data


class RangeRestartDownloader:
    """Plain-TCP download that survives IP changes via Range restarts.

    This is the legacy-UE story: no MPTCP anywhere, yet a bTelco switch
    costs only a reconnect plus up to 1 KiB of duplicate data.
    """

    def __init__(self, host: Host, server_ip: str, total_bytes: int,
                 restart_delay: float = 0.0):
        """``restart_delay`` models how long the *application* takes to
        notice the dead connection.  A CellBricks-aware client (like the
        modified pjsua) reacts to the address-change signal instantly
        (0.0); an unmodified legacy app only notices via socket timeouts
        (hundreds of ms to seconds)."""
        self.host = host
        self.sim = host.sim
        self.server_ip = server_ip
        self.total_bytes = total_bytes
        self.restart_delay = restart_delay
        self.received = 0
        self.restarts = 0
        self.completed_at: Optional[float] = None
        self.on_complete: Optional[Callable[[], None]] = None
        self._conn: Optional[TcpConnection] = None
        self._started = False
        host.add_address_listener(self._on_address_change)

    def start(self) -> None:
        self._started = True
        self._open_connection()

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def _open_connection(self) -> None:
        conn = TcpConnection(self.host, self.server_ip, FALLBACK_PORT)
        self._conn = conn
        conn.on_established = lambda: self._send_request(conn)
        conn.on_data = self._on_data
        conn.on_fail = lambda reason: self._maybe_restart()
        conn.connect()

    def _send_request(self, conn: TcpConnection) -> None:
        offset_kib = self.received // RANGE_GRANULARITY
        # Anything past the last whole KiB will arrive again; rewind the
        # counter so accounting stays exact.
        self.received = offset_kib * RANGE_GRANULARITY
        conn.send(RANGE_REQUEST_SIZE + offset_kib)

    def _on_data(self, nbytes: int, meta: object) -> None:
        if self.done:
            return
        self.received += nbytes
        if self.received >= self.total_bytes:
            self.received = self.total_bytes
            self.completed_at = self.sim.now
            if self._conn is not None:
                self._conn.abort("complete")
                self._conn = None
            if self.on_complete is not None:
                self.on_complete()

    def _on_address_change(self, old_ip: str, new_ip: str) -> None:
        if not self._started or self.done:
            return
        if new_ip == UNSPECIFIED:
            # Connection is dead the moment the address goes; drop it so
            # its retransmissions stop immediately.
            if self._conn is not None:
                self._conn.abort("address lost")
                self._conn = None
        else:
            self._maybe_restart()

    def _maybe_restart(self) -> None:
        if not self._started or self.done or not self.host.has_address:
            return
        self.restarts += 1
        if self.restart_delay > 0:
            self.sim.schedule(self.restart_delay, self._open_connection)
        else:
            self._open_connection()
