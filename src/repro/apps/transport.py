"""Uniform byte-stream facade over TCP and MPTCP.

The paper's applications run unmodified over either transport ("MPTCP is
largely backward compatible with the existing socket API") — this module
gives our application models the same property: a client/server stream
pair that is constructed with ``kind="tcp"`` (the MNO baseline) or
``kind="mptcp"`` (CellBricks) and behaves identically above the API.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net import (
    DEFAULT_ADDRESS_WAIT,
    Host,
    MptcpConnection,
    MptcpListener,
    MptcpServerConnection,
    TcpConnection,
    TcpListener,
)
from repro.net.quic import QuicConnection, QuicListener, QuicServerConnection

KIND_TCP = "tcp"
KIND_MPTCP = "mptcp"
KIND_QUIC = "quic"


class StreamPeer:
    """Server-side accepted stream (either transport)."""

    def __init__(self, inner):
        self._inner = inner
        self.bytes_received = 0
        self.on_data: Optional[Callable[[int], None]] = None
        if isinstance(inner, (MptcpServerConnection, QuicServerConnection)):
            inner.on_data = self._handle
        else:
            inner.on_data = lambda nbytes, meta: self._handle(nbytes)

    def _handle(self, nbytes: int) -> None:
        self.bytes_received += nbytes
        if self.on_data is not None:
            self.on_data(nbytes)

    def send(self, nbytes: int) -> None:
        try:
            self._inner.send(nbytes)
        except RuntimeError:
            pass  # peer already closed (e.g. a delayed server response)

    def close(self) -> None:
        self._inner.close()


class StreamServer:
    """Listens on (host, port) and surfaces accepted :class:`StreamPeer`."""

    def __init__(self, kind: str, host: Host, port: int,
                 on_peer: Callable[[StreamPeer], None]):
        self.kind = kind
        self.peers: list[StreamPeer] = []

        def accept(inner):
            peer = StreamPeer(inner)
            self.peers.append(peer)
            on_peer(peer)

        if kind == KIND_TCP:
            self._listener = TcpListener(host, port, accept)
        elif kind == KIND_MPTCP:
            self._listener = MptcpListener(host, port, accept)
        elif kind == KIND_QUIC:
            self._listener = QuicListener(host, port, accept)
        else:
            raise ValueError(f"unknown transport kind {kind!r}")

    def close(self) -> None:
        self._listener.close()


class StreamClient:
    """Client-side stream: same API over TCP and MPTCP."""

    def __init__(self, kind: str, host: Host, server_ip: str, port: int,
                 address_wait: float = DEFAULT_ADDRESS_WAIT):
        self.kind = kind
        self._host = host
        self.bytes_received = 0
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_fail: Optional[Callable[[str], None]] = None
        if kind == KIND_TCP:
            self._inner = TcpConnection(host, server_ip, port)
            self._inner.on_data = lambda nbytes, meta: self._handle(nbytes)
        elif kind == KIND_MPTCP:
            self._inner = MptcpConnection(host, server_ip, port,
                                          address_wait=address_wait)
            self._inner.on_data = self._handle
        elif kind == KIND_QUIC:
            self._inner = QuicConnection(host, server_ip, port)
            self._inner.on_data = self._handle
        else:
            raise ValueError(f"unknown transport kind {kind!r}")
        self._inner.on_established = self._established
        if hasattr(self._inner, "on_fail"):
            self._inner.on_fail = self._failed

    @property
    def inner(self):
        return self._inner

    def _handle(self, nbytes: int) -> None:
        self.bytes_received += nbytes
        obs = self._host.sim.obs
        if obs is not None and obs.active_migrations:
            self._obs_close_migration(obs)
        if self.on_data is not None:
            self.on_data(nbytes)

    def _obs_close_migration(self, obs) -> None:
        """First payload byte delivered after a switch: the stall is
        over.  Close the migration root the :class:`MobilityManager`
        registered for this host — its duration *is* the end-to-end
        stall the leg breakdown decomposes."""
        root = obs.active_migrations.pop(self._host.name, None)
        if root is None:
            return
        if root.end is None:
            obs.tracer.instant(
                "migration.first_data", "mobility", self._host.sim.now,
                trace_id=root.trace_id, parent_id=root.span_id,
                category="mobility")
            obs.tracer.finish(root, self._host.sim.now)

    def _established(self) -> None:
        if self.on_established is not None:
            self.on_established()

    def _failed(self, reason: str) -> None:
        if self.on_fail is not None:
            self.on_fail(reason)

    def connect(self) -> None:
        self._inner.connect()

    def send(self, nbytes: int) -> None:
        self._inner.send(nbytes)

    def close(self) -> None:
        self._inner.close()
