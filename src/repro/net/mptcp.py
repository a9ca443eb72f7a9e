"""MPTCP: one logical connection over replaceable TCP subflows.

This is the host-side mechanism CellBricks relies on for seamless mobility
(§4.2): when a UE detaches from one bTelco and attaches to another, its IP
address changes; the MPTCP endpoint opens a *new subflow* from the new
address (a fresh 3WHS + slow-start), tells the peer to drop the old one
(REMOVE_ADDR), and the connection-level byte stream continues unbroken.

Modeled faithfully from the paper's description of the mainline Linux
implementation:

* the **address worker wait** — mainline MPTCP waits a hard-coded 500 ms
  between detecting an address change and taking corrective action
  (``mptcp_fullmesh.c::address_worker``); the paper keeps it for default
  runs and removes it for Fig 9's factor analysis.  Here it is the
  ``address_wait`` parameter.
* the **60 s address timeout** — if no new address appears, the connection
  is torn down.
* **re-injection** — connection-level data that was queued or in flight on
  a dead subflow is re-sent on the replacement subflow; the receiver
  deduplicates via DSS sequence space.

Both endpoints are symmetric byte-stream endpoints; the *client* (UE) side
drives subflow management, matching the UE-driven design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import (
    CounterAttr,
    LazyCounterAttr,
    MetricsRegistry,
    create_counters,
)

from .endpoint import Reassembly, TracedEndpoint
from .node import Host
from .packet import UNSPECIFIED
from .sim import Timer
from .tcp import TcpConnection, TcpListener

DEFAULT_ADDRESS_WAIT = 0.5     # mainline MPTCP address_worker period
DEFAULT_ADDRESS_TIMEOUT = 60.0  # paper §4.2: teardown if no address by 60 s


@dataclass(frozen=True)
class DssMapping:
    """DSS option: maps subflow payload bytes to connection sequence space."""

    conn_seq: int

    def advance(self, nbytes: int) -> "DssMapping":
        return DssMapping(self.conn_seq + nbytes)


@dataclass(frozen=True)
class MpCapable:
    """SYN meta for the initial subflow."""

    token: int


@dataclass(frozen=True)
class MpJoin:
    """SYN meta for additional subflows joining an existing connection."""

    token: int


@dataclass(frozen=True)
class RemoveAddr:
    """Control meta asking the peer to drop subflows from ``address``."""

    token: int
    address: str


class MptcpEndpoint(TracedEndpoint):
    """Common machinery for both ends of an MPTCP connection."""

    obs_layer = "mptcp"
    subflows_added = LazyCounterAttr("mptcp.subflows_added")
    subflows_failed = LazyCounterAttr("mptcp.subflows_failed")
    subflows_removed = LazyCounterAttr("mptcp.subflows_removed")

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        self.metrics = MetricsRegistry(node=f"mptcp:{host.name}")
        create_counters(self)
        self.subflows: list[TcpConnection] = []
        self.active_subflow: Optional[TcpConnection] = None
        self._receiver = Reassembly()   # connection-level DSS space
        self._snd_conn_nxt = 0          # next conn seq to assign
        self.bytes_delivered = 0        # in-order bytes handed to the app
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_fail: Optional[Callable[[str], None]] = None
        self.closed = False
        self._fin_requested = False
        self.subflow_count = 0

    # -- sending ----------------------------------------------------------
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` on the connection-level stream."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self._fin_requested:
            raise RuntimeError("cannot send after close()")
        mapping = DssMapping(self._snd_conn_nxt)
        self._snd_conn_nxt += nbytes
        if self.active_subflow is not None \
                and self.active_subflow.state != "DONE":
            self.active_subflow.send(nbytes, meta=mapping)
        else:
            self._backlog.append((nbytes, mapping))

    _backlog: list

    def close(self) -> None:
        self._fin_requested = True
        if self.active_subflow is not None:
            self.active_subflow.close()

    # -- subflow plumbing ---------------------------------------------------
    def _wire_subflow(self, subflow: TcpConnection) -> None:
        self.subflows.append(subflow)
        self.subflow_count += 1
        self.subflows_added += 1
        self._obs_instant("mptcp.subflow_add",
                          local=subflow.local_ip, remote=subflow.remote_ip)
        subflow.on_data = self._on_subflow_data
        subflow.on_close = self._on_subflow_close
        subflow.on_fail = lambda reason, sf=subflow: \
            self._on_subflow_fail(sf, reason)

    def _on_subflow_data(self, nbytes: int, meta: object) -> None:
        if isinstance(meta, RemoveAddr):
            self._handle_remove_addr(meta)
            return
        if isinstance(meta, DssMapping):
            delivered = self._receiver.receive(meta.conn_seq, nbytes)
        else:
            # Untagged data (plain-TCP fallback peers): treat as in-order.
            delivered = nbytes
        if delivered > 0:
            self.bytes_delivered += delivered
            if self.on_data is not None:
                self.on_data(delivered)

    def _handle_remove_addr(self, control: RemoveAddr) -> None:
        for subflow in list(self.subflows):
            if subflow.remote_ip == control.address \
                    and subflow is not self.active_subflow:
                subflow.abort("REMOVE_ADDR")
                self.subflows.remove(subflow)
                self.subflows_removed += 1
                self._obs_instant("mptcp.subflow_remove",
                                  remote=subflow.remote_ip,
                                  reason="REMOVE_ADDR")

    def _on_subflow_close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.on_close is not None:
                self.on_close()

    def _on_subflow_fail(self, subflow: TcpConnection, reason: str) -> None:
        self._obs_finish(getattr(subflow, "_obs_span", None), status="error")
        if subflow in self.subflows:
            self.subflows.remove(subflow)
            self.subflows_failed += 1
            self._obs_instant("mptcp.subflow_fail",
                              remote=subflow.remote_ip, reason=reason)

    # -- re-injection -------------------------------------------------------
    def _salvage(self, subflow: TcpConnection) -> list[tuple[int, DssMapping]]:
        """Collect conn-level ranges not known-delivered on ``subflow``."""
        ranges: list[tuple[int, DssMapping]] = []
        for chunk in subflow.unacked_chunks():
            if isinstance(chunk.meta, DssMapping):
                ranges.append((chunk.length, chunk.meta))
        for nbytes, meta in subflow.take_unsent_ranges():
            if isinstance(meta, DssMapping):
                ranges.append((nbytes, meta))
        ranges.sort(key=lambda item: item[1].conn_seq)
        return ranges


class MptcpConnection(MptcpEndpoint):
    """Client (UE) side: owns subflow lifecycle and address management."""

    handover_count = CounterAttr("mptcp.handovers")

    def __init__(self, host: Host, remote_ip: str, remote_port: int,
                 address_wait: float = DEFAULT_ADDRESS_WAIT):
        super().__init__(host)
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.address_wait = address_wait
        self.token = self.sim.sequence("mptcp.token")
        self._backlog = []
        self._established_once = False
        self._worker_timer = Timer(self.sim, self._address_worker)
        self._timeout_timer = Timer(self.sim, self._on_address_timeout)
        self._previous_address: Optional[str] = None
        self._pending_remove: Optional[str] = None
        self._started = False
        self.subflow_established_times: list[float] = []
        self._wait_span = None
        host.add_address_listener(self._on_address_change)

    # -- lifecycle ----------------------------------------------------------
    def connect(self) -> None:
        """Open the initial subflow (MP_CAPABLE)."""
        self._started = True
        self._open_subflow(MpCapable(self.token))

    def _open_subflow(self, syn_meta: object) -> None:
        subflow = TcpConnection(self.host, self.remote_ip, self.remote_port)
        subflow._obs_span = self._obs_begin_span(
            "mptcp.subflow_establish", syn=type(syn_meta).__name__)
        self._wire_subflow(subflow)
        subflow.on_established = lambda sf=subflow: \
            self._on_subflow_established(sf)
        # Carry the MPTCP option on the SYN via a side channel: the listener
        # inspects it to MP_CAPABLE-create or MP_JOIN an existing connection.
        subflow.syn_meta = syn_meta
        subflow.connect()

    def _on_subflow_established(self, subflow: TcpConnection) -> None:
        self._obs_finish(getattr(subflow, "_obs_span", None))
        self.active_subflow = subflow
        self.subflow_established_times.append(self.sim.now)
        if self._pending_remove is not None \
                and self._pending_remove != subflow.local_ip:
            # Tell the peer to forget the pre-handover address (§4.2 step
            # iii: REMOVE_ADDR for the previous subflow).
            subflow.send(1, meta=RemoveAddr(self.token, self._pending_remove))
            self._pending_remove = None
        for nbytes, mapping in self._backlog:
            subflow.send(nbytes, meta=mapping)
        self._backlog.clear()
        if self._fin_requested:
            subflow.close()
        if not self._established_once:
            self._established_once = True
            if self.on_established is not None:
                self.on_established()

    # -- address management ---------------------------------------------------
    def _on_address_change(self, old_ip: str, new_ip: str) -> None:
        if self.closed:
            return
        if new_ip == UNSPECIFIED:
            # Invalidation: remember the stale address, start the watch
            # timeout, and (as mainline does) defer action to the worker.
            self._previous_address = old_ip
            if self._wait_span is None or self._wait_span.end is not None:
                self._wait_span = self._obs_begin_span(
                    "mptcp.address_wait", stale=old_ip)
            self._timeout_timer.start(DEFAULT_ADDRESS_TIMEOUT)
            self._worker_timer.start(self.address_wait)
        else:
            self._timeout_timer.stop()
            if not self._worker_timer.armed:
                # The wait period already elapsed while we had no address;
                # act immediately now that one exists.
                self._address_worker()

    def _address_worker(self) -> None:
        """The deferred corrective action after an address change."""
        if self.closed or not self._started:
            return
        if not self.host.has_address:
            return  # still no address; we re-run when one shows up
        self._obs_finish(self._wait_span)
        self._wait_span = None
        stale = [sf for sf in self.subflows
                 if sf.local_ip != self.host.address]
        active_ok = (self.active_subflow is not None
                     and self.active_subflow not in stale
                     and self.active_subflow.state != "DONE")
        if active_ok and not stale:
            return  # address came back unchanged; nothing to do
        salvaged: list[tuple[int, DssMapping]] = []
        for subflow in stale:
            salvaged.extend(self._salvage(subflow))
            subflow.abort("address changed")
            if subflow in self.subflows:
                self.subflows.remove(subflow)
            if subflow is self.active_subflow:
                self.active_subflow = None
        salvaged.sort(key=lambda item: item[1].conn_seq)
        if self.active_subflow is None:
            self._pending_remove = self._previous_address
            self.handover_count += 1
            self._obs_instant("mptcp.handover",
                              new_local=self.host.address,
                              salvaged=len(salvaged))
            self._open_and_reinject(salvaged)

    def _open_and_reinject(self, salvaged: list[tuple[int, DssMapping]]) -> None:
        self._backlog = salvaged + self._backlog
        if self._established_once:
            self._open_subflow(MpJoin(self.token))
        else:
            # The initial handshake never completed, so the listener may
            # not know our token yet and would reset an MP_JOIN
            # (RFC 8684 §3.2): restart with MP_CAPABLE instead.
            self._open_subflow(MpCapable(self.token))

    def _on_address_timeout(self) -> None:
        """No new address within the timeout: tear the connection down."""
        self.closed = True
        self._obs_finish(self._wait_span, status="timeout")
        self._wait_span = None
        self._worker_timer.stop()
        for subflow in self.subflows:
            subflow.abort("address timeout")
        self.subflows.clear()
        if self.on_fail is not None:
            self.on_fail("no address within timeout")

    def _on_subflow_fail(self, subflow: TcpConnection, reason: str) -> None:
        super()._on_subflow_fail(subflow, reason)
        if self.closed or reason in ("address changed", "address timeout"):
            return
        if subflow is self.active_subflow:
            self.active_subflow = None
            if self.host.has_address:
                # e.g. SYN timeout right after attachment: retry.
                self._open_and_reinject(self._salvage(subflow))


class MptcpServerConnection(MptcpEndpoint):
    """Server side: subflows are attached by :class:`MptcpListener`."""

    def __init__(self, host: Host, token: int):
        super().__init__(host)
        self.token = token
        self._backlog = []

    def attach_subflow(self, subflow: TcpConnection) -> None:
        self._wire_subflow(subflow)
        previous = self.active_subflow
        salvaged: list[tuple[int, DssMapping]] = []
        if previous is not None and previous.state != "ESTABLISHED":
            salvaged = self._salvage(previous)
        self.active_subflow = subflow
        for nbytes, mapping in salvaged + self._backlog:
            subflow.send(nbytes, meta=mapping)
        self._backlog = []

    def _handle_remove_addr(self, control: RemoveAddr) -> None:
        """Peer asks us to drop subflows towards a stale client address."""
        for subflow in list(self.subflows):
            if subflow.remote_ip == control.address:
                salvaged = self._salvage(subflow)
                subflow.abort("REMOVE_ADDR")
                if subflow in self.subflows:
                    self.subflows.remove(subflow)
                if subflow is self.active_subflow:
                    self.active_subflow = None
                if salvaged and self.active_subflow is not None:
                    for nbytes, mapping in salvaged:
                        self.active_subflow.send(nbytes, meta=mapping)
                elif salvaged:
                    self._backlog = salvaged + self._backlog

    def send(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        mapping = DssMapping(self._snd_conn_nxt)
        self._snd_conn_nxt += nbytes
        subflow = self.active_subflow
        if subflow is not None and subflow.state not in ("DONE",):
            # TCP buffers sends made before establishment completes.
            subflow.send(nbytes, meta=mapping)
        else:
            self._backlog.append((nbytes, mapping))


class MptcpListener:
    """Accepts MP_CAPABLE subflows as new connections and MP_JOIN subflows
    into existing ones (matched by token)."""

    def __init__(self, host: Host, port: int,
                 on_connection: Callable[[MptcpServerConnection], None]):
        self.host = host
        self.port = port
        self.on_connection = on_connection
        self.connections: dict[int, MptcpServerConnection] = {}
        # Plain-TCP fallback peers carry no MPTCP option, so they get
        # listener-local tokens from the negative space (a real MP_JOIN
        # token can never collide with them).
        self._fallback_tokens = itertools.count(-1, -1)
        self.rejected_joins = 0
        self._listener = TcpListener(host, port, self._on_accept)

    def _on_accept(self, subflow: TcpConnection) -> None:
        # The SYN meta rode in on the client subflow object; our simulator
        # delivers it via the packet that created this connection.  The
        # listener stores it on the accepted connection (see TcpListener).
        meta = getattr(subflow, "syn_meta", None)
        if isinstance(meta, MpJoin):
            if meta.token in self.connections:
                self.connections[meta.token].attach_subflow(subflow)
            else:
                # RFC 8684 §3.2: a JOIN for an unknown token is answered
                # with a reset, never a silently minted connection.
                self.rejected_joins += 1
                self.host.sim.schedule(0.0, subflow.abort,
                                       "unknown MPTCP token")
            return
        if isinstance(meta, MpCapable):
            token = meta.token
            if token in self.connections:
                # The client restarted its initial subflow (our SYN-ACK
                # died before it established): rejoin the connection we
                # already minted rather than shadowing it with a new one.
                self.connections[token].attach_subflow(subflow)
                return
        else:
            token = next(self._fallback_tokens)
        connection = MptcpServerConnection(self.host, token)
        connection.attach_subflow(subflow)
        self.connections[token] = connection
        self.on_connection(connection)

    def close(self) -> None:
        self._listener.close()
