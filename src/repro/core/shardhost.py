"""Distributed broker shards: network-attached SAP shard hosts.

PR 5 sharded the broker's SAP state *in process*; this module moves each
shard onto its own simulated host, reached over real signaling links, so
the retransmission / loss / outage semantics of the reliable transport
apply to the broker's own internals end-to-end:

* :class:`ShardHost` — a :class:`~repro.lte.signaling.SignalingNode`
  wrapping a single-shard :class:`~repro.core.sap.BrokerSap`.  Each
  shard runs as a primary + a warm standby replica pair.  ``crash()``
  is fail-stop: all state is lost and every datagram is dropped until
  ``restart()``.

* :class:`_OpStream` — the one way session state leaves a host.  The
  primary's journal to its standby, a resync and a rebalance handoff
  are constructions of it; :meth:`ShardHost._handle_op_batch` is the
  one receiver.

* :class:`ShardFrontend` — lives inside ``brokerd``: decrypts the
  authVec just enough to route by the consistent-hash ring, forwards
  auth requests to the owning shard host, health-checks every host with
  heartbeat probes, and on a detected death promotes the warm replica.
  Between detection and promotion the shard is *degraded*: cached
  (retransmit-replay) responses are served from the replica and fresh
  auths fail fast with the retryable ``degraded`` denial cause instead
  of timing out.

* Rebalances (``add_shard`` / ``remove_shard``) are network protocols:
  begin, one op stream per (source, target) pair relayed through the
  frontend (shard hosts only have links to the broker and to their own
  replica), commit.  Attaches that land mid-handoff for a moving
  subscriber are parked at the frontend and forwarded after commit —
  never dropped.

The provisioning plane (subscriber enrollment, suspension flags, lawful
intercept mandates) is modeled as a strongly-consistent subscriber DB
shared by the broker fleet: the same :class:`BrokerSubscriber` records
are enrolled into every host's SAP, so a revocation's *suspension* is
globally visible immediately while the bTelco-facing revocation push
remains the real ack'd network protocol.  Session state — the part the
paper's security argument depends on across failures — is what moves
over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto import CryptoError
from repro.lte.signaling import CounterAttr, SignalingNode
from repro.net import Host, Link

from .costs import AUTH_REQUEST_PROCESSING, AUTHVEC_DECRYPT_COST
from .messages import (
    AuthVec,
    DenialCause,
    MessageError,
)
from .sap import BrokerSap, SapError, ShardRouter

__all__ = [
    "ShardHost",
    "ShardFrontend",
    "deploy_shard_hosts",
    "ShardAuthRequest",
    "ShardAuthResponse",
]


# -- shard protocol messages ------------------------------------------------

@dataclass(frozen=True)
class ShardAuthRequest:
    """Frontend -> shard host: one routed SAP authentication request.
    An unpromoted standby serves it from the replicated idempotency
    cache only (degraded mode)."""

    auth_req_t: object
    reply_token: int = 0


@dataclass(frozen=True)
class ShardAuthResponse:
    """Shard host -> frontend: the SAP verdict plus, on approval, the
    minted grant so the frontend can keep its billing/revocation
    bookkeeping without a second round trip."""

    approved: bool
    reply_token: int = 0
    auth_resp_t: object = None
    auth_resp_u: object = None
    grant: object = None
    cause: str = ""
    retryable: bool = False
    cached: bool = False


@dataclass(frozen=True)
class ShardScopeNotice:
    """Frontend -> shard host: advance a grant's authoritative
    scope-attach counter (a bTelco validated a scope-local attach and
    notified the broker; brokerd already checked the notice signature)."""

    session_id: str
    counter: int
    reply_token: int = 0


@dataclass(frozen=True)
class ShardScopeAck:
    """Shard host -> frontend: verdict on a scope-counter advance."""

    session_id: str
    counter: int
    reply_token: int = 0
    accepted: bool = False
    retryable: bool = False
    cause: str = ""


@dataclass(frozen=True)
class ShardHeartbeat:
    """Frontend -> shard host liveness probe (plain datagram: losing a
    few of these *is* the failure signal, so no retransmission)."""

    seq: int


@dataclass(frozen=True)
class ShardHeartbeatAck:
    seq: int
    shard_id: int


@dataclass(frozen=True)
class OpBatch:
    """One frozen, sequenced slice of an op stream: ops of
    :meth:`repro.core.sap.BrokerSap.apply`, cut by :class:`_OpStream`.

    ``restart`` counts how often the sender started ``stream`` over; a
    receiver forgets what it applied under a lower count.  ``closed``
    marks a slice of an ``export()`` (order-free ops, ``last`` on the
    final one) as opposed to a journal, whose batches apply strictly in
    order.  ``target_shard`` routes a batch sent via the frontend to
    that shard's current primary (shard hosts only have links to the
    broker and to their own peer)."""

    stream: object
    restart: int
    seq: int
    ops: tuple = ()
    closed: bool = False
    last: bool = False
    target_shard: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return 64 + 96 * len(self.ops)

    def ack(self) -> "OpBatchAck":
        """The receiver's answer once this batch is applied.  Sender
        and relay match an incoming ack by equality with it."""
        return OpBatchAck(self.stream, self.restart, self.seq, self.last)


@dataclass(frozen=True)
class OpBatchAck:
    stream: object
    restart: int
    seq: int
    last: bool = False


@dataclass(frozen=True)
class PromoteReplica:
    """Frontend -> standby: take over as primary (epoch fences a stale
    promotion that crosses a later failover)."""

    shard_id: int
    epoch: int


@dataclass(frozen=True)
class PromoteAck:
    shard_id: int
    epoch: int


@dataclass(frozen=True)
class ResyncPeer:
    """Frontend -> current primary: your peer lost touch with the
    stream (rejoined empty, or sat out a partition); start it over from
    a full snapshot."""

    shard_id: int
    epoch: int


@dataclass(frozen=True)
class HandoffBegin:
    """Frontend -> source shard: stream the session state of
    ``moving_ids`` to ``target_shard`` as a closed op stream named
    ``handoff_id``."""

    handoff_id: int
    target_shard: int
    moving_ids: tuple


@dataclass(frozen=True)
class HandoffCommit:
    """Frontend -> source shard, after the ``last`` batch of every
    handoff of the rebalance is acked: drop the moved state (and tell
    your replica to forget it)."""

    handoff_id: int
    moving_ids: tuple


@dataclass(frozen=True)
class OrderAck:
    """Shard host -> frontend: receipt for a :class:`ResyncPeer`,
    :class:`HandoffBegin` or :class:`HandoffCommit`.  It completes the
    order's reliable request and carries nothing."""


# -- the op stream ----------------------------------------------------------

#: stream id of a primary's journal to its standby (handoffs use their id).
STANDBY = "standby"


@dataclass
class _OpStream:
    """Sender half of one op stream out of a :class:`ShardHost`.

    Queued ops are cut into frozen :class:`OpBatch` slices of at most
    ``chunk`` ops (``None``: the whole backlog), one in flight, each
    re-sent unchanged until acked — a seq is never reused for different
    ops, or a batch that was delivered (ack lost) would swallow its
    replacement.  A *closed* stream (nothing more will be queued: it
    carries an ``export()`` slice) flushes back to back and marks its
    final batch ``last``; an open one flushes on the host's
    ``replication_interval`` timer.  Each batch is a reliable request of
    ``attempts`` tries from ``timeout``; ``patience`` seconds after the
    last ack the peer is presumed dead and the stream stops.
    """

    host: "ShardHost"
    stream: object
    dst_ip: str
    closed: bool
    chunk: Optional[int]
    timeout: float
    attempts: int
    patience: float
    sent: object               # registry counter: batches cut
    giveups: object            # registry counter: requests given up on
    target_shard: Optional[int] = None
    log: list = field(default_factory=list)
    stopped: bool = False
    restarts: int = 0
    seq: int = 0
    inflight: Optional[OpBatch] = None
    timer: object = None
    finished: bool = False     # a closed stream has cut its last batch
    last_ack_at: float = 0.0

    def queue(self, op: tuple) -> None:
        if self.stopped:
            return
        self.log.append(op)
        self.wake()

    def wake(self) -> None:
        if self.closed:
            self._flush()
        elif self.log and self.timer is None:
            self.timer = self.host.sim.schedule(
                self.host.replication_interval, self._flush)

    def restart(self, ops: list) -> None:
        """Start over from ``ops`` under a bumped restart count, so the
        receiver forgets what it applied before.  The request still in
        flight runs out on its own: its batch carries the old count."""
        self.restarts += 1
        self.seq = 0
        self.inflight = None
        self.log = ops
        self.stopped = self.finished = False
        self.last_ack_at = self.host.sim.now
        if self.timer is None:
            self.timer = self.host.sim.schedule(0.0, self._flush)

    def stop(self) -> None:
        """Drop the backlog and send nothing more."""
        self.stopped = True
        self.inflight = None
        self.log.clear()
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _flush(self) -> None:
        self.timer = None
        if self.stopped or self.finished or self.inflight is not None:
            return   # one batch in flight: the next goes after its ack
        if not (self.log or self.closed):
            return
        ops = tuple(self.log[:self.chunk])
        del self.log[:self.chunk]
        self.seq += 1
        # An empty slice is still one empty ``last`` batch.
        self.finished = self.closed and not self.log
        self.inflight = OpBatch(
            stream=self.stream, restart=self.restarts, seq=self.seq,
            ops=ops, closed=self.closed, last=self.finished,
            target_shard=self.target_shard)
        self.sent.inc()
        self._transmit(self.inflight)

    def _transmit(self, batch: OpBatch) -> None:
        if batch is self.inflight:
            self.host.send_request(
                self.dst_ip, batch, size=batch.wire_size,
                timeout=self.timeout, max_attempts=self.attempts,
                on_give_up=self._gave_up)

    def _gave_up(self, batch: OpBatch) -> None:
        """The request was never answered: while its batch is still the
        one in flight (the stream neither stopped nor started over),
        re-send the *same* frozen batch as a fresh request."""
        self.giveups.inc()
        if batch is not self.inflight:
            return
        if self.host.sim.now - self.last_ack_at > self.patience:
            # Bounded event queue; the frontend resyncs a peer that
            # rejoins.
            self.stop()
            return
        self.host.sim.schedule(self.host.replication_interval,
                               self._transmit, batch)

    def acked(self, ack: OpBatchAck) -> None:
        if self.inflight is None or ack != self.inflight.ack():
            return
        self.inflight = None
        self.last_ack_at = self.host.sim.now
        self.wake()


# -- the shard host ---------------------------------------------------------

class ShardHost(SignalingNode):
    """One network-attached SAP shard (primary or warm replica).

    Embeds a single-shard :class:`BrokerSap` keyed with the broker's own
    key (same trust domain — the fleet *is* the broker), namespaced via
    ``session_prefix`` so two hosts of the same broker can never mint
    colliding session ids, even across a crash/promotion cycle (the
    prefix carries a generation number bumped on every crash).

    Session state leaves a host on :class:`_OpStream` s and arrives
    through one handler, :meth:`_handle_op_batch`.
    """

    processing_costs = {
        ShardAuthRequest: AUTH_REQUEST_PROCESSING,
        ShardScopeNotice: 0.0002,
        ShardHeartbeat: 0.00002,
        OpBatch: 0.0002,
        PromoteReplica: 0.0001,
        ResyncPeer: 0.0002,
        HandoffBegin: 0.0002,
        HandoffCommit: 0.0001,
    }
    obs_category = "cloud"
    _SPAN_NAMES = {ShardAuthRequest: "sap.shard_verify"}

    #: flush cadence of an open stream, and the pause before a batch
    #: that was given up on is sent again.
    replication_interval = 0.05

    auths_served = CounterAttr("shard.auths_served")
    auths_denied = CounterAttr("shard.auths_denied")
    degraded_denials = CounterAttr("shard.degraded_denials")
    cache_serves = CounterAttr("shard.cache_serves")
    repl_batches_sent = CounterAttr("shard.repl_batches_sent")
    repl_ops_applied = CounterAttr("shard.repl_ops_applied")
    repl_giveups = CounterAttr("shard.repl_giveups")
    handoff_chunks_sent = CounterAttr("shard.handoff_chunks_sent")
    handoff_chunk_retx = CounterAttr("shard.handoff_chunk_retx")
    promotions = CounterAttr("shard.promotions")
    crashes = CounterAttr("shard.crashes")
    scope_advances = CounterAttr("shard.scope_advances")
    scope_nacks = CounterAttr("shard.scope_nacks")

    def __init__(self, host: Host, shard_id: int, id_b: str, key,
                 ca_public_key, *, frontend_ip: str, peer_ip: str,
                 session_ttl: float = 3600.0, is_replica: bool = False):
        suffix = "r" if is_replica else ""
        super().__init__(host, f"shard{shard_id}{suffix}")
        self.shard_id = shard_id
        self.id_b = id_b
        self.key = key
        self.ca_public_key = ca_public_key
        self.session_ttl = session_ttl
        self.frontend_ip = frontend_ip
        self.peer_ip = peer_ip
        self.is_replica = is_replica
        self._base_suffix = suffix
        self.crashed = False
        #: bumped on every crash so a reborn host mints in a fresh
        #: session-id namespace (no collision with its pre-crash grants).
        self.generation = 0
        #: policy hook mirrored from brokerd (reputation checks apply at
        #: the shard, exactly as they did in the in-process broker).
        self.authorize_btelco: Optional[Callable] = None
        self.sap = self._new_sap()
        #: outbound: stream id -> sender.  A standby's own journal
        #: stream is stopped: it has nobody to stream to.
        self._streams = {STANDBY: self._standby_stream(stopped=is_replica)}
        #: inbound: stream id -> (restart count, last seq applied).
        self._applied: dict[object, tuple] = {}
        self.on(ShardAuthRequest, self._handle_auth)
        self.on(ShardScopeNotice, self._handle_scope_notice)
        self.on(ShardHeartbeat, self._handle_heartbeat)
        self.on(OpBatch, self._handle_op_batch)
        self.on(OpBatchAck, self._handle_op_ack)
        self.on(PromoteReplica, self._handle_promote)
        self.on(ResyncPeer, self._handle_resync)
        self.on(HandoffBegin, self._handle_handoff_begin)
        self.on(HandoffCommit, self._handle_handoff_commit)

    # -- lifecycle -----------------------------------------------------------
    def _session_prefix(self) -> str:
        gen = f"g{self.generation}" if self.generation else ""
        return f"{self.id_b}/s{self.shard_id}{self._base_suffix}{gen}"

    def _new_sap(self) -> BrokerSap:
        sap = BrokerSap(id_b=self.id_b, key=self.key,
                        ca_public_key=self.ca_public_key,
                        session_ttl=self.session_ttl,
                        metrics=self.metrics,
                        session_prefix=self._session_prefix())
        sap.authorize_btelco = self._authorize_proxy
        # Everything the SAP applies is what the standby must apply.
        sap.journal = self._queue_op
        return sap

    def _authorize_proxy(self, id_t: str) -> Optional[str]:
        if self.authorize_btelco is None:
            return None
        return self.authorize_btelco(id_t)

    def crash(self) -> None:
        """Fail-stop: lose all state, drop every datagram until restart."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.generation += 1
        for correlation_id in list(self._pending_requests):
            self.cancel_request(correlation_id)
        # A crashed node no longer streams state anywhere.
        for stream in self._streams.values():
            stream.stop()
        self._streams = {STANDBY: self._standby_stream(stopped=True)}
        self._applied.clear()
        self._request_cache.clear()
        self._request_cache_expiry.clear()
        self.sap = self._new_sap()
        self._update_repl_gauges()

    def restart(self) -> None:
        """Rejoin empty.  The frontend notices the heartbeat acks
        resuming and re-provisions subscribers + orders a resync from
        the current primary; until then this node is a bare standby."""
        if not self.crashed:
            return
        self.crashed = False
        self.is_replica = True   # whoever survived is the primary now

    def _on_datagram(self, src_ip: str, src_port: int, body: object,
                     sent_at: float) -> None:
        if self.crashed:
            return
        super()._on_datagram(src_ip, src_port, body, sent_at)

    # -- auth serving --------------------------------------------------------
    def _handle_auth(self, src_ip: str, request: ShardAuthRequest) -> None:
        now = self.sim.now
        sap = self.sap
        sap.begin_window(now)
        triple = sap.lookup_cached(sap._request_digest(request.auth_req_t))
        cached = triple is not None
        if cached:
            self.cache_serves += 1
        elif self.is_replica:
            # Unpromoted standby: degraded mode serves only the
            # replicated idempotency cache; fresh auths fail fast with
            # a retryable cause so the UE backs off instead of timing
            # out against a dead primary.
            self.degraded_denials += 1
            self.send(src_ip, ShardAuthResponse(
                approved=False, reply_token=request.reply_token,
                cause=(f"{DenialCause.DEGRADED.value}: shard "
                       f"{self.shard_id} failing over"),
                retryable=True), size=96)
            return
        else:
            try:
                triple = sap.finish_request(
                    sap.prevalidate(request.auth_req_t, now), now)
            except SapError as exc:
                self.auths_denied += 1
                self.send(src_ip, ShardAuthResponse(
                    approved=False, reply_token=request.reply_token,
                    cause=str(exc)), size=96)
                return
            self.auths_served += 1
        sealed_t, sealed_u, grant = triple
        self.send(src_ip, ShardAuthResponse(
            approved=True, reply_token=request.reply_token,
            auth_resp_t=sealed_t, auth_resp_u=sealed_u, grant=grant,
            cached=cached),
            size=sealed_t.wire_size + sealed_u.wire_size + 96)

    def _handle_scope_notice(self, src_ip: str,
                             notice: ShardScopeNotice) -> None:
        """Advance the authoritative scope-attach counter for a grant.
        Brokerd already verified the notifying bTelco's signature; the
        shard only arbitrates the counter and the session's liveness."""
        if self.is_replica:
            # Same degraded posture as fresh auths: the bTelco's
            # reliable notice retries until the failover settles.
            accepted, retryable, cause = False, True, (
                f"{DenialCause.DEGRADED.value}: shard "
                f"{self.shard_id} failing over")
        else:
            accepted, retryable, cause = self.sap.note_scope_attach(
                notice.session_id, notice.counter, self.sim.now)
            if accepted:
                self.scope_advances += 1
            else:
                self.scope_nacks += 1
        self.send(src_ip, ShardScopeAck(
            session_id=notice.session_id, counter=notice.counter,
            reply_token=notice.reply_token, accepted=accepted,
            retryable=retryable, cause=cause), size=64)

    def _handle_heartbeat(self, src_ip: str, probe: ShardHeartbeat) -> None:
        self.send(src_ip, ShardHeartbeatAck(
            seq=probe.seq, shard_id=self.shard_id), size=32)

    # -- op streams: sender side ---------------------------------------------
    def _standby_stream(self, *, stopped: bool) -> _OpStream:
        """The journal to the peer: open, the whole backlog per batch,
        0.2 s × 4 per request, stops 5 s after the peer's last ack."""
        return _OpStream(
            self, STANDBY, self.peer_ip, closed=False, chunk=None,
            timeout=0.2, attempts=4, patience=5.0,
            sent=self.metrics.counter("shard.repl_batches_sent"),
            giveups=self.metrics.counter("shard.repl_giveups"),
            stopped=stopped)

    def _queue_op(self, op: tuple) -> None:
        self._streams[STANDBY].queue(op)
        self._update_repl_gauges()

    @property
    def repl_backlog_ops(self) -> int:
        """Ops minted but not yet acked by the replica (queued + the
        frozen in-flight batch)."""
        stream = self._streams[STANDBY]
        inflight = stream.inflight
        return len(stream.log) + (len(inflight.ops)
                                  if inflight is not None else 0)

    @property
    def repl_lag_s(self) -> float:
        """Time since the replica last confirmed the stream.  Zero when
        nothing is outstanding — an idle primary is not lagging."""
        stream = self._streams[STANDBY]
        if stream.inflight is None and not stream.log:
            return 0.0
        return self.sim.now - stream.last_ack_at

    def _update_repl_gauges(self) -> None:
        """Refreshed when an op is queued or acked, and by a crash."""
        self.metrics.gauge("shard.repl_backlog_ops").set(
            self.repl_backlog_ops)
        self.metrics.gauge("shard.repl_lag_s").set(
            round(self.repl_lag_s, 9))

    def _handle_op_ack(self, src_ip: str, ack: OpBatchAck) -> None:
        stream = self._streams.get(ack.stream)
        if stream is not None:
            stream.acked(ack)
            self._update_repl_gauges()

    def _handle_resync(self, src_ip: str, order: ResyncPeer) -> None:
        # An order that crossed a failover reaches the demoted host:
        # only a primary streams, or its reset would wipe the new one.
        if not self.is_replica:
            self._streams[STANDBY].restart(
                [("reset",)] + self.sap.export())
        self.send(src_ip, OrderAck(), size=32)

    def _handle_handoff_begin(self, src_ip: str,
                              begin: HandoffBegin) -> None:
        self.send(src_ip, OrderAck(), size=32)
        if begin.handoff_id in self._streams:
            return   # the order again; its stream is already running
        # Closed over the moving subscribers' state, relayed by the
        # frontend: 8 ops per batch, 0.3 s × 6 per request, until the
        # commit — an unreachable target is the frontend's to resolve.
        stream = self._streams[begin.handoff_id] = _OpStream(
            self, begin.handoff_id, self.frontend_ip, closed=True, chunk=8,
            timeout=0.3, attempts=6, patience=float("inf"),
            sent=self.metrics.counter("shard.handoff_chunks_sent"),
            giveups=self.metrics.counter("shard.handoff_chunk_retx"),
            target_shard=begin.target_shard,
            log=self.sap.export(set(begin.moving_ids)))
        stream.wake()

    def _handle_handoff_commit(self, src_ip: str,
                               commit: HandoffCommit) -> None:
        stream = self._streams.pop(commit.handoff_id, None)
        if stream is not None:
            stream.stop()
            for id_u in sorted(commit.moving_ids):
                self.sap.apply(("forget", id_u))
        self.send(src_ip, OrderAck(), size=32)

    # -- op streams: receiver side -------------------------------------------
    @property
    def _applied_seq(self) -> int:
        """Last seq applied from the primary's journal (read-only view)."""
        return self._applied.get(STANDBY, (0, 0))[1]

    def _handle_op_batch(self, src_ip: str, batch: OpBatch) -> None:
        """The one sequencing rule.  Per stream, under the sender's
        current restart count: a journal batch applies iff it is the
        next one (a gap is left for the sender to retry); a batch of a
        closed stream applies iff it is new, since ``export()`` ops are
        order-free and a target's promoted standby joins mid-stream.
        What was applied already is re-acked (the ack was lost); nothing
        else is ever acked."""
        restart, applied = self._applied.get(batch.stream,
                                             (batch.restart, 0))
        if batch.restart < restart:
            return   # cut before the sender started the stream over
        if batch.restart > restart:
            applied = 0
        if batch.seq > applied:
            if batch.seq != applied + 1 and not batch.closed:
                return
            # Journaled like any other op, so a handoff target's own
            # standby inherits the state too.
            for op in batch.ops:
                self.sap.apply(op)
            if not batch.closed:
                self.repl_ops_applied += len(batch.ops)
            self._applied[batch.stream] = (batch.restart, batch.seq)
        self.send(src_ip, batch.ack(), size=32)

    # -- promotion -----------------------------------------------------------
    def _handle_promote(self, src_ip: str, order: PromoteReplica) -> None:
        if self.is_replica:
            self.is_replica = False
            self.promotions += 1
            # The old primary is presumed dead: this host's own stream
            # stays stopped until the frontend orders a resync.  A
            # revocation issued while the shard had no live primary
            # reached no stream: catch up from the subscriber DB.
            for subscriber in self.sap.enrolled():
                if subscriber.suspended:
                    self.sap.revoke(subscriber.id_u)
        self.send(src_ip, PromoteAck(
            shard_id=self.shard_id, epoch=order.epoch), size=32)

    def stats(self) -> dict:
        stats = {
            "shard_id": self.shard_id,
            "role": "replica" if self.is_replica else "primary",
            "crashed": self.crashed,
            "generation": self.generation,
            "auths_served": self.auths_served,
            "auths_denied": self.auths_denied,
            "degraded_denials": self.degraded_denials,
            "cache_serves": self.cache_serves,
            "repl_batches_sent": self.repl_batches_sent,
            "repl_ops_applied": self.repl_ops_applied,
            "repl_giveups": self.repl_giveups,
            "repl_applied_seq": self._applied_seq,
            "repl_backlog_ops": self.repl_backlog_ops,
            "repl_lag_s": round(self.repl_lag_s, 9),
            "handoff_chunks_sent": self.handoff_chunks_sent,
            "handoff_chunk_retx": self.handoff_chunk_retx,
            "promotions": self.promotions,
            "crashes": self.crashes,
            "scope_advances": self.scope_advances,
            "scope_nacks": self.scope_nacks,
            "sap": self.sap.stats(),
        }
        stats.update(self.reliable_stats())
        return stats


# -- the frontend -----------------------------------------------------------

@dataclass
class _PendingAttach:
    """One attach forwarded to (or parked for) a shard host."""

    src_ip: str
    request: object            # the AGW's BrokerAuthRequest
    deferred: object
    shard_id: int
    attempts: int = 0


@dataclass
class _ShardState:
    """Frontend-side view of one shard's primary/standby pair."""

    shard_id: int
    primary_addr: str
    standby_addr: str
    hosts: dict                # addr -> ShardHost (chaos / provisioning)
    status: str = "healthy"    # healthy | degraded | down
    last_ack: dict = field(default_factory=dict)   # addr -> sim time
    alive: dict = field(default_factory=dict)      # addr -> bool
    epoch: int = 0
    failover_started: float = 0.0
    gauge: object = None


class ShardFrontend:
    """Routes, health-checks, fails over, and rebalances shard hosts.

    Lives inside ``brokerd`` (all its I/O goes through the daemon's
    signaling socket); holds the consistent-hash ring, the pending-attach
    table and the failure detector.  Every approved grant is also
    applied to the daemon's own ``brokerd.sap``, which keeps
    ``revoke_subscriber``, grant expiry and scope-notice routing
    synchronous at the frontend while session state lives on the shard
    hosts.
    """

    #: What brokerd handles on the frontend's behalf: message type ->
    #: (handler name or None, processing cost at the daemon).  The ack
    #: nobody acts on stays registered: an unregistered type skips its
    #: cost, which would move the daemon's queue.
    BROKER_MESSAGES = {
        ShardAuthResponse: ("_on_shard_auth_response", 0.0001),
        ShardHeartbeatAck: ("_on_heartbeat_ack", 0.00002),
        ShardScopeAck: ("_on_shard_scope_ack", 0.00005),
        PromoteAck: ("_on_promote_ack", 0.0001),
        OrderAck: (None, 0.00005),
        OpBatch: ("_on_op_batch", 0.0002),      # relay: queue + forward
        OpBatchAck: ("_on_op_batch_ack", 0.00005),
    }

    heartbeat_interval = 0.2
    detection_timeout = 0.65
    #: reliable-forward knobs for auth requests to shard hosts.
    forward_timeout = 0.25
    forward_attempts = 3
    max_reforwards = 3
    #: stop the heartbeat timer this long after the last auth activity
    #: (restarted lazily) so an idle simulation can quiesce.
    idle_stop = 2.0
    #: hard cap on supervising unhealthy shards with no traffic.
    down_patience = 30.0
    recent_auth_cap = 512

    def __init__(self, brokerd, states: dict, active: list):
        self.brokerd = brokerd
        self.sim = brokerd.sim
        self.metrics = brokerd.metrics
        self.states: dict[int, _ShardState] = states
        self.ring = ShardRouter()
        self.active_ids: list[int] = sorted(active)
        for sid in self.active_ids:
            self.ring.add(sid)
        self.spare_ids: list[int] = sorted(
            sid for sid in states if sid not in set(active))
        now = self.sim.now
        for sid, st in sorted(states.items()):
            st.gauge = self.metrics.gauge("broker.shard_health",
                                          shard=str(sid))
            st.gauge.set(1 if sid in self.active_ids else 0)
            for addr in (st.primary_addr, st.standby_addr):
                st.last_ack[addr] = now
                st.alive[addr] = True
        self.failovers_total = self.metrics.counter(
            "broker.failovers_total")
        self.handoff_chunks_retried = self.metrics.counter(
            "broker.handoff_chunks_retried")
        self.degraded_denials = self.metrics.counter(
            "broker.degraded_denials")
        self.parked_attaches = self.metrics.counter(
            "broker.parked_attaches")
        self.forward_giveups = self.metrics.counter(
            "broker.forward_giveups")
        self.rebalances_total = self.metrics.counter(
            "broker.rebalances_total")
        self.resyncs_total = self.metrics.counter("broker.resyncs_total")
        self._next_token = 1
        self._next_handoff = 1
        self._pending: dict[int, _PendingAttach] = {}
        #: reply_token -> (src_ip, notice, deferred) scope notices
        #: forwarded to their owning shard and awaiting the verdict.
        self._pending_scope: dict[int, tuple] = {}
        #: recent approved auths (for drills probing replay-across-
        #: failover): dicts with at/auth_req_u/id_t/id_u/shard.
        self.recent_auths: list = []
        self.failover_log: list = []
        self.rebalance_log: list = []
        self._rebalance: Optional[dict] = None
        #: expected OpBatchAck -> (deferred, source_addr) batch relays.
        self._relay: dict = {}
        self._hb_seq = 0
        self._hb_running = False
        self._last_activity = now
        self._start_heartbeats()

    def _obs_instant(self, name: str, ctx: Optional[tuple] = None,
                     **data) -> None:
        """Point event in the frontend's routing plane.  With ``ctx``
        (a deferred reply's captured ``(trace_id, span_id)``) the event
        lands inside the attach trace it concerns, so a slow broker-ha
        attach decomposes into *which* failover step delayed it."""
        obs = self.sim.obs
        if obs is None or not obs.tracing:
            return
        trace_id, parent_id = ctx if ctx is not None else (0, 0)
        obs.tracer.instant(name, "frontend", self.sim.now,
                           trace_id=trace_id, parent_id=parent_id,
                           category="cloud", data=data or None)

    # -- health checking -----------------------------------------------------
    def _start_heartbeats(self) -> None:
        if not self._hb_running:
            self._hb_running = True
            # The detector was off: stale last-ack timestamps are not
            # evidence of death, so every live endpoint gets a full
            # detection window before it can be declared dead.
            now = self.sim.now
            for st in self.states.values():
                for addr, alive in st.alive.items():
                    if alive:
                        st.last_ack[addr] = now
            self.sim.schedule(0.0, self._hb_tick)

    def _hb_tick(self) -> None:
        now = self.sim.now
        self._hb_seq += 1
        for sid in self.active_ids:
            st = self.states[sid]
            for addr in (st.primary_addr, st.standby_addr):
                self.brokerd.send(addr, ShardHeartbeat(seq=self._hb_seq),
                                  size=32)
            self._check_endpoints(st, now)
        idle = now - self._last_activity
        # Keep probing past the activity window only while there is
        # something to supervise (an unhealthy shard that might rejoin,
        # a rebalance in flight) — and even then give up after
        # ``down_patience`` so a permanently-lost host cannot keep the
        # simulation's event queue alive forever.  The next attach (or
        # rebalance call) restarts the detector.
        busy = (idle <= self.idle_stop
                or (idle <= self.down_patience
                    and (self._rebalance is not None
                         or any(self.states[sid].status != "healthy"
                                for sid in self.active_ids))))
        if busy:
            self.sim.schedule(self.heartbeat_interval, self._hb_tick)
        else:
            self._hb_running = False

    def _check_endpoints(self, st: _ShardState, now: float) -> None:
        for addr in (st.primary_addr, st.standby_addr):
            if st.alive.get(addr) \
                    and now - st.last_ack[addr] > self.detection_timeout:
                st.alive[addr] = False
                if addr == st.primary_addr and st.status == "healthy":
                    self._begin_failover(st)

    def _begin_failover(self, st: _ShardState) -> None:
        st.status = "degraded"
        st.epoch += 1
        st.failover_started = self.sim.now
        st.gauge.set(0)
        self.failovers_total.inc()
        self._obs_instant("broker.failover", shard=st.shard_id,
                          epoch=st.epoch, primary=st.primary_addr)
        self._send_promote(st)

    def _send_promote(self, st: _ShardState) -> None:
        epoch = st.epoch
        self.brokerd.send_request(
            st.standby_addr,
            PromoteReplica(shard_id=st.shard_id, epoch=epoch),
            size=32, timeout=0.15, max_attempts=8,
            on_give_up=lambda _m: self._promote_gave_up(st, epoch))

    def _promote_gave_up(self, st: _ShardState, epoch: int) -> None:
        if st.epoch == epoch and st.status == "degraded":
            # Standby unreachable too: total shard loss.  Fresh auths
            # keep fast-failing; a later heartbeat ack re-triggers the
            # promotion.
            st.status = "down"

    def _on_heartbeat_ack(self, src_ip: str,
                          ack: ShardHeartbeatAck) -> None:
        st = self.states.get(ack.shard_id)
        if st is None or src_ip not in st.last_ack:
            return
        st.last_ack[src_ip] = self.sim.now
        if st.alive.get(src_ip):
            return
        st.alive[src_ip] = True
        if src_ip == st.standby_addr:
            if st.status == "healthy":
                self._order_resync(st)
            else:
                # Total-loss recovery: the standby rejoined empty and
                # there is no live peer to resync from, so re-push the
                # provisioning plane (subscriber DB, LI mandates) right
                # away — a promotion can land on it at any moment (an
                # in-flight retransmit while degraded, or the one sent
                # below).  Session state died with the shard, but
                # enrolled subscribers must not be denied as unknown.
                self._reprovision(st.hosts[src_ip])
                if st.status == "down":
                    st.status = "degraded"
                    self._send_promote(st)

    def _on_promote_ack(self, src_ip: str, ack: PromoteAck) -> None:
        st = self.states.get(ack.shard_id)
        if st is None or ack.epoch != st.epoch \
                or st.status not in ("degraded", "down"):
            return
        st.primary_addr, st.standby_addr = \
            st.standby_addr, st.primary_addr
        st.status = "healthy"
        st.gauge.set(1)
        self._obs_instant(
            "broker.promoted", shard=st.shard_id, epoch=st.epoch,
            promotion_ms=round(
                (self.sim.now - st.failover_started) * 1000.0, 3))
        now = self.sim.now
        self.failover_log.append({
            "shard": st.shard_id,
            "detected_at": round(st.failover_started, 6),
            "promoted_at": round(now, 6),
            "promotion_s": round(now - st.failover_started, 6),
        })
        if st.alive.get(st.standby_addr):
            # The old primary restarted before promotion finished: it
            # rejoined empty, so resync it from the new primary now.
            self._order_resync(st)
        if self._rebalance is not None:
            self._restart_handoffs_from(st.shard_id)

    def _order_resync(self, st: _ShardState) -> None:
        self.resyncs_total.inc()
        self._reprovision(st.hosts[st.standby_addr])
        self.brokerd.send_request(
            st.primary_addr,
            ResyncPeer(shard_id=st.shard_id, epoch=st.epoch),
            size=32, timeout=0.3, max_attempts=6)

    def _reprovision(self, host: ShardHost) -> None:
        """Push the provisioning plane into a new (or rejoined-empty)
        host: subscriber DB, LI mandates, and the bTelco directory (same
        trust domain: scope tokens minted at any shard can seal session
        keys for every registered site)."""
        for subscriber in self.brokerd.sap.enrolled():
            host.sap.enroll(subscriber)
        host.sap.li_targets = self.brokerd.sap.li_targets
        host.sap.btelco_directory = self.brokerd.sap.btelco_directory

    # -- attach routing ------------------------------------------------------
    def notify_activity(self) -> None:
        self._last_activity = self.sim.now
        self._start_heartbeats()

    def handle_auth(self, src_ip: str, request) -> None:
        """Entry point from ``Brokerd._handle_auth_request``."""
        self.notify_activity()
        # Expired grants close their billing and revocation routing
        # through the daemon's own on_grant_expired hook.
        self.brokerd.sap.expire_grants(self.sim.now)
        deferred = self.brokerd.defer_reply()
        scale = self.brokerd._cost_scale()
        self.brokerd.charge(AUTHVEC_DECRYPT_COST * scale)
        id_u: Optional[str] = None
        try:
            auth_vec = AuthVec.from_bytes(self.brokerd.key.decrypt(
                request.auth_req_t.auth_req_u.auth_vec_encrypted))
            id_u = auth_vec.id_u
        except (CryptoError, MessageError):
            pass   # undecryptable: any shard will deny it properly
        if self._rebalance is not None and id_u is not None \
                and id_u in self._rebalance["moving"]:
            # Mid-handoff: park rather than risk serving from a shard
            # that no longer (or does not yet) own the state.
            self.parked_attaches.inc()
            self._rebalance["parked"].append(
                (src_ip, request, deferred, id_u))
            return
        self._forward(src_ip, request, deferred, id_u)

    def _forward(self, src_ip: str, request, deferred,
                 id_u: Optional[str]) -> None:
        shard_id = self.ring.shard_for(id_u) if id_u is not None \
            else self.active_ids[0]
        token = self._next_token
        self._next_token += 1
        self._pending[token] = _PendingAttach(
            src_ip=src_ip, request=request, deferred=deferred,
            shard_id=shard_id)
        self._transmit_forward(token)

    def _transmit_forward(self, token: int) -> None:
        record = self._pending.get(token)
        if record is None:
            return
        st = self.states[record.shard_id]
        if st.status == "down":
            self._pending.pop(token, None)
            self._deny_degraded(record)
            return
        addr = st.primary_addr
        if st.status == "degraded":
            # Serve retransmit-replays from the still-syncing replica;
            # fresh auths will fast-fail there with a retryable cause.
            addr = st.standby_addr
            self._obs_instant(
                "broker.failover_reroute",
                ctx=getattr(record.deferred, "obs_ctx", None),
                shard=record.shard_id, standby=addr,
                attempt=record.attempts)
        forward = ShardAuthRequest(
            auth_req_t=record.request.auth_req_t, reply_token=token)
        self.brokerd.send_request(
            addr, forward, size=record.request.auth_req_t.wire_size + 16,
            timeout=self.forward_timeout,
            max_attempts=self.forward_attempts,
            on_give_up=lambda _m, t=token: self._forward_gave_up(t))

    def _forward_gave_up(self, token: int) -> None:
        record = self._pending.get(token)
        if record is None:
            return
        self.forward_giveups.inc()
        record.attempts += 1
        if record.attempts <= self.max_reforwards:
            # Re-resolve the shard's current primary (a promotion may
            # have happened while we were retransmitting) and try again.
            self._transmit_forward(token)
        else:
            self._pending.pop(token, None)
            self._deny_degraded(record)

    def _deny_degraded(self, record: _PendingAttach) -> None:
        self.degraded_denials.inc()
        self._obs_instant(
            "attach.degraded_denial",
            ctx=getattr(record.deferred, "obs_ctx", None),
            shard=record.shard_id, attempts=record.attempts)
        self.brokerd._deny(
            record.src_ip, record.request,
            f"{DenialCause.DEGRADED.value}: shard {record.shard_id} "
            f"unavailable", retryable=True, deferred=record.deferred)

    def _on_shard_auth_response(self, src_ip: str,
                                resp: ShardAuthResponse) -> None:
        record = self._pending.pop(resp.reply_token, None)
        if record is None:
            return   # late duplicate after give-up / failover re-route
        if resp.approved:
            self._complete_approved(record, resp)
            return
        if resp.cause.startswith(DenialCause.DEGRADED.value):
            self.degraded_denials.inc()
        self.brokerd._deny(record.src_ip, record.request, resp.cause,
                           retryable=resp.retryable,
                           deferred=record.deferred)

    def _complete_approved(self, record: _PendingAttach,
                           resp: ShardAuthResponse) -> None:
        grant = resp.grant
        self.brokerd.sap.apply(("grant", grant))
        if not resp.cached:
            self.recent_auths.append({
                "at": self.sim.now,
                "auth_req_u": record.request.auth_req_t.auth_req_u,
                "id_t": record.request.auth_req_t.id_t,
                "id_u": grant.id_u,
                "shard_id": record.shard_id,
            })
            if len(self.recent_auths) > self.recent_auth_cap:
                del self.recent_auths[:len(self.recent_auths)
                                      - self.recent_auth_cap]
        self.brokerd._approve(
            record.src_ip, record.request, resp.auth_resp_t,
            resp.auth_resp_u, grant, deferred=record.deferred)

    # -- scope notices -------------------------------------------------------
    def handle_scope_notice(self, src_ip: str, notice) -> None:
        """Entry point from ``Brokerd._handle_scope_notice`` (signature
        already verified there): route the counter advance to the shard
        owning the grant and ack the bTelco with its verdict."""
        self.notify_activity()
        deferred = self.brokerd.defer_reply()
        id_u = self.brokerd.sap.session_owner(notice.session_id)
        if id_u is None:
            # No grant or tombstone behind this session id: terminal,
            # the bTelco must tear the scope-local session down.
            self.brokerd._finish_scope_notice(
                src_ip, notice, False, False,
                DenialCause.UNKNOWN_SUBSCRIBER.value, deferred=deferred)
            return
        if self._rebalance is not None \
                and id_u in self._rebalance["moving"]:
            # Mid-handoff: neither shard safely owns the counter yet.
            self.brokerd._finish_scope_notice(
                src_ip, notice, False, True,
                f"{DenialCause.DEGRADED.value}: rebalance in flight",
                deferred=deferred)
            return
        shard_id = self.ring.shard_for(id_u)
        st = self.states[shard_id]
        if st.status != "healthy":
            # The bTelco's reliable notice retries once the failover
            # settles; the replicated counter floor survives it.
            self.degraded_denials.inc()
            self.brokerd._finish_scope_notice(
                src_ip, notice, False, True,
                f"{DenialCause.DEGRADED.value}: shard {shard_id} "
                f"unavailable", deferred=deferred)
            return
        token = self._next_token
        self._next_token += 1
        self._pending_scope[token] = (src_ip, notice, deferred)
        self.brokerd.send_request(
            st.primary_addr,
            ShardScopeNotice(session_id=notice.session_id,
                             counter=notice.counter, reply_token=token),
            size=96, timeout=self.forward_timeout,
            max_attempts=self.forward_attempts,
            on_give_up=lambda _m, t=token: self._scope_forward_gave_up(t))

    def _scope_forward_gave_up(self, token: int) -> None:
        pending = self._pending_scope.pop(token, None)
        if pending is None:
            return
        src_ip, notice, deferred = pending
        self.forward_giveups.inc()
        self.brokerd._finish_scope_notice(
            src_ip, notice, False, True,
            f"{DenialCause.DEGRADED.value}: scope notice forward "
            f"timed out", deferred=deferred)

    def _on_shard_scope_ack(self, src_ip: str,
                            ack: ShardScopeAck) -> None:
        pending = self._pending_scope.pop(ack.reply_token, None)
        if pending is None:
            return   # late duplicate after give-up
        orig_src_ip, notice, deferred = pending
        self.brokerd._finish_scope_notice(
            orig_src_ip, notice, ack.accepted, ack.retryable, ack.cause,
            deferred=deferred)

    # -- provisioning plane --------------------------------------------------
    def enroll(self, subscriber) -> None:
        """Provision a subscriber on every host (strongly-consistent
        subscriber DB: the *same* object is shared everywhere)."""
        for _, st in sorted(self.states.items()):
            for addr in (st.primary_addr, st.standby_addr):
                st.hosts[addr].sap.enroll(subscriber)

    def revoke(self, id_u: str) -> list:
        """Suspend ``id_u`` everywhere and return its live grants for
        the daemon's revocation push.  Primaries tombstone their own
        sessions; a standby learns of it only from its primary's stream,
        ordered after the grants it kills."""
        for _, st in sorted(self.states.items()):
            st.hosts[st.primary_addr].sap.revoke(id_u)
        return self.brokerd.sap.revoke(id_u)

    # -- rebalancing ---------------------------------------------------------
    def add_shard(self) -> int:
        if not self.spare_ids:
            raise ValueError("no spare shard hosts left")
        joiner = self.spare_ids[0]
        self._rebalance_to(sorted(self.active_ids + [joiner]))
        return joiner

    def remove_shard(self, shard_id: int) -> None:
        if shard_id not in self.active_ids:
            raise ValueError(f"shard {shard_id} is not active")
        if len(self.active_ids) == 1:
            raise ValueError("cannot remove the last shard")
        self._rebalance_to(
            [sid for sid in self.active_ids if sid != shard_id])

    def _rebalance_to(self, new_active: list) -> None:
        if self._rebalance is not None:
            raise RuntimeError("rebalance already in flight")
        self.notify_activity()
        new_ring = ShardRouter()
        for sid in new_active:
            new_ring.add(sid)
        moves: dict = {}
        for id_u in sorted(sub.id_u for sub in self.brokerd.sap.enrolled()):
            old_sid = self.ring.shard_for(id_u)
            new_sid = new_ring.shard_for(id_u)
            if old_sid != new_sid and old_sid in self.active_ids:
                moves.setdefault((old_sid, new_sid), []).append(id_u)
        joiners = [sid for sid in new_active
                   if sid not in self.active_ids]
        leavers = [sid for sid in self.active_ids
                   if sid not in new_active]
        now = self.sim.now
        for sid in joiners:
            st = self.states[sid]
            st.gauge.set(1)
            for addr in (st.primary_addr, st.standby_addr):
                st.last_ack[addr] = now
                st.alive[addr] = True
        self.active_ids = sorted(set(self.active_ids) | set(joiners))
        self.rebalances_total.inc()
        self._rebalance = {
            "new_ring": new_ring,
            "new_active": sorted(new_active),
            "leavers": leavers,
            "moving": {id_u for ids in moves.values() for id_u in ids},
            "pairs": {},
            "parked": [],
            "started": now,
        }
        if not moves:
            self._commit_rebalance()
            return
        for (src, tgt), ids in sorted(moves.items()):
            handoff_id = self._next_handoff
            self._next_handoff += 1
            self._rebalance["pairs"][handoff_id] = {
                "src": src, "tgt": tgt, "ids": sorted(ids),
                "done": False, "begins": 0}
            self._send_handoff_begin(handoff_id)

    def _send_handoff_begin(self, handoff_id: int) -> None:
        rb = self._rebalance
        if rb is None or handoff_id not in rb["pairs"]:
            return
        pair = rb["pairs"][handoff_id]
        pair["begins"] += 1
        if pair["begins"] > 20:
            return   # bound the event queue; drill gates will flag it
        st = self.states[pair["src"]]
        begin = HandoffBegin(
            handoff_id=handoff_id, target_shard=pair["tgt"],
            moving_ids=tuple(pair["ids"]))
        self.brokerd.send_request(
            st.primary_addr, begin, size=48 + 8 * len(pair["ids"]),
            timeout=0.3, max_attempts=6,
            on_give_up=lambda _m, h=handoff_id:
                self._send_handoff_begin(h))

    def _restart_handoffs_from(self, shard_id: int) -> None:
        """After a source shard failed over mid-handoff, restart its
        incomplete handoffs under fresh ids — new streams, which the
        target applies from their first batch — against the new
        primary (``export()`` ops are idempotent)."""
        rb = self._rebalance
        if rb is None:
            return
        for handoff_id in sorted(list(rb["pairs"])):
            pair = rb["pairs"][handoff_id]
            if pair["src"] != shard_id or pair["done"]:
                continue
            del rb["pairs"][handoff_id]
            new_id = self._next_handoff
            self._next_handoff += 1
            rb["pairs"][new_id] = dict(pair, begins=0)
            self._send_handoff_begin(new_id)

    # Batch relay: the source host talks to the frontend (its only
    # route), which forwards to the target shard's current primary.
    def _on_op_batch(self, src_ip: str, batch: OpBatch) -> None:
        self.notify_activity()
        deferred = self.brokerd.defer_reply()
        key = batch.ack()
        self._relay[key] = (deferred, src_ip)
        addr = self.states[batch.target_shard].primary_addr
        self.brokerd.send_request(
            addr, batch, size=batch.wire_size,
            timeout=self.forward_timeout, max_attempts=4,
            on_give_up=lambda _m, k=key: self._relay.pop(k, None))

    def _on_op_batch_ack(self, src_ip: str, ack: OpBatchAck) -> None:
        entry = self._relay.pop(ack, None)
        if entry is not None:
            deferred, source_addr = entry
            deferred.send(source_addr, ack, size=32)
            deferred.complete()
        if ack.last:
            self._pair_transferred(ack.stream)

    def _pair_transferred(self, handoff_id: int) -> None:
        rb = self._rebalance
        if rb is None or handoff_id not in rb["pairs"]:
            return
        rb["pairs"][handoff_id]["done"] = True
        if all(pair["done"] for pair in rb["pairs"].values()):
            self._commit_rebalance()

    def _commit_rebalance(self) -> None:
        rb = self._rebalance
        self.ring = rb["new_ring"]
        for sid in rb["leavers"]:
            self.states[sid].gauge.set(0)
        self.active_ids = rb["new_active"]
        self.spare_ids = sorted(sid for sid in self.states
                                if sid not in set(self.active_ids))
        for handoff_id, pair in sorted(rb["pairs"].items()):
            st = self.states[pair["src"]]
            commit = HandoffCommit(
                handoff_id=handoff_id, moving_ids=tuple(pair["ids"]))
            self.brokerd.send_request(
                st.primary_addr, commit, size=48 + 8 * len(pair["ids"]),
                timeout=0.3, max_attempts=6)
        parked = rb["parked"]
        self._rebalance = None
        self.rebalance_log.append({
            "at": round(self.sim.now, 6),
            "duration_s": round(self.sim.now - rb["started"], 6),
            "moved": len(rb["moving"]),
            "parked": len(parked),
            "active": list(self.active_ids),
        })
        for parked_attach in parked:
            self._forward(*parked_attach)

    def note_retransmitted(self, message) -> None:
        """Fed from ``Brokerd.note_retransmitted_request``."""
        if isinstance(message, OpBatch):
            self.handoff_chunks_retried.inc()

    def stats(self) -> dict:
        return {
            "active_shards": list(self.active_ids),
            "spare_shards": list(self.spare_ids),
            "shard_status": {
                str(sid): self.states[sid].status
                for sid in sorted(self.states)},
            "failovers_total": self.failovers_total.value,
            "failover_log": list(self.failover_log),
            "rebalances_total": self.rebalances_total.value,
            "rebalance_log": list(self.rebalance_log),
            "resyncs_total": self.resyncs_total.value,
            "degraded_denials": self.degraded_denials.value,
            "parked_attaches": self.parked_attaches.value,
            "forward_giveups": self.forward_giveups.value,
            "handoff_chunks_retried": self.handoff_chunks_retried.value,
            "pending_forwards": len(self._pending),
            "hosts": {
                f"{sid}:{'primary' if addr == st.primary_addr else 'standby'}":
                    st.hosts[addr].stats()
                for sid, st in sorted(self.states.items())
                for addr in (st.primary_addr, st.standby_addr)},
        }


# -- deployment -------------------------------------------------------------

#: every shard-host link: 1 Gb/s, 2 ms one way.
LINK_BANDWIDTH_BPS = 1e9
LINK_DELAY_S = 0.002


def deploy_shard_hosts(network, *, num_shards: int = 2,
                       spares: int = 0) -> ShardFrontend:
    """Turn ``network.brokerd`` into a distributed broker.

    For every shard (plus ``spares`` warm spares for scale-out drills)
    this builds a primary host, a replica host, links to the broker host
    and between the pair, provisions the existing subscriber DB onto
    both, and installs a :class:`ShardFrontend` into the daemon.
    """
    brokerd = network.brokerd
    sim = network.sim
    broker_host = network.broker_host
    states: dict[int, _ShardState] = {}
    shard_hosts: dict[str, ShardHost] = {}
    for sid in range(num_shards + spares):
        primary_host = Host(sim, f"shard{sid}-host",
                            address=f"52.21.{sid}.1")
        replica_host = Host(sim, f"shard{sid}r-host",
                            address=f"52.22.{sid}.1")
        primary = ShardHost(
            primary_host, sid, brokerd.id_b, brokerd.key,
            brokerd.sap.ca_public_key,
            frontend_ip=broker_host.address,
            peer_ip=replica_host.address,
            session_ttl=brokerd.sap.session_ttl)
        replica = ShardHost(
            replica_host, sid, brokerd.id_b, brokerd.key,
            brokerd.sap.ca_public_key,
            frontend_ip=broker_host.address,
            peer_ip=primary_host.address,
            session_ttl=brokerd.sap.session_ttl, is_replica=True)
        for host in (primary, replica):
            host.authorize_btelco = brokerd._btelco_policy
        uplink = Link(sim, f"shard{sid}-broker", broker_host,
                      primary_host, LINK_BANDWIDTH_BPS, LINK_DELAY_S)
        uplink_r = Link(sim, f"shard{sid}r-broker", broker_host,
                        replica_host, LINK_BANDWIDTH_BPS, LINK_DELAY_S)
        repl_link = Link(sim, f"shard{sid}-repl", primary_host,
                         replica_host, LINK_BANDWIDTH_BPS, LINK_DELAY_S)
        broker_host.add_route(
            primary_host.address.rsplit(".", 1)[0], uplink)
        primary_host.add_route(
            broker_host.address.rsplit(".", 1)[0], uplink)
        broker_host.add_route(
            replica_host.address.rsplit(".", 1)[0], uplink_r)
        replica_host.add_route(
            broker_host.address.rsplit(".", 1)[0], uplink_r)
        primary_host.add_route(
            replica_host.address.rsplit(".", 1)[0], repl_link)
        replica_host.add_route(
            primary_host.address.rsplit(".", 1)[0], repl_link)
        for link in (uplink, uplink_r, repl_link):
            network.links[link.name] = link
        states[sid] = _ShardState(
            shard_id=sid,
            primary_addr=primary_host.address,
            standby_addr=replica_host.address,
            hosts={primary_host.address: primary,
                   replica_host.address: replica})
        shard_hosts[primary.name] = primary
        shard_hosts[replica.name] = replica
    frontend = ShardFrontend(
        brokerd, states, active=list(range(num_shards)))
    for host in shard_hosts.values():
        frontend._reprovision(host)
    brokerd.configure_distributed(frontend)
    chaos_nodes = getattr(network, "chaos_nodes", None) or {}
    chaos_nodes.update(shard_hosts)
    network.chaos_nodes = chaos_nodes
    network.shard_hosts = shard_hosts
    network.frontend = frontend
    return frontend
