"""brokerd — the broker service (deployed in Orc8r on AWS in the paper).

A :class:`SignalingNode` wrapping :class:`~repro.core.sap.BrokerSap` with
its SubscriberDB, plus the billing-verification pipeline of §4.3 (traffic
report collection, cross-checking, reputation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto import PrivateKey, PublicKey
from repro.lte.signaling import CounterAttr, SignalingNode
from repro.net import Host

from .billing import BillingVerifier, REPORTER_BTELCO, TrafficReportUpload
from .costs import (
    ACK_PROCESSING,
    AUTH_REQUEST_PROCESSING,
    AUTHVEC_DECRYPT_COST,
    CACHED_VERIFY_COST,
    CERT_VALIDATE_COST,
    DENIAL_FINISH_COST,
    INGRESS_PROCESSING,
    REPORT_PROCESSING,
    SCOPE_NOTICE_PROCESSING,
    SEAL_SIGN_COST,
    SIG_VERIFY_COST,
    VERIFY_WORKERS,
    AdaptiveBatchWindow,
    ParkedBatch,
)
from .messages import (
    BrokerAuthRequest,
    BrokerAuthResponse,
    ReportAck,
    RevocationAck,
    ScopeAttachAck,
    ScopeAttachNotice,
    SessionRevocation,
    SessionRevocationBatch,
)
from .qos import QosInfo
from .reputation import ReputationSystem
from .sap import BrokerSap, BrokerSubscriber, SapError, SapGrant


@dataclass
class _OutstandingBatch:
    """One revocation batch awaiting its signed ack."""

    batch: SessionRevocationBatch
    destination: str
    deadline: float              # latest grant expiry in the batch
    correlation_id: int = 0
    attempts: int = 0


@dataclass
class _PipelineItem:
    """One auth request waiting in the current batch window."""

    src_ip: str
    request: BrokerAuthRequest
    deferred: object             # DeferredReply from the ingress handler
    arrived: float
    corr_id: int = 0


class Brokerd(SignalingNode):
    """The broker's network-facing daemon."""

    processing_costs = {
        BrokerAuthRequest: AUTH_REQUEST_PROCESSING,
        TrafficReportUpload: REPORT_PROCESSING,
        RevocationAck: ACK_PROCESSING,
        ScopeAttachNotice: SCOPE_NOTICE_PROCESSING,
    }
    obs_category = "cloud"
    _SPAN_NAMES = {
        BrokerAuthRequest: "sap.broker_verify",
        TrafficReportUpload: "billing.report_verify",
        RevocationAck: "revocation.ack_verify",
        ScopeAttachNotice: "sap.broker_scope_notice",
    }
    requests_approved = CounterAttr("broker.requests_approved")
    requests_denied = CounterAttr("broker.requests_denied")
    scope_notices_accepted = CounterAttr("broker.scope_notices_accepted")
    scope_notices_denied = CounterAttr("broker.scope_notices_denied")
    revocations_sent = CounterAttr("broker.revocations_sent")
    revocation_batches_sent = CounterAttr("broker.revocation_batches_sent")
    revocation_batches_acked = CounterAttr("broker.revocation_batches_acked")
    revocation_batches_retried = \
        CounterAttr("broker.revocation_batches_retried")
    revocation_batches_failed = \
        CounterAttr("broker.revocation_batches_failed")
    revocation_acks_bad = CounterAttr("broker.revocation_acks_bad")
    reports_retried = CounterAttr("broker.reports_retried")
    pipeline_batches = CounterAttr("broker.pipeline_batches")
    pipeline_requests = CounterAttr("broker.pipeline_requests")
    pipeline_full_flushes = CounterAttr("broker.pipeline_full_flushes")
    cert_cache_hits = CounterAttr("broker.cert_cache_hits")

    def span_name(self, message: object) -> str:
        if self.pipeline_enabled and type(message) is BrokerAuthRequest:
            # In pipeline mode the ingress handler only enqueues; the
            # verify/mint work gets its own spans at flush time.
            return "sap.broker_ingress"
        name = self._SPAN_NAMES.get(type(message))
        return name if name is not None else super().span_name(message)

    def __init__(self, host: Host, id_b: str, ca_public_key: PublicKey,
                 key: PrivateKey):
        super().__init__(host, "brokerd")
        self.id_b = id_b
        self.key = key
        # SAP counters land in this node's registry (one snapshot per
        # brokerd, fleet-mergeable).
        self.sap = BrokerSap(id_b=id_b, key=self.key,
                             ca_public_key=ca_public_key,
                             metrics=self.metrics)
        self.reputation = ReputationSystem()
        self.billing = BillingVerifier(broker_key=self.key,
                                       reputation=self.reputation)
        self.sap.authorize_btelco = self._btelco_policy
        self.sap.on_grant_expired = self._on_grant_expired
        #: optional settlement engine to cascade revocations into.
        self.settlement = None
        #: session_id -> signaling address of the serving bTelco, so a
        #: revocation can be pushed to whoever holds the grant.
        self._session_btelco: dict[str, str] = {}
        #: signaling address -> the bTelco key that authenticated there
        #: (from the certificate in its last BrokerAuthRequest), used to
        #: verify RevocationAck signatures.
        self._btelco_keys: dict[str, PublicKey] = {}
        #: batch_id -> batch awaiting a signed RevocationAck; bounded by
        #: the number of revocations with unexpired grants.
        self._outstanding_batches: dict[int, _OutstandingBatch] = {}
        self._batch_counter = 0
        # -- batching pipeline (off by default: the serial handler is the
        # byte-compatible historical path) --------------------------------
        self.pipeline_enabled = False
        #: distributed mode: a ``repro.core.shardhost.ShardFrontend``
        #: that routes auths to network-attached shard hosts.  ``None``
        #: keeps the historical in-process SAP path.
        self.frontend = None
        self._parked = ParkedBatch(self.sim, self._flush_auth_batch)
        self._worker_free: list[float] = []
        self._shard_free: dict[int, float] = {}
        self._verified_certs: set[str] = set()
        self.on(BrokerAuthRequest, self._handle_auth_request)
        self.on(TrafficReportUpload, self._handle_report)
        self.on(RevocationAck, self._handle_revocation_ack)
        self.on(ScopeAttachNotice, self._handle_scope_notice)

    @property
    def public_key(self) -> PublicKey:
        return self.key.public_key

    # -- batching pipeline ----------------------------------------------------
    def configure_pipeline(self, *, shards: Optional[int] = None,
                           adaptive: bool = False) -> None:
        """Switch the auth hot path to the sharded, batching pipeline.

        Requests arriving within the window (``ParkedBatch``'s 2 ms) of
        the first are flushed as one batch: signature/certificate checks
        run on ``VERIFY_WORKERS`` parallel workers (stage A), then each
        request joins its shard's serialized replay/mint lane (stage B).
        Without this call the historical one-at-a-time handler runs.

        ``adaptive=True`` replaces the fixed window with a default
        :class:`AdaptiveBatchWindow`: the window tracks the observed
        arrival rate and a full batch flushes immediately instead of
        waiting out its timer (Nagle-style).  Only measurable at
        population scale — see ``repro.testbed.megaload``.
        """
        if shards is not None:
            self.sap.set_shard_count(shards)
        self.pipeline_enabled = True
        self._parked.adaptive = AdaptiveBatchWindow() if adaptive else None
        self._worker_free = [0.0] * VERIFY_WORKERS
        self._shard_free = {}

    # -- distributed shards ---------------------------------------------------
    def configure_distributed(self, frontend) -> None:
        """Hand the auth hot path to a :class:`ShardFrontend`.

        The daemon keeps its socket, certificates, billing, and the
        revocation protocol; session verification and minting move to
        network-attached shard hosts behind the frontend's hash ring.
        Called by ``repro.core.shardhost.deploy_shard_hosts``.
        """
        self.frontend = frontend
        self.processing_costs = dict(self.processing_costs)
        for message, (handler, cost) in frontend.BROKER_MESSAGES.items():
            self.processing_costs[message] = cost
            self.on(message, getattr(frontend, handler) if handler
                    else lambda src_ip, ack: None)

    def _cost_scale(self) -> float:
        """Fault-injection compatibility: a brownout inflates the lump
        AUTH_REQUEST_PROCESSING cost; the pipeline scales its calibrated
        stage costs by the same factor."""
        return self.processing_costs.get(
            BrokerAuthRequest, AUTH_REQUEST_PROCESSING) \
            / AUTH_REQUEST_PROCESSING

    def processing_cost(self, message: object) -> float:
        if type(message) is BrokerAuthRequest \
                and (self.pipeline_enabled or self.frontend is not None):
            # Pipelined or distributed: ingress only enqueues/forwards;
            # the verify/mint cost is charged where that work runs.
            return INGRESS_PROCESSING * self._cost_scale()
        return super().processing_cost(message)

    # -- subscriber management ------------------------------------------------
    def enroll_subscriber(self, id_u: str, public_key: PublicKey,
                          qos_plan: Optional[QosInfo] = None) -> None:
        subscriber = BrokerSubscriber(
            id_u=id_u, public_key=public_key,
            qos_plan=qos_plan or QosInfo())
        self.sap.enroll(subscriber)
        if self.frontend is not None:
            # Strongly-consistent provisioning plane: every shard host
            # (and replica) shares the same subscriber object.
            self.frontend.enroll(subscriber)

    def revoke_subscriber(self, id_u: str) -> list[SapGrant]:
        """Invalidate a subscriber's key and cascade to live grants.

        Every outstanding authorization is withdrawn: the serving bTelco
        is notified (:class:`SessionRevocation`), further traffic reports
        are refused, and — when a settlement engine is attached — pending
        claims against the revoked sessions are voided.
        """
        revoked = self.frontend.revoke(id_u) if self.frontend is not None \
            else self.sap.revoke(id_u)
        by_destination: dict[str, list[SapGrant]] = {}
        for grant in revoked:
            self.billing.close_session(grant.session_id)
            if self.settlement is not None:
                self.settlement.void_session(grant.session_id)
            destination = self._session_btelco.pop(grant.session_id, None)
            if destination is not None:
                by_destination.setdefault(destination, []).append(grant)
        for destination, grants in by_destination.items():
            self._push_revocation_batch(destination, grants)
        return revoked

    def _push_revocation_batch(self, destination: str,
                               grants: list[SapGrant]) -> None:
        """Send all of one bTelco's revocations as one reliable batch.

        Retransmitted with backoff until the signed :class:`RevocationAck`
        arrives or every grant in the batch has expired on its own (at
        which point the bTelco would reject the session as expired
        anyway, so nothing unauthorized can keep running).
        """
        self._batch_counter += 1
        batch = SessionRevocationBatch(
            batch_id=self._batch_counter, id_b=self.id_b,
            revocations=tuple(
                SessionRevocation(session_id=g.session_id,
                                  id_u_opaque=g.id_u_opaque)
                for g in grants))
        self.revocations_sent += len(grants)
        self.revocation_batches_sent += 1
        state = _OutstandingBatch(
            batch=batch, destination=destination,
            deadline=max(g.expires_at for g in grants))
        self._outstanding_batches[batch.batch_id] = state
        self._transmit_batch(state)

    def _transmit_batch(self, state: _OutstandingBatch) -> None:
        state.attempts += 1
        batch = state.batch
        state.correlation_id = self.send_request(
            state.destination, batch, size=batch.wire_size,
            max_attempts=1_000_000,          # deadline is the real bound
            deadline=state.deadline,
            on_give_up=lambda _msg, b=batch.batch_id: self._batch_gave_up(b),
            on_retransmit=lambda _msg, _n: self._note_batch_retry())

    def _note_batch_retry(self) -> None:
        self.revocation_batches_retried += 1

    def _batch_gave_up(self, batch_id: int) -> None:
        if self._outstanding_batches.pop(batch_id, None) is not None:
            self.revocation_batches_failed += 1

    # -- session lifecycle ----------------------------------------------------
    def _on_grant_expired(self, grant: SapGrant) -> None:
        self._session_btelco.pop(grant.session_id, None)
        self.billing.close_session(grant.session_id)

    def archive_settled(self) -> list:
        """End-of-cycle settlement sweep: every closed ledger is settled
        and retired to the billing archive (retrievable via
        ``billing.audit``).  Returns the invoices issued."""
        closed = sorted(session_id for session_id, ledger
                        in self.billing.sessions.items() if ledger.closed)
        return [self.billing.archive_session(session_id, now=self.sim.now)
                for session_id in closed]

    def stats(self) -> dict:
        """Lifecycle counters: SAP state sizes plus daemon-level tallies."""
        stats = self.sap.stats()
        stats.update(requests_approved=self.requests_approved,
                     requests_denied=self.requests_denied,
                     revocations_sent=self.revocations_sent,
                     revocation_batches_sent=self.revocation_batches_sent,
                     revocation_batches_acked=self.revocation_batches_acked,
                     revocation_batches_retried=self.revocation_batches_retried,
                     revocation_batches_failed=self.revocation_batches_failed,
                     revocation_batches_outstanding=len(
                         self._outstanding_batches),
                     revocation_acks_bad=self.revocation_acks_bad,
                     reports_retried=self.reports_retried,
                     scope_notices_accepted=self.scope_notices_accepted,
                     scope_notices_denied=self.scope_notices_denied,
                     reports_lost=self.billing.reports_unmatched,
                     ledgers_archived=self.billing.ledgers_archived,
                     sessions_tracked=len(self._session_btelco),
                     pipeline_enabled=self.pipeline_enabled,
                     pipeline_batches=self.pipeline_batches,
                     pipeline_requests=self.pipeline_requests,
                     pipeline_full_flushes=self.pipeline_full_flushes,
                     pipeline_adaptive=self._parked.adaptive is not None,
                     pipeline_window_s=(
                         self._parked.adaptive.window()
                         if self._parked.adaptive is not None
                         else self._parked.WINDOW),
                     cert_cache_hits=self.cert_cache_hits)
        stats.update(self.reliable_stats())
        if self.frontend is not None:
            stats["distributed"] = self.frontend.stats()
        return stats

    def mandate_intercept(self, id_u: str) -> None:
        """Place a subscriber under lawful intercept (legal process at
        the broker — the bTelco only ever sees the session pseudonym)."""
        self.sap.li_targets.add(id_u)

    def lift_intercept(self, id_u: str) -> None:
        self.sap.li_targets.discard(id_u)

    # -- policy -------------------------------------------------------------------
    def _btelco_policy(self, id_t: str) -> Optional[str]:
        """Deny bTelcos whose reputation fell below threshold (§4.3)."""
        if not self.reputation.btelco_acceptable(id_t):
            return "reputation below threshold"
        return None

    # -- handlers --------------------------------------------------------------------
    def _handle_auth_request(self, src_ip: str,
                             request: BrokerAuthRequest) -> None:
        if self.frontend is not None:
            self.frontend.handle_auth(src_ip, request)
            return
        if self.pipeline_enabled:
            self._enqueue_auth_request(src_ip, request)
            return
        try:
            sealed_t, sealed_u, grant = self.sap.process_request(
                request.auth_req_t, now=self.sim.now)
        except SapError as exc:
            self._deny(src_ip, request, str(exc))
            return
        self._approve(src_ip, request, sealed_t, sealed_u, grant)

    def _approve(self, src_ip: str, request: BrokerAuthRequest,
                 sealed_t, sealed_u, grant: SapGrant,
                 deferred=None) -> None:
        """Bookkeeping + response for an approved attach (every path)."""
        self.requests_approved += 1
        self._session_btelco[grant.session_id] = src_ip
        self._btelco_keys[src_ip] = \
            request.auth_req_t.t_certificate.public_key
        if grant.session_id not in self.billing.sessions:
            # Guard against a duplicate request re-served from the SAP
            # idempotency cache wiping an already-populated ledger.
            self.billing.open_session(
                grant,
                ue_public_key=self.sap.subscriber(grant.id_u).public_key,
                btelco_public_key=request.auth_req_t.t_certificate.public_key)
        self._reply(src_ip, BrokerAuthResponse(
            approved=True, auth_resp_t=sealed_t, auth_resp_u=sealed_u,
            reply_token=request.reply_token),
            sealed_t.wire_size + sealed_u.wire_size + 64, deferred)

    def _deny(self, src_ip: str, request: BrokerAuthRequest, cause: str,
              retryable: bool = False, deferred=None) -> None:
        """Count + response for a denied attach (every path)."""
        self.requests_denied += 1
        self._reply(src_ip, BrokerAuthResponse(
            approved=False, cause=cause, retryable=retryable,
            reply_token=request.reply_token), 96, deferred)

    def _reply(self, dst: str, message: object, size: int,
               deferred) -> None:
        """Answer in the handler, or later through the deferred reply
        captured when the request arrived."""
        if deferred is None:
            self.send(dst, message, size=size)
        else:
            deferred.send(dst, message, size=size)
            deferred.complete()

    # -- the batching pipeline ------------------------------------------------
    def _enqueue_auth_request(self, src_ip: str,
                              request: BrokerAuthRequest) -> None:
        """Pipeline ingress: park the request in the current batch
        window; the reply is completed asynchronously at flush time."""
        deferred = self.defer_reply()
        corr_id = 0
        if deferred.reply_context is not None:
            corr_id = deferred.reply_context.correlation_id
        if self._parked.park(_PipelineItem(
                src_ip=src_ip, request=request, deferred=deferred,
                arrived=self.sim.now, corr_id=corr_id)):
            self.pipeline_full_flushes += 1

    def _flush_auth_batch(self) -> None:
        """Drain the batch through the two-stage cost model.

        Stage A (parallel): certificate validation — charged once per
        certificate thanks to the verify-result cache — plus the two
        signature checks and the authVec decrypt, on the earliest-free
        verify worker.  Stage B (serialized per shard): the replay
        window, policy, and the two RSA seal+sign private ops on the
        owning shard's lane.  All real crypto executes here (its results
        are time-independent); replies are scheduled at each item's
        modeled completion time, so identically-seeded runs replay the
        exact same event sequence.
        """
        batch = self._parked.take()
        if not batch:
            return
        now = self.sim.now
        scale = self._cost_scale()
        obs = self.sim.obs
        tracer = obs.tracer if obs is not None and obs.tracing else None
        self.pipeline_batches += 1
        self.pipeline_requests += len(batch)
        sap = self.sap
        sap.begin_window(now)
        for item in batch:
            request = item.request.auth_req_t
            cached = sap.lookup_cached(sap._request_digest(request))
            if cached is not None:
                # Idempotent re-serve of a duplicate (fresh correlation,
                # bit-identical request): no verify pass, reply now.
                self._schedule_completion(item, now, approved=cached)
                continue
            # -- stage A: parallel verification ---------------------------
            fingerprint = item.request.auth_req_t.t_certificate \
                .public_key.fingerprint()
            cost_a = 2 * SIG_VERIFY_COST + AUTHVEC_DECRYPT_COST
            if fingerprint in self._verified_certs:
                self.cert_cache_hits += 1
                cost_a += CACHED_VERIFY_COST
            else:
                self._verified_certs.add(fingerprint)
                cost_a += CERT_VALIDATE_COST
            cost_a *= scale
            worker = min(range(len(self._worker_free)),
                         key=lambda i: self._worker_free[i])
            start_a = max(now, self._worker_free[worker])
            end_a = start_a + cost_a
            self._worker_free[worker] = end_a
            self.charge(cost_a)
            ctx = item.deferred.obs_ctx or (0, 0)
            prepared = denial = None
            try:
                prepared = sap.prevalidate(request, now)
            except SapError as exc:
                denial = str(exc)
            if tracer is not None:
                tracer.begin("sap.broker_verify", self.name,
                             self.obs_category, start=start_a, end=end_a,
                             trace_id=ctx[0], parent_id=ctx[1],
                             corr_id=item.corr_id)
            if prepared is None:
                self._schedule_completion(item, end_a, cause=denial)
                continue
            # -- stage B: the shard's serialized replay/mint lane ---------
            start_b = max(end_a, self._shard_free.get(prepared.shard_id,
                                                      0.0))
            try:
                outcome = {"approved": sap.finish_request(prepared, start_b)}
                cost_b = 2 * SEAL_SIGN_COST * scale
            except SapError as exc:
                outcome = {"cause": str(exc)}
                cost_b = DENIAL_FINISH_COST * scale
            end_b = start_b + cost_b
            self._shard_free[prepared.shard_id] = end_b
            self.charge(cost_b)
            if tracer is not None:
                tracer.begin("sap.broker_mint", self.name,
                             self.obs_category, start=start_b, end=end_b,
                             trace_id=ctx[0], parent_id=ctx[1],
                             corr_id=item.corr_id)
            self._schedule_completion(item, end_b, **outcome)

    def _schedule_completion(self, item: _PipelineItem, at: float,
                             approved=None, cause: str = "") -> None:
        self.sim.schedule(max(0.0, at - self.sim.now),
                          self._complete_auth, item, approved, cause)

    def _complete_auth(self, item: _PipelineItem, approved,
                       cause: str) -> None:
        if approved is None:
            self._deny(item.src_ip, item.request, cause,
                       deferred=item.deferred)
            return
        self._approve(item.src_ip, item.request, *approved,
                      deferred=item.deferred)

    # -- mobility-scoped attach notices (§4.2) --------------------------------
    def register_btelco(self, certificate, now: Optional[float] = None) -> bool:
        """Admit a bTelco to the scope directory (CA-validated): its key
        becomes available for sealing per-site scope secrets, so the
        broker can include it in minted mobility scopes."""
        return self.sap.register_btelco(
            certificate, self.sim.now if now is None else now)

    def _handle_scope_notice(self, src_ip: str,
                             notice: ScopeAttachNotice) -> None:
        """A bTelco reports a scope-local attach it validated itself.

        Off the attach critical path, but load-bearing for everything
        else: the counter becomes the authoritative cross-site replay
        floor, revocation routing re-points at the new serving site, and
        the billing ledger learns the site's reporter key.  A terminal
        nack tells the bTelco to tear the session down.
        """
        certificate = notice.certificate
        if certificate is None \
                or not self.sap.register_btelco(certificate, self.sim.now) \
                or not certificate.public_key.verify(
                    notice.signed_bytes(), notice.signature) \
                or certificate.subject != notice.id_t:
            # Unverifiable notice: don't touch the counter floor, and
            # don't ack-tear-down a session on an attacker's say-so
            # either — deny terminally so a *legitimate* sender (which
            # would never produce one) is unaffected.
            self.scope_notices_denied += 1
            self.send(src_ip, ScopeAttachAck(
                session_id=notice.session_id, counter=notice.counter,
                accepted=False, cause="unverifiable notice"), size=64)
            return
        if self.frontend is not None:
            self.frontend.handle_scope_notice(src_ip, notice)
            return
        accepted, retryable, cause = self.sap.note_scope_attach(
            notice.session_id, notice.counter, self.sim.now)
        self._finish_scope_notice(src_ip, notice, accepted, retryable,
                                  cause)

    def _finish_scope_notice(self, src_ip: str, notice: ScopeAttachNotice,
                             accepted: bool, retryable: bool,
                             cause: str, deferred=None) -> None:
        """Shared tail of the local and distributed notice paths.

        The distributed path passes the ``deferred`` reply captured when
        the notice arrived, so the eventual ack still correlates with the
        bTelco's reliable request (stopping its retransmissions).
        """
        if accepted:
            self.scope_notices_accepted += 1
            # The session moved: revocations now go to the new site, and
            # its reports verify under the new site's key.
            self._session_btelco[notice.session_id] = src_ip
            self._btelco_keys[src_ip] = notice.certificate.public_key
            if notice.session_id in self.billing.sessions:
                self.billing.register_reporter_key(
                    notice.session_id, REPORTER_BTELCO,
                    notice.certificate.public_key)
        else:
            self.scope_notices_denied += 1
        self._reply(src_ip, ScopeAttachAck(
            session_id=notice.session_id, counter=notice.counter,
            accepted=accepted, retryable=retryable, cause=cause),
            64, deferred)

    def _handle_report(self, src_ip: str,
                       upload: TrafficReportUpload) -> None:
        self.billing.ingest(upload, now=self.sim.now)
        self.send(src_ip, ReportAck(session_id=upload.session_id,
                                    seq=upload.seq,
                                    reporter=upload.reporter), size=48)

    def note_retransmitted_request(self, message: object) -> None:
        if isinstance(message, TrafficReportUpload):
            self.reports_retried += 1
        if self.frontend is not None:
            self.frontend.note_retransmitted(message)

    def _handle_revocation_ack(self, src_ip: str, ack: RevocationAck) -> None:
        """Close out a revocation batch once its *signed* ack arrives.

        Idempotent (a duplicate ack for an already-closed batch is
        ignored) and forgery-resistant: the signature must verify under
        the key the bTelco authenticated with at SAP time, else the batch
        keeps retrying — an on-path attacker cannot silence a revocation.
        """
        state = self._outstanding_batches.get(ack.batch_id)
        if state is None:
            return
        key = self._btelco_keys.get(src_ip)
        expected = tuple(sorted(
            r.session_id for r in state.batch.revocations))
        if (key is None or tuple(sorted(ack.session_ids)) != expected
                or not ack.verify(key)):
            self.revocation_acks_bad += 1
            # The transport matched the response and stopped
            # retransmitting; a forged/bad ack must not end the protocol,
            # so re-issue the batch as a fresh reliable request.
            self._transmit_batch(state)
            return
        del self._outstanding_batches[ack.batch_id]
        self.revocation_batches_acked += 1
