"""The bTelco serving core: everything CellBricks adds to a serving node.

The paper's architecture is generation-agnostic ("the cellular core,
called EPC in LTE or 5GC in 5G"): SAP (§4.1), grant lifetime, the
revocation cascade and §4.2's scoped re-attach say nothing about which
NAS dialect carries them.  :class:`SapServingCore` is that RAT-free part,
mixed in *ahead of* a baseline serving node
(:class:`repro.core.btelco.CellBricksAgw` over :class:`repro.lte.Agw`,
:class:`repro.core.btelco5g.CellBricksAmf` over
:class:`repro.fivegc.nf.Amf`), exactly the way the prototype layers its
changes onto Magma (§5).  Key behavioural differences from the baseline:

* authentication goes UE -> bTelco -> broker -> bTelco -> UE in **one**
  round-trip to the cloud (LTE pays two: AIR + ULR; 5G two: AUSF
  authenticate + RES* confirmation);
* there is **no** subscriber database lookup — the bTelco serves users it
  has never seen, holding only the broker-signed authorization;
* the UE is identified by an opaque per-session pseudonym, never an
  IMSI/SUPI;
* QoS parameters arrive from the broker (qosInfo) instead of a local
  subscription profile.

The core never asks which generation it serves: what differs is supplied
by the adapter as class attributes and overridden hooks (listed on the
class; DESIGN.md "Serving core and its two adapters" says why each one
differs).  Everything below SAP — contexts, NAS dispatch, SMC, accept
supervision, the attempt deadline — is the substrate's
(:class:`repro.lte.serving_base.ServingNodeBase`), one implementation
under both adapters.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.lte.security import SecurityContext
from repro.lte.serving_base import Leg
from repro.lte.signaling import CounterAttr
from repro.net import Host

from .messages import (
    BrokerAuthRequest,
    BrokerAuthResponse,
    DenialCause,
    RevocationAck,
    ScopeAttachAck,
    ScopeAttachNotice,
    SessionRevocation,
    SessionRevocationBatch,
)
from .qos import QosCapabilities
from .sap import AuthorizedSession, BtelcoSap, BtelcoSapConfig, SapError


#: message-table rows every CellBricks adapter adds to its substrate's.
SAP_MESSAGE_LEGS = {
    BrokerAuthResponse: Leg("_handle_broker_response", "sap.btelco_verify",
                            "broker_auth_response"),
    ScopeAttachAck: Leg("_handle_scope_ack"),
    SessionRevocationBatch: Leg("_handle_revocation_batch",
                                "revocation.btelco_batch"),
}


def sap_nas_legs(request: type, scoped_request: type, request_cost: str,
                 scoped_cost: str) -> dict:
    """Uplink NAS-table rows for an adapter's two SAP request classes
    (``*_cost``: their keys in the adapter's cost table)."""
    return {
        request: Leg("_on_sap_request", "sap.btelco_sign", request_cost),
        scoped_request: Leg("_on_sap_scoped_request",
                            "sap.btelco_scope_validate", scoped_cost),
    }


class SapServingCore:
    """SAP relay, grant lifecycle, revocation cascade and scoped
    re-attach for one bTelco site, over whichever serving node follows
    it in the MRO.

    The adapter supplies, as class attributes: ``sap_challenge`` (its
    NAS class) and its substrate's tables extended with
    :data:`SAP_MESSAGE_LEGS` / :func:`sap_nas_legs`; as methods:
    :meth:`reject_sap`, :meth:`_install_identity`, ``_teardown_session``
    and a :meth:`_forget_session` extension where it keeps per-session
    resources.  It calls :meth:`_enforce_grant_lifetime` once security
    is established and :meth:`_refuse_if_revoked` on attach completion;
    the substrate's ``context_released`` hook reclaims SAP state on
    every terminal path.
    """

    # One metric name per counter in both generations, so fleet-wide
    # registry merges aggregate per-protocol counters across RATs.
    expired_sessions = CounterAttr("btelco.expired_sessions")
    revoked_sessions = CounterAttr("btelco.revoked_sessions")
    revocation_dups = CounterAttr("btelco.revocation_dups")
    revocation_acks_sent = CounterAttr("btelco.revocation_acks_sent")
    dup_attach_requests = CounterAttr("btelco.dup_attach_requests")
    broker_timeouts = CounterAttr("btelco.broker_timeouts")
    scoped_attaches = CounterAttr("btelco.scoped_attaches")
    scoped_rejects = CounterAttr("btelco.scoped_rejects")
    scope_replays_denied = CounterAttr("btelco.scope_replays_denied")
    scope_notices_sent = CounterAttr("btelco.scope_notices_sent")
    scope_notice_nacks = CounterAttr("btelco.scope_notice_nacks")

    #: retryable-nack re-notify schedule (broker shard failing over).
    scope_notice_backoff = 0.5
    scope_notice_max_attempts = 6

    def __init__(self, host: Host, *, broker_ip: str, id_t: str,
                 key: PrivateKey, certificate: Certificate,
                 ca_public_key: PublicKey,
                 qos_capabilities: Optional[QosCapabilities],
                 **substrate):
        super().__init__(host, **substrate)
        self.broker_ip = broker_ip
        #: multi-tenancy: requests route to the broker the UE names in
        #: authReqU.idB ("a single bTelco cell site can support multiple
        #: brokers", §3.1).  ``broker_ip`` is the single-broker fallback.
        self.broker_endpoints: dict[str, str] = {}
        self.sap = BtelcoSap(BtelcoSapConfig(
            id_t=id_t, key=key, certificate=certificate,
            qos_capabilities=qos_capabilities or QosCapabilities(),
            ca_public_key=ca_public_key))
        self.id_t = id_t
        self.key = key
        self.broker_public_keys: dict[str, PublicKey] = {}
        self.sessions: dict[str, AuthorizedSession] = {}
        self.session_brokers: dict[str, str] = {}   # session -> id_b
        self._pending_sap: dict[int, object] = {}   # reply_token -> context
        self._tokens = itertools.count(1)
        #: seconds of service rendered by scoped sessions the broker
        #: later vetoed (fleet-drive gate: must stay 0.0).
        self.scope_unauthorized_session_s = 0.0
        #: per-grant highest attach counter seen at *this* site — the
        #: local replay floor for mobility-scoped re-attaches (the broker
        #: holds the authoritative cross-site floor).
        self._scope_counters: dict[str, int] = {}
        #: session_id -> (token, counter, attempt) notices still awaiting
        #: a broker verdict (retryable nacks re-notify with backoff).
        self._scope_notice_pending: dict[str, tuple] = {}

    # -- adapter hooks ------------------------------------------------------------
    def reject_sap(self, context, cause: str,
                   retryable: bool = False) -> None:
        """Deliver a SAP denial to the UE in the substrate's dialect."""
        raise NotImplementedError

    def _install_identity(self, context, session: AuthorizedSession) -> None:
        """Record the authorized pseudonym (and whatever subscription
        profile the substrate keeps) on the UE context."""
        raise NotImplementedError

    def _forget_session(self, session_id: str) -> None:
        """Drop a session's bookkeeping (adapters extend this with their
        per-session resources)."""
        self.sessions.pop(session_id, None)
        self.session_brokers.pop(session_id, None)

    # -- broker trust bootstrap ---------------------------------------------------
    def trust_broker(self, id_b: str, public_key: PublicKey,
                     endpoint_ip: Optional[str] = None) -> None:
        """Record a broker's public key (normally learned from its
        CA-signed certificate on first contact) and, optionally, the
        address its brokerd answers on."""
        self.broker_public_keys[id_b] = public_key
        if endpoint_ip is not None:
            self.broker_endpoints[id_b] = endpoint_ip

    def broker_endpoint(self, id_b: str) -> str:
        """Where to send SAP requests for broker ``id_b``."""
        return self.broker_endpoints.get(id_b, self.broker_ip)

    # -- SAP flow -----------------------------------------------------------------
    def _drop_broker_leg(self, context) -> None:
        if context.broker_token is not None:
            self._pending_sap.pop(context.broker_token, None)
            self.cancel_request(context.broker_corr_id)
            context.broker_token = None

    def _begin_attempt(self, context, key, id_b: str) -> None:
        """Fresh attempt (new nonce / attach counter): drop any stale
        broker leg and everything cached for the previous attempt."""
        self._drop_broker_leg(context)
        context.sap_request_key = key
        context.sap_challenge = None
        context.sap_session = None
        context.attempt_started_at = self.sim.now
        context.broker_id = id_b

    def _on_sap_request(self, context, request) -> None:
        key = request.auth_req_u.auth_vec_encrypted
        if context.sap_request_key == key:
            # A retransmission of the attempt we are already serving: the
            # RAN's ue id is stable per UE, so the context tells us exactly
            # which leg to replay (idempotent — nothing re-executes).
            self.dup_attach_requests += 1
            if context.state == "WAIT_BROKER":
                return  # broker leg in flight and retransmitting itself
            if context.state == "WAIT_SMC_COMPLETE" \
                    and context.sap_challenge is not None:
                # The challenge and/or SMC downlink was lost: replay both.
                self.downlink(context, context.sap_challenge)
                self.send_smc(context)
            return
        self._begin_attempt(context, key, request.auth_req_u.id_b)
        context.state = "WAIT_BROKER"
        self._arm_deadline(context)
        auth_req_t = self.sap.augment_request(request.auth_req_u)
        token = next(self._tokens)
        self._pending_sap[token] = context
        context.broker_token = token
        wire = BrokerAuthRequest(auth_req_t=auth_req_t, reply_token=token)
        # Reliable leg: the broker round-trip crosses the backhaul/cloud
        # path, so it is retransmitted with backoff; if the broker stays
        # unreachable past the budget the UE gets a clean reject and the
        # pending entry is reclaimed (no WAIT_BROKER wedge).
        context.broker_corr_id = self.send_request(
            self.broker_endpoint(request.auth_req_u.id_b), wire,
            size=auth_req_t.wire_size + 32,
            on_give_up=lambda _msg, t=token: self._broker_gave_up(t))

    def _broker_gave_up(self, token: int) -> None:
        context = self._pending_sap.pop(token, None)
        if context is None or context.state != "WAIT_BROKER":
            return
        self.broker_timeouts += 1
        context.broker_token = None
        self.reject_sap(context, "broker unreachable")

    def _handle_broker_response(self, src_ip: str,
                                response: BrokerAuthResponse) -> None:
        context = self._pending_sap.pop(response.reply_token, None)
        if context is None or context.state != "WAIT_BROKER":
            return
        context.broker_token = None
        if not response.approved:
            self.reject_sap(context, response.cause,
                            retryable=response.retryable)
            return
        broker_key = self.broker_public_keys.get(context.broker_id)
        if broker_key is None:
            self.reject_sap(context, "unknown broker")
            return
        try:
            session = self.sap.process_authorization(
                response.auth_resp_t, broker_key,
                broker_certificate=None, now=self.sim.now)
        except SapError as exc:
            self.reject_sap(context, str(exc))
            return
        self._install_session(context, session)
        # Step 4: forward authRespU, then activate security.  The
        # challenge is cached on the context so a retransmitted SAP
        # request can replay this leg without consulting the broker.
        challenge = self.sap_challenge(auth_resp_u=response.auth_resp_u)
        context.sap_challenge = challenge
        self.downlink(context, challenge)
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)

    def _install_session(self, context, session: AuthorizedSession) -> None:
        """The broker-issued ss seeds the standard security context
        (KASME / K_AMF); SMC proceeds as in the baseline."""
        self._install_identity(context, session)
        context.security = SecurityContext(kasme=session.ss)
        self.sessions[session.session_id] = session
        self.session_brokers[session.session_id] = context.broker_id
        context.sap_session = session

    # -- mobility-scoped re-attach (§4.2) -----------------------------------------
    def _on_sap_scoped_request(self, context, request) -> None:
        """Scope-local re-attach: validate the broker-signed token right
        here — signature, scope membership, expiry, possession MAC and
        the monotonic attach counter — with **no** broker round-trip.
        The broker is told asynchronously (:meth:`_notify_scope_attach`)
        so revocation routing, billing and the authoritative cross-site
        replay floor stay correct."""
        token = request.token
        key = ("scope", token.sig, request.counter)
        if context.sap_request_key == key:
            # Retransmission of the attempt we already served: replay the
            # SMC leg (there is no challenge downlink on the scoped path).
            self.dup_attach_requests += 1
            if context.state == "WAIT_SMC_COMPLETE":
                self.send_smc(context)
            return
        self._begin_attempt(context, key, token.id_b)
        try:
            session = self.sap.validate_scoped_attach(
                token, request.counter, request.mac,
                self.broker_public_keys, self.sim.now,
                self._scope_counters.get(token.session_id, 0))
        except SapError as exc:
            self.scoped_rejects += 1
            if exc.cause == DenialCause.REPLAY:
                self.scope_replays_denied += 1
            self.reject_sap(context, str(exc))
            return
        # Commit the local replay floor only after full validation so
        # probes cannot burn counters.
        self._scope_counters[token.session_id] = request.counter
        self.scoped_attaches += 1
        self._arm_deadline(context)
        self._install_session(context, session)
        # Both sides already hold ss: skip the challenge downlink and go
        # straight to SMC.
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)
        self._notify_scope_attach(token, request.counter)

    def validate_scope_probe(self, token, counter: int,
                             mac: bytes) -> Optional[str]:
        """Dry-run a scoped attach against this site's local state and
        return the denial cause (``None`` if it would be accepted).
        Read-only — no counter is committed, no session created.  Used
        by harnesses to assert that replayed / out-of-scope / expired
        grants are denied without perturbing live state."""
        try:
            self.sap.validate_scoped_attach(
                token, counter, mac, self.broker_public_keys, self.sim.now,
                self._scope_counters.get(token.session_id, 0))
        except SapError as exc:
            cause = exc.cause
            return cause.value if cause is not None else str(exc)
        return None

    def _notify_scope_attach(self, token, counter: int,
                             attempt: int = 0) -> None:
        """Asynchronously tell the issuing broker about the scope-local
        attach (reliable leg, off the attach critical path): it advances
        the authoritative replay floor, re-points revocation routing at
        this site, and keeps billing session continuity."""
        unsigned = ScopeAttachNotice(session_id=token.session_id,
                                     counter=counter, id_t=self.id_t)
        notice = ScopeAttachNotice(
            session_id=token.session_id, counter=counter, id_t=self.id_t,
            certificate=self.sap.config.certificate,
            signature=self.key.sign(unsigned.signed_bytes()))
        self.scope_notices_sent += 1
        self._scope_notice_pending[token.session_id] = \
            (token, counter, attempt)
        self.send_request(self.broker_endpoint(token.id_b), notice,
                          size=notice.wire_size)

    def _handle_scope_ack(self, src_ip: str, ack: ScopeAttachAck) -> None:
        pending = self._scope_notice_pending.get(ack.session_id)
        if ack.accepted:
            self._scope_notice_pending.pop(ack.session_id, None)
            return
        if ack.retryable:
            # A broker shard is failing over: the nack completed our
            # reliable request, so *we* own the retry.  Re-notify with
            # backoff while the session is still live — the counter
            # floor must eventually reach the broker.
            if pending is not None and pending[1] == ack.counter:
                token, counter, attempt = pending
                if attempt + 1 < self.scope_notice_max_attempts \
                        and ack.session_id in self.sessions:
                    self.sim.schedule(
                        self.scope_notice_backoff * (attempt + 1),
                        self._notify_scope_attach, token, counter,
                        attempt + 1)
                else:
                    self._scope_notice_pending.pop(ack.session_id, None)
            return
        self._scope_notice_pending.pop(ack.session_id, None)
        # Terminal nack: the broker says this scoped attach must not
        # stand (revoked, expired, or a cross-site replay our local
        # floor could not see).  Withdraw the session now.
        self.scope_notice_nacks += 1
        context = self._withdraw_session(ack.session_id)
        if context is not None:
            # Service rendered between the optimistic local validation
            # and the broker's veto was unauthorized — account for it
            # (the fleet-drive gate requires this stays 0).
            self.scope_unauthorized_session_s += max(
                0.0, self.sim.now - context.attempt_started_at)

    # -- grant lifecycle ----------------------------------------------------------
    def _enforce_grant_lifetime(self, context) -> None:
        session = context.sap_session
        if session is not None:
            # The broker's authorization has a lifetime; serving past it
            # would be unauthorized service.  Schedule enforcement.
            delay = max(0.0, session.expires_at - self.sim.now)
            self.sim.schedule(delay, self._expire_session,
                              session.session_id, context.ran_ue_id)

    def _expire_session(self, session_id: str, ue_id: int) -> None:
        """Authorization lifetime reached: network-initiated detach."""
        context = self.contexts.get(ue_id)
        if context is None or session_id not in self.sessions:
            return
        if getattr(context.sap_session, "session_id", None) != session_id:
            return  # the UE re-attached under a newer authorization
        if context.state not in self.live_states:
            return
        self.expired_sessions += 1
        self._teardown_session(context, session_id)

    def _refuse_if_revoked(self, context) -> bool:
        """On attach completion: tear the session straight down if its
        grant was revoked while the attach was in flight."""
        session = context.sap_session
        if session is None or context.state not in self.live_states \
                or self.sap.session_authorized(session.session_id):
            return False
        self.revoked_sessions += 1
        self._teardown_session(context, session.session_id)
        return True

    def context_released(self, context) -> None:
        """Every terminal transition (a releasing reject, abandon,
        detach, teardown, deadline GC) reclaims the broker leg and the
        session bookkeeping, so ``_pending_sap``/``sessions`` cannot grow
        with every detach-reattach cycle (and unauthorized-session
        accounting never reads stale entries)."""
        self._drop_broker_leg(context)
        session = context.sap_session
        if session is not None:
            self._forget_session(session.session_id)
            context.sap_session = None
        super().context_released(context)

    # -- revocation cascade -------------------------------------------------------
    def _handle_revocation_batch(self, src_ip: str,
                                 batch: SessionRevocationBatch) -> None:
        """Apply every revocation in the batch and return a signed ack.

        Idempotent per notice: a batch retransmitted past the transport's
        dedup window re-acks without double-detaching anything, so the
        broker's retry loop always converges.
        """
        session_ids = []
        for notice in batch.revocations:
            self._apply_revocation(notice)
            session_ids.append(notice.session_id)
        ack_ids = tuple(sorted(session_ids))
        unsigned = RevocationAck(batch_id=batch.batch_id, id_t=self.id_t,
                                 session_ids=ack_ids)
        ack = RevocationAck(batch_id=batch.batch_id, id_t=self.id_t,
                            session_ids=ack_ids,
                            signature=self.key.sign(unsigned.signed_bytes()))
        self.revocation_acks_sent += 1
        self.send(src_ip, ack, size=96 + 16 * len(ack_ids))

    def _apply_revocation(self, notice: SessionRevocation) -> None:
        """Broker withdrew an authorization we hold: serving this session
        any further would be unauthorized service, so detach it now and
        refuse the grant if it is ever presented again."""
        if not self.sap.session_authorized(notice.session_id):
            # Already applied (duplicate notice): nothing to tear down.
            self.revocation_dups += 1
            return
        self._withdraw_session(notice.session_id)

    def _withdraw_session(self, session_id: str):
        """Tombstone the grant and stop serving it; returns the context
        that was holding the session, if any."""
        self.sap.revoke_session(session_id)
        if session_id not in self.sessions:
            return None
        self.revoked_sessions += 1
        context = next(
            (c for c in self.contexts.values()
             if getattr(c.sap_session, "session_id", None) == session_id),
            None)
        if context is not None and context.state in self.live_states:
            self._teardown_session(context, session_id)
        else:
            # Mid-attach or already torn down: just drop the bookkeeping;
            # attach completion refuses revoked sessions.
            self._forget_session(session_id)
        return context

    # -- introspection ------------------------------------------------------------
    def _grant_stats(self) -> dict:
        return {
            "expired_sessions": self.expired_sessions,
            "revoked_sessions": self.revoked_sessions,
            "revocation_dups": self.revocation_dups,
            "revocation_acks_sent": self.revocation_acks_sent,
            "dup_attach_requests": self.dup_attach_requests,
            "broker_timeouts": self.broker_timeouts,
        }

    def _scope_stats(self) -> dict:
        return {
            "scoped_attaches": self.scoped_attaches,
            "scoped_rejects": self.scoped_rejects,
            "scope_replays_denied": self.scope_replays_denied,
            "scope_notices_sent": self.scope_notices_sent,
            "scope_notice_nacks": self.scope_notice_nacks,
            "scope_unauthorized_session_s":
                round(self.scope_unauthorized_session_s, 9),
        }
