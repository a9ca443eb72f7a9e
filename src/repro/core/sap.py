"""SAP — the Secure Attachment Protocol (§4.1, Fig 2 & Fig 3).

Pure protocol logic, independent of the signaling transport: the
procedures run at the UE (:class:`UeSap`), the bTelco
(:class:`BtelcoSap`), and the broker (:class:`BrokerSap`).  The LTE-side
components (:mod:`repro.core.ue_agent`, :mod:`repro.core.btelco`,
:mod:`repro.core.broker`) drive these over NAS / the bTelco-broker
channel.

Security goals realized here (paper's requirements i-iii):

* mutual authentication UE <-> broker — the UE proves itself via the
  signature over the encrypted authVec; the broker proves itself via its
  signature over authRespU carrying the UE's fresh nonce;
* mutual authentication bTelco <-> broker — certificate-based, both ways;
* authorization — authRespT, signed by the broker, is the bTelco's
  irrefutable proof that serving this (pseudonymous) UE was authorized.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import secrets
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs import CounterAttr, MetricsRegistry

from repro.crypto import (
    Certificate,
    CertificateError,
    CryptoError,
    PrivateKey,
    PublicKey,
    validate_certificate,
)

from .messages import (
    AuthReqT,
    AuthReqU,
    AuthRespT,
    AuthRespU,
    AuthVec,
    DenialCause,
    MessageError,
    NONCE_SIZE,
    ScopeToken,
    SealedResponse,
    scope_attach_mac,
    seal_and_sign,
    signed_bytes_for_auth_req_t,
)
from .qos import QosCapabilities, QosInfo, select_qos

SS_SIZE = 32  # shared secret = KASME master key


class SapError(Exception):
    """Raised when a SAP check fails (authentication, freshness, ...).

    ``cause`` classifies the denial (see :class:`DenialCause`) so callers
    can aggregate counters and surface machine-readable reasons without
    parsing the human-oriented message.
    """

    def __init__(self, message: str,
                 cause: DenialCause = DenialCause.OTHER):
        super().__init__(message)
        self.cause = cause


# ---------------------------------------------------------------------------
# UE side (Fig 2)
# ---------------------------------------------------------------------------

@dataclass
class UeSapCredentials:
    """What the SIM card stores: U's keypair and B's public key (§4.1:
    "U only requires a small set of static parameters...  embedded in the
    U's SIM card")."""

    id_u: str
    id_b: str
    ue_key: PrivateKey
    broker_public_key: PublicKey


class UeSap:
    """UE-side SAP procedures."""

    def __init__(self, credentials: UeSapCredentials,
                 rng_nonce: Optional[Callable[[], bytes]] = None):
        self.credentials = credentials
        self._nonce_source = rng_nonce or (lambda: secrets.token_bytes(NONCE_SIZE))
        self._outstanding_nonce: Optional[bytes] = None
        self._target_id_t: Optional[str] = None

    def craft_request(self, id_t: str,
                      scope: Optional[dict] = None) -> AuthReqU:
        """Steps 1-4 of Fig 2: build authReqU for bTelco ``id_t``.

        ``scope`` optionally asks the broker for a mobility scope
        (``{"telcos": [...], "ttl": seconds}``); it rides inside the
        encrypted+signed authVec so nobody on path can widen it.
        """
        creds = self.credentials
        nonce = self._nonce_source()
        self._outstanding_nonce = nonce
        self._target_id_t = id_t
        auth_vec = AuthVec(id_u=creds.id_u, id_b=creds.id_b, id_t=id_t,
                           nonce=nonce, scope=scope)
        encrypted = creds.broker_public_key.encrypt(auth_vec.to_bytes())
        signature = creds.ue_key.sign(encrypted)
        return AuthReqU(sig_authvec=signature, auth_vec_encrypted=encrypted,
                        id_b=creds.id_b)

    def abandon(self) -> None:
        """Discard the outstanding (nonce, target) pair.

        Called when an attach attempt is given up (retransmission budget
        exhausted): no late-arriving response may validate against the
        abandoned nonce, and the next attach crafts a fresh request.
        """
        self._outstanding_nonce = None
        self._target_id_t = None

    def process_response(self, sealed: SealedResponse) -> AuthRespU:
        """Steps 5-6 of Fig 2: authenticate B, recover ss, check freshness.

        Raises :class:`SapError` on any failure.  The outstanding
        (nonce, target) pair is single-use: it is cleared on success *and*
        on failure, so a stale target can never validate a later response
        and any failed exchange forces a fresh :meth:`craft_request`.
        """
        creds = self.credentials
        try:
            if not sealed.verify(creds.broker_public_key):
                raise SapError("authRespU: broker signature invalid",
                               cause=DenialCause.BAD_SIGNATURE)
            try:
                payload = creds.ue_key.decrypt(sealed.blob)
                response = AuthRespU.from_bytes(payload)
            except (CryptoError, MessageError) as exc:
                raise SapError(f"authRespU: {exc}",
                               cause=DenialCause.MALFORMED) from exc
            if self._outstanding_nonce is None \
                    or response.nonce != self._outstanding_nonce:
                raise SapError("authRespU: nonce mismatch (replay?)",
                               cause=DenialCause.REPLAY)
            if response.id_u != creds.id_u:
                raise SapError("authRespU: wrong UE identity",
                               cause=DenialCause.MISMATCH)
            if response.id_t != self._target_id_t:
                raise SapError("authRespU: wrong bTelco identity",
                               cause=DenialCause.MISMATCH)
        finally:
            self._outstanding_nonce = None
            self._target_id_t = None
        return response


@dataclass
class MobilityGrant:
    """UE-side retained state for scope-local re-attach (§4.2).

    Survives ``detach_and_forget`` (unlike the per-attach EMM state):
    while the scope covers the target bTelco and has not expired, a
    re-attach presents the token + a fresh monotonic counter instead of
    crafting a new authReqU.
    """

    token: ScopeToken
    session_id: str
    ss: bytes
    #: next attach counter to present — globally monotonic per grant
    #: across every bTelco in the scope.
    next_counter: int = 1

    def covers(self, id_t: str, now: float) -> bool:
        return self.token.covers(id_t, now)


# ---------------------------------------------------------------------------
# bTelco side (Fig 3, top)
# ---------------------------------------------------------------------------

@dataclass
class BtelcoSapConfig:
    id_t: str
    key: PrivateKey
    certificate: Certificate
    qos_capabilities: QosCapabilities = field(default_factory=QosCapabilities)
    ca_public_key: Optional[PublicKey] = None  # to validate broker certs


@dataclass
class AuthorizedSession:
    """What the bTelco retains after a successful SAP run."""

    id_u_opaque: str
    ss: bytes
    qos_info: QosInfo
    session_id: str
    expires_at: float
    #: irrefutable broker-signed proof: the sealed authRespT for a full
    #: SAP run, or the :class:`~repro.core.messages.ScopeToken` for a
    #: scope-local re-attach.
    authorization: object
    lawful_intercept: bool = False


class BtelcoSap:
    """bTelco-side SAP procedures."""

    def __init__(self, config: BtelcoSapConfig):
        self.config = config
        #: grants the broker has withdrawn (revocation cascade): sessions
        #: listed here must no longer be honoured or re-validated.
        self.revoked_sessions: set[str] = set()

    def revoke_session(self, session_id: str) -> None:
        """Record a broker-side revocation of an issued authorization."""
        self.revoked_sessions.add(session_id)

    def session_authorized(self, session_id: str) -> bool:
        return session_id not in self.revoked_sessions

    def augment_request(self, auth_req_u: AuthReqU,
                        lawful_intercept: bool = False) -> AuthReqT:
        """Build authReqT: add identity, cert, qosCap; sign the result."""
        cfg = self.config
        to_sign = signed_bytes_for_auth_req_t(
            auth_req_u, cfg.id_t, cfg.qos_capabilities, lawful_intercept)
        return AuthReqT(auth_req_u=auth_req_u, id_t=cfg.id_t,
                        qos_cap=cfg.qos_capabilities,
                        t_certificate=cfg.certificate,
                        sig_t=cfg.key.sign(to_sign),
                        lawful_intercept=lawful_intercept)

    def process_authorization(self, sealed: SealedResponse,
                              broker_public_key: PublicKey,
                              broker_certificate: Optional[Certificate],
                              now: float) -> AuthorizedSession:
        """Validate authRespT: authenticate B and extract (ss, qosInfo)."""
        if broker_certificate is not None:
            if self.config.ca_public_key is None:
                raise SapError("no CA key configured to validate broker cert")
            try:
                validate_certificate(broker_certificate,
                                     self.config.ca_public_key, now,
                                     expected_role="broker")
            except CertificateError as exc:
                raise SapError(f"broker certificate invalid: {exc}") from exc
            broker_public_key = broker_certificate.public_key
        if not sealed.verify(broker_public_key):
            raise SapError("authRespT: broker signature invalid")
        try:
            payload = self.config.key.decrypt(sealed.blob)
            response = AuthRespT.from_bytes(payload)
        except (CryptoError, MessageError) as exc:
            raise SapError(f"authRespT: {exc}") from exc
        if response.id_t != self.config.id_t:
            raise SapError("authRespT: authorization is for a different bTelco",
                           cause=DenialCause.MISMATCH)
        if response.session_id in self.revoked_sessions:
            raise SapError("authRespT: session revoked",
                           cause=DenialCause.REVOKED)
        if response.expires_at < now:
            raise SapError("authRespT: authorization expired",
                           cause=DenialCause.EXPIRED)
        if not self.config.qos_capabilities.can_satisfy(response.qos_info):
            raise SapError("authRespT: qosInfo exceeds advertised capability")
        return AuthorizedSession(
            id_u_opaque=response.id_u_opaque, ss=response.ss,
            qos_info=response.qos_info, session_id=response.session_id,
            expires_at=response.expires_at, authorization=sealed,
            lawful_intercept=response.lawful_intercept)

    def validate_scoped_attach(self, token: ScopeToken, counter: int,
                               mac: bytes,
                               broker_public_keys: dict,
                               now: float,
                               highest_counter: int) -> AuthorizedSession:
        """Validate a scope-local re-attach **locally** — no broker RTT.

        Checks, in order: the broker signature over the token payload,
        scope membership + expiry, no local revocation tombstone,
        recovery of ss from our sealed ``ess`` entry, the UE's
        proof-of-possession MAC, and the monotonic attach counter
        against ``highest_counter`` (the highest this bTelco has seen
        for the grant).  Read-only: a pure function of its arguments —
        the caller commits the counter only when it actually admits the
        UE, so probes cannot burn counters.
        """
        broker_key = broker_public_keys.get(token.id_b)
        if broker_key is None:
            raise SapError("scope: token from an unknown broker",
                           cause=DenialCause.MISMATCH)
        if not token.verify(broker_key):
            raise SapError("scope: broker signature invalid",
                           cause=DenialCause.BAD_SIGNATURE)
        if not token.covers(self.config.id_t, now):
            if now >= token.expires_at:
                raise SapError("scope: token expired",
                               cause=DenialCause.EXPIRED)
            raise SapError("scope: bTelco not in the grant's scope",
                           cause=DenialCause.POLICY)
        if token.session_id in self.revoked_sessions:
            raise SapError("scope: session revoked",
                           cause=DenialCause.REVOKED)
        try:
            ss = self.config.key.decrypt(token.sealed_ss_for(
                self.config.id_t))
        except CryptoError as exc:
            raise SapError(f"scope: sealed ss undecryptable: {exc}",
                           cause=DenialCause.MALFORMED) from exc
        if scope_attach_mac(ss, token.session_id, counter,
                            self.config.id_t) != mac:
            raise SapError("scope: possession MAC invalid",
                           cause=DenialCause.BAD_SIGNATURE)
        if counter <= highest_counter:
            raise SapError("scope: replayed attach counter",
                           cause=DenialCause.REPLAY)
        qos = token.payload.get("qos", {})
        qos_info = QosInfo(qci=qos.get("qci", 9),
                           ambr_dl_bps=qos.get("dl", 20e6),
                           ambr_ul_bps=qos.get("ul", 10e6),
                           arp_priority=qos.get("arp", 9))
        if not self.config.qos_capabilities.can_satisfy(qos_info):
            raise SapError("scope: qosInfo exceeds advertised capability")
        return AuthorizedSession(
            id_u_opaque=token.id_u_opaque, ss=ss, qos_info=qos_info,
            session_id=token.session_id, expires_at=token.expires_at,
            authorization=token,
            lawful_intercept=bool(token.payload.get("li", False)))


# ---------------------------------------------------------------------------
# Broker side (Fig 3, bottom)
# ---------------------------------------------------------------------------

@dataclass
class BrokerSubscriber:
    """A subscriber record in the broker's SubscriberDB."""

    id_u: str
    public_key: PublicKey
    qos_plan: QosInfo = field(default_factory=QosInfo)
    suspended: bool = False


@dataclass
class SapGrant:
    """The broker's bookkeeping for one approved attachment."""

    id_u: str
    id_u_opaque: str
    id_t: str
    session_id: str
    ss: bytes
    qos_info: QosInfo
    granted_at: float
    expires_at: float


class ShardRouter:
    """Deterministic consistent-hash ring mapping ``id_u`` to a shard id.

    SHA-256 points with virtual nodes: adding or removing a shard moves
    only ~1/N of the keyspace, and placement is a pure function of the
    id — no randomness, no clock — so identically-seeded runs (and
    distinct processes) agree on every assignment.
    """

    VIRTUAL_NODES = 64

    def __init__(self, shard_ids=()):
        self._shards: set[int] = set()
        for shard_id in shard_ids:
            self.add(shard_id)

    @staticmethod
    def _point(token: str) -> int:
        return int.from_bytes(
            hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def _ring(shard_ids: tuple[int, ...],
              replicas: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sorted ``(points, owners)`` over ``shard_ids``.  The ring is a
        pure function of the shard set, so it is hashed and sorted once
        per set per process, not once per ``add`` per broker: every cell
        of every bench grows the same 1..N ring, and 64 SHA-256 points
        plus a re-sort per step was 7 % of a ``--quick`` attach-storm
        rep (3 % at default size)."""
        entries = sorted(
            (ShardRouter._point(f"shard:{shard_id}:{replica}"), shard_id)
            for shard_id in shard_ids for replica in range(replicas))
        return (tuple(point for point, _ in entries),
                tuple(owner for _, owner in entries))

    def add(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(shard_id)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._shards))

    def shard_for(self, id_u: str) -> int:
        """The shard owning ``id_u`` (first ring point clockwise)."""
        if not self._shards:
            raise ValueError("empty shard ring")
        points, owners = self._ring(self.shard_ids, self.VIRTUAL_NODES)
        index = bisect.bisect_right(points, self._point(f"u:{id_u}"))
        if index == len(points):
            index = 0
        return owners[index]


_EXPORT_KINDS = ("nonce", "grant", "tombstone", "scope_counter", "response")


def _export_order(op: tuple) -> tuple:
    """Export order: by kind, then by the op's own key (nonce / session
    id / digest)."""
    return _EXPORT_KINDS.index(op[0]), \
        op[1].session_id if op[0] == "grant" else op[1]


class SapShard:
    """One consistent-hash partition of the broker's SAP state.

    Everything keyed (directly or transitively) by ``id_u`` lives here:
    the subscriber records, their outstanding grants and expiry heap,
    the replay window for their nonces, and revoked-session tombstones.
    Each shard tallies its own labeled counters, so a fleet snapshot
    shows per-shard load skew.
    """

    def __init__(self, shard_id: int, metrics: MetricsRegistry):
        self.shard_id = shard_id
        self.subscribers: dict[str, BrokerSubscriber] = {}
        self.grants: dict[str, SapGrant] = {}   # session_id -> grant
        #: replay window: nonce -> (end of window, owning subscriber).
        #: The owner is carried so a rebalance can hand the entry to the
        #: subscriber's new shard with its window intact.
        self.seen_nonces: dict[bytes, tuple[float, str]] = {}
        self.nonce_expiry: list[tuple[float, bytes]] = []    # min-heap
        self.grant_expiry: list[tuple[float, str]] = []      # min-heap
        self.sessions_by_ue: dict[str, set[str]] = {}
        #: sessions revoked before natural expiry:
        #: session_id -> (owner, original expiry) so the tombstone and
        #: its eviction deadline survive a handoff.
        self.revoked_sessions: dict[str, tuple[str, float]] = {}
        #: per-grant highest attach counter seen via scope-attach
        #: notices — the broker's *authoritative* replay floor for
        #: mobility-scoped re-attaches (replicated by shard hosts, moved
        #: with the subscriber on rebalance).
        self.scope_counters: dict[str, int] = {}
        #: idempotency cache: request digest -> (minted response triple,
        #: end of its re-serve window), so a *retransmitted* request
        #: (bit-identical, thus the same nonce) re-serves the original
        #: grant instead of tripping the replay window; a *different*
        #: request reusing the nonce still lands in the replay check.
        self._response_cache: dict[bytes, tuple] = {}
        self._response_cache_expiry: list[tuple[float, bytes]] = []  # heap
        label = str(shard_id)
        self.attach_ok = metrics.counter("sap.shard.attach_ok", shard=label)
        self.replay_hits = metrics.counter(
            "sap.shard.replay_hits", shard=label)
        self.grants_expired = metrics.counter(
            "sap.shard.grants_expired", shard=label)
        self.grants_revoked = metrics.counter(
            "sap.shard.grants_revoked", shard=label)
        self.scope_attaches = metrics.counter(
            "sap.shard.scope_attaches", shard=label)

    # -- the one writer ---------------------------------------------------------
    def apply(self, op: tuple) -> None:
        """Apply one state op (see :meth:`BrokerSap.apply` for the
        vocabulary).  Every op is idempotent, so a duplicated or
        replayed batch leaves the shard unchanged."""
        kind = op[0]
        if kind == "nonce":
            _, nonce, id_u, window_end = op
            if nonce not in self.seen_nonces:
                self.seen_nonces[nonce] = (window_end, id_u)
                heapq.heappush(self.nonce_expiry, (window_end, nonce))
        elif kind == "grant":
            grant = op[1]
            if grant.session_id in self.grants \
                    or grant.session_id in self.revoked_sessions:
                return
            self.grants[grant.session_id] = grant
            self.sessions_by_ue.setdefault(grant.id_u, set()).add(
                grant.session_id)
            heapq.heappush(self.grant_expiry,
                           (grant.expires_at, grant.session_id))
        elif kind == "response":
            _, digest, triple, expires_at = op
            # Like a grant, an approval never lands on top of its own
            # session's tombstone (replayed ops must not un-revoke).
            if digest not in self._response_cache \
                    and triple[2].session_id not in self.revoked_sessions:
                self._response_cache[digest] = (triple, expires_at)
                heapq.heappush(self._response_cache_expiry,
                               (expires_at, digest))
        elif kind == "tombstone":
            _, session_id, id_u, expires_at = op
            if self.grants.pop(session_id, None) is not None:
                self._unindex_session(id_u, session_id)
            self.revoked_sessions[session_id] = (id_u, expires_at)
            heapq.heappush(self.grant_expiry, (expires_at, session_id))
            # A revoked session's approval must not be re-served to a
            # retransmission: the request is judged afresh (and denied).
            self._evict_responses(
                lambda grant: grant.session_id == session_id)
        elif kind == "scope_counter":
            _, session_id, counter = op
            # Max-merge: duplicated / reordered batches never regress
            # the replay floor.  A counter for a session this shard does
            # not hold protects nothing, and nothing would ever evict it.
            if counter > self.scope_counters.get(session_id, 0) \
                    and self.owner_of(session_id) is not None:
                self.scope_counters[session_id] = counter
        elif kind == "forget":
            self._forget(op[1])
        elif kind == "reset":
            for table in (self.seen_nonces, self.nonce_expiry, self.grants,
                          self.grant_expiry, self.sessions_by_ue,
                          self.revoked_sessions, self.scope_counters,
                          self._response_cache,
                          self._response_cache_expiry):
                table.clear()
        else:
            raise ValueError(f"unknown shard state op {kind!r}")

    def _unindex_session(self, id_u: str, session_id: str) -> None:
        sessions = self.sessions_by_ue.get(id_u)
        if sessions is not None:
            sessions.discard(session_id)
            if not sessions:
                del self.sessions_by_ue[id_u]

    def _evict_responses(self, doomed: Callable[[SapGrant], bool]) -> None:
        for digest in [d for d, (triple, _) in self._response_cache.items()
                       if doomed(triple[2])]:
            del self._response_cache[digest]

    def _forget(self, id_u: str) -> None:
        """Drop a subscriber's session state (it moved).  Heap entries
        left behind go stale and are skipped by the lazy sweeps."""
        for nonce in [n for n, (_, owner) in self.seen_nonces.items()
                      if owner == id_u]:
            del self.seen_nonces[nonce]
        owned = self.sessions_by_ue.pop(id_u, set()) | {
            s for s, (owner, _) in self.revoked_sessions.items()
            if owner == id_u}
        for session_id in owned:
            self.grants.pop(session_id, None)
            self.revoked_sessions.pop(session_id, None)
            self.scope_counters.pop(session_id, None)
        self._evict_responses(lambda grant: grant.id_u == id_u)

    # -- the one reader ---------------------------------------------------------
    def export(self, owners: Optional[set] = None) -> list:
        """The ops that rebuild this shard's session state — all of it,
        or the slice owned by the subscribers in ``owners`` — sorted
        (nonces, grants, tombstones, scope counters, responses), so
        identically-seeded runs chunk identically."""
        def mine(id_u: Optional[str]) -> bool:
            return owners is None or id_u in owners
        ops: list = [("nonce", nonce, id_u, window_end)
                     for nonce, (window_end, id_u)
                     in self.seen_nonces.items() if mine(id_u)]
        ops += [("grant", grant) for grant in self.grants.values()
                if mine(grant.id_u)]
        ops += [("tombstone", session_id, id_u, expires_at)
                for session_id, (id_u, expires_at)
                in self.revoked_sessions.items() if mine(id_u)]
        # Scope counters ride with their session (live grant or
        # tombstone): the replay floor must survive the move.
        ops += [("scope_counter", session_id, counter)
                for session_id, counter in self.scope_counters.items()
                if mine(self.owner_of(session_id))]
        ops += [("response", digest, triple, expires_at)
                for digest, (triple, expires_at)
                in self._response_cache.items() if mine(triple[2].id_u)]
        return sorted(ops, key=_export_order)

    def owner_of(self, session_id: str) -> Optional[str]:
        """The subscriber behind a session this shard holds (live grant
        or unexpired tombstone)."""
        grant = self.grants.get(session_id)
        if grant is not None:
            return grant.id_u
        tombstone = self.revoked_sessions.get(session_id)
        return tombstone[0] if tombstone is not None else None

    # -- lifetime sweeps (each host runs them on its own clock) -----------------
    def evict(self, now: float) -> None:
        """Drop nonces whose replay window has closed and responses
        past their re-serve window (monotone sweeps).

        Heap entries whose key has moved to another shard (rebalance)
        or was already evicted are skipped — stale entries are lazily
        discarded rather than eagerly rewritten at handoff time.
        """
        heap = self.nonce_expiry
        while heap and heap[0][0] <= now:
            _, nonce = heapq.heappop(heap)
            entry = self.seen_nonces.get(nonce)
            if entry is not None and entry[0] <= now:
                del self.seen_nonces[nonce]
        heap = self._response_cache_expiry
        while heap and heap[0][0] <= now:
            _, digest = heapq.heappop(heap)
            self._response_cache.pop(digest, None)

    def expire(self, now: float):
        """Drop grants past their authorization lifetime (yielded), and
        revoked-session tombstones once the session's original lifetime
        has passed (a bTelco would reject it as expired anyway)."""
        heap = self.grant_expiry
        while heap and heap[0][0] <= now:
            _, session_id = heapq.heappop(heap)
            if self.revoked_sessions.pop(session_id, None) is not None:
                self.scope_counters.pop(session_id, None)
            grant = self.grants.get(session_id)
            if grant is None or grant.expires_at > now:
                continue
            del self.grants[session_id]
            self.scope_counters.pop(session_id, None)
            self._unindex_session(grant.id_u, session_id)
            self.grants_expired.inc()
            yield grant

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "attach_ok": self.attach_ok.value,
            "replay_hits": self.replay_hits.value,
            "grants_active": len(self.grants),
            "grants_expired": self.grants_expired.value,
            "grants_revoked": self.grants_revoked.value,
            "replay_cache_size": len(self.seen_nonces),
            "subscribers": len(self.subscribers),
            "scope_attaches": self.scope_attaches.value,
            "scope_counters": len(self.scope_counters),
        }


@dataclass
class PreparedAuth:
    """Output of :meth:`BrokerSap.prevalidate`: a request whose signatures
    and authVec have been checked, routed to its shard, and now only
    needs the shard-serialized replay/policy/mint stage."""

    request: AuthReqT
    digest: bytes
    auth_vec: AuthVec
    subscriber: BrokerSubscriber
    shard_id: int


class BrokerSap:
    """Broker-side SAP procedures: authenticate U and T, authorize, and
    mint the two sealed responses.

    Session-lifecycle state is O(active sessions), not O(all history):

    * the replay cache maps each accepted nonce to the end of its
      ``session_ttl``-sized window and is monotonically evicted on every
      :meth:`process_request` call — a nonce reused inside the window is
      rejected, and the cache never outgrows the live window;
    * grants carry an expiry and are garbage-collected by
      :meth:`expire_grants`, which also runs amortized from the request
      hot path;
    * :meth:`revoke` cascades to the subscriber's outstanding grants
      (``on_grant_revoked`` lets the hosting broker notify bTelcos).

    Sharding: all per-subscriber state is partitioned into
    :class:`SapShard` instances behind a :class:`ShardRouter`
    (consistent hashing on ``id_u``), so a hosting daemon can serve
    shards concurrently and rebalance them online
    (:meth:`add_shard` / :meth:`remove_shard` hand state off with replay
    windows intact).  ``num_shards=1`` (the default) is behaviorally
    identical to the historical unsharded broker.

    Session state has one writer and one reader: :meth:`apply` is the
    only way an entry enters or leaves a shard (request path, revocation,
    a replica applying its primary's stream, a handoff target) and hands
    each op to :attr:`journal`; :meth:`export` returns the ops that
    rebuild the state, whole (resync) or one subscriber slice of it
    (network handoff, in-process rebalance).

    The request path is split into two stages so a batching daemon can
    overlap work: :meth:`prevalidate` (certificate + signature checks
    and authVec decryption — parallelizable, no shard state touched)
    and :meth:`finish_request` (replay window, policy, minting —
    serialized per shard).  :meth:`process_request` composes the two
    and remains the one-call API.
    """

    #: how long a minted response stays replayable for retransmitted
    #: requests (idempotency window; clamped to ``session_ttl``).
    response_cache_ttl = 30.0

    #: longest mobility-scope TTL the broker will sign (policy knob —
    #: the scope is also clamped to the grant's own lifetime).
    scope_ttl_max = 600.0

    # -- registry-backed lifecycle counters --------------------------------
    attach_ok = CounterAttr("sap.attach_ok")
    replay_hits = CounterAttr("sap.replay_hits")
    grants_expired = CounterAttr("sap.grants_expired")
    grants_revoked = CounterAttr("sap.grants_revoked")
    dup_requests_served = CounterAttr("sap.dup_requests_served")

    def __init__(self, id_b: str, key: PrivateKey,
                 ca_public_key: PublicKey,
                 session_ttl: float = 3600.0,
                 metrics: Optional[MetricsRegistry] = None,
                 num_shards: int = 1,
                 session_prefix: Optional[str] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        #: counters land here; the hosting daemon passes its own registry
        #: so SAP tallies appear in the node's fleet-mergeable snapshot.
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(node=f"sap:{id_b}")
        self.id_b = id_b
        self.key = key
        self.ca_public_key = ca_public_key
        self.session_ttl = session_ttl
        #: session-id/pseudonym namespace.  Defaults to ``id_b``; a
        #: network-attached shard host overrides it so sessions minted by
        #: distinct hosts of the same broker can never collide.
        self._session_prefix = session_prefix or id_b
        #: subscribers under a lawful-intercept mandate (court orders).
        #: Broker-global: LI is a legal-process flag, not session state.
        self.li_targets: set[str] = set()
        self._session_counter = 0
        self.router = ShardRouter()
        self._shards: dict[int, SapShard] = {}
        for shard_id in range(num_shards):
            self._shards[shard_id] = SapShard(shard_id, self.metrics)
            self.router.add(shard_id)
        self._next_shard_id = num_shards
        #: bTelco directory for mobility scopes: id_t -> public key of
        #: every CA-validated site the broker has seen (explicitly via
        #: :meth:`register_btelco` or implicitly from processed
        #: authReqTs).  Scope tokens can only name directory members —
        #: each needs a sealed copy of ss encrypted to that site's key.
        self.btelco_directory: dict[str, PublicKey] = {}
        #: policy hook: returns None to approve or a denial cause string.
        self.authorize_btelco: Callable[[str], Optional[str]] = lambda id_t: None
        #: lifecycle hooks for the hosting broker daemon.
        self.on_grant_expired: Optional[Callable[[SapGrant], None]] = None
        self.on_grant_revoked: Optional[Callable[[SapGrant], None]] = None
        #: receives every op :meth:`apply` applies, in order (a shard
        #: host's replication stream).
        self.journal: Optional[Callable[[tuple], None]] = None
        # -- lifecycle counters (see stats()) --
        self.attach_ok = 0
        #: DenialCause value -> n, as a registry-backed counter family
        #: (keeps the Counter-style ``[cause] += 1`` / ``dict(...)`` API).
        self.attach_denied = self.metrics.counter_vec(
            "sap.attach_denied", "cause")
        self.replay_hits = 0
        self.grants_expired = 0
        self.grants_revoked = 0
        self.dup_requests_served = 0

    # -- sharding ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[SapShard, ...]:
        """The shards in id order (stable iteration for sweeps/stats)."""
        return tuple(self._shards[i] for i in sorted(self._shards))

    def shard_of(self, id_u: str) -> SapShard:
        return self._shards[self.router.shard_for(id_u)]

    def subscriber(self, id_u: str) -> Optional[BrokerSubscriber]:
        """O(1) subscriber lookup."""
        return self.shard_of(id_u).subscribers.get(id_u)

    def enrolled(self):
        """Every subscriber record, shard by shard (provisioning plane)."""
        for shard in self.shards:
            yield from shard.subscribers.values()

    def _session_shard(self, session_id: str) -> Optional[SapShard]:
        for shard in self.shards:
            if shard.owner_of(session_id) is not None:
                return shard
        return None

    def session_owner(self, session_id: str) -> Optional[str]:
        """The subscriber behind a session (live grant or unexpired
        revocation tombstone); None once neither is held."""
        shard = self._session_shard(session_id)
        return shard.owner_of(session_id) if shard is not None else None

    def add_shard(self) -> int:
        """Grow the ring by one shard and hand off the state it now owns."""
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        self._shards[shard_id] = SapShard(shard_id, self.metrics)
        self.router.add(shard_id)
        self._rebalance()
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire a shard, redistributing its state over the ring."""
        if shard_id not in self._shards:
            raise ValueError(f"no shard {shard_id}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self.router.remove(shard_id)
        retired = self._shards.pop(shard_id)
        self._rebalance(extra=retired)

    def set_shard_count(self, count: int) -> None:
        """Deterministically grow/shrink to ``count`` shards."""
        if count < 1:
            raise ValueError("num_shards must be >= 1")
        while len(self._shards) < count:
            self.add_shard()
        while len(self._shards) > count:
            self.remove_shard(max(self._shards))

    def _rebalance(self, extra: Optional[SapShard] = None) -> None:
        """Move every subscriber whose router target changed.

        Deterministic: shards and subscribers are visited in sorted
        order, so two runs performing the same add/remove sequence land
        every entry identically.
        """
        sources = list(self.shards)
        if extra is not None:
            sources.append(extra)
        moves = []
        for source in sources:
            for id_u in sorted(source.subscribers):
                target_id = self.router.shard_for(id_u)
                if target_id != source.shard_id:
                    moves.append((id_u, source, self._shards[target_id]))
        for id_u, source, target in moves:
            self._move_subscriber(id_u, source, target)

    def _move_subscriber(self, id_u: str, source: SapShard,
                         target: SapShard) -> None:
        """Hand one subscriber's state to its new shard: the export
        slice a network handoff ships, applied at the target and
        forgotten at the source.  Replay-window entries move with their
        windows intact (a nonce seen before the rebalance is still
        denied after it), and revoked tombstones keep their original
        eviction deadline.  Heap entries left behind in the source
        become stale and are skipped by the lazy sweeps.  Not journaled:
        which shard holds an entry is not part of the broker's state
        (``export()`` reads the same before and after).
        """
        target.subscribers[id_u] = source.subscribers.pop(id_u)
        for op in source.export({id_u}):
            target.apply(op)
        source.apply(("forget", id_u))

    # -- the op vocabulary ------------------------------------------------------
    def apply(self, op: tuple) -> None:
        """The one writer of shard session state.  Ops are plain tuples,
        every one idempotent (merge rules: DESIGN.md, "The shard state
        op vocabulary"): ``("nonce", nonce, id_u, window_end)``,
        ``("grant", grant)``, ``("response", digest, triple,
        expires_at)``, ``("tombstone", session_id, id_u, expires_at)``,
        ``("scope_counter", session_id, counter)``, ``("forget", id_u)``
        and ``("reset",)``.  Each goes to its owner's shard, then to
        :attr:`journal`.
        """
        kind = op[0]
        if kind == "reset":
            targets = self.shards
        elif kind == "scope_counter":
            shard = self._session_shard(op[1])
            targets = () if shard is None else (shard,)
        else:
            # The owner: on the grant itself (also inside a response
            # triple), third for nonce / tombstone, second for forget.
            owner = op[1].id_u if kind == "grant" \
                else op[2][2].id_u if kind == "response" \
                else op[1] if kind == "forget" else op[2]
            targets = (self.shard_of(owner),)
        for shard in targets:
            shard.apply(op)
        if self.journal is not None:
            self.journal(op)

    def export(self, owners: Optional[set] = None) -> list:
        """The one reader: the sorted ops that rebuild the session state
        (of the subscribers in ``owners``, or everything), ordered
        nonces, grants, tombstones, scope counters, responses.  Two
        brokers hold the same state iff their exports are equal."""
        return list(heapq.merge(*(shard.export(owners)
                                  for shard in self.shards),
                                key=_export_order))

    # -- provisioning -----------------------------------------------------------
    def enroll(self, subscriber: BrokerSubscriber) -> None:
        self.shard_of(subscriber.id_u).subscribers[subscriber.id_u] = \
            subscriber

    def register_btelco(self, certificate: Certificate,
                        now: float) -> bool:
        """Admit a bTelco into the mobility-scope directory.

        CA-validated; also called implicitly for every authReqT that
        passes certificate checks, so the directory self-populates as
        sites first touch the broker.
        """
        try:
            validate_certificate(certificate, self.ca_public_key, now,
                                 expected_role="btelco")
        except CertificateError:
            return False
        self.btelco_directory[certificate.subject] = certificate.public_key
        return True

    def revoke(self, id_u: str) -> list[SapGrant]:
        """Revoke a UE's key by invalidating it in the database (§4.1).

        The revocation cascades: every outstanding grant issued to the
        subscriber is withdrawn immediately (returned so the broker can
        notify the serving bTelcos), not merely left to expire.
        """
        shard = self.shard_of(id_u)
        subscriber = shard.subscribers.get(id_u)
        if subscriber is not None:
            subscriber.suspended = True
        revoked: list[SapGrant] = []
        for session_id in sorted(shard.sessions_by_ue.get(id_u, ())):
            grant = shard.grants[session_id]
            self.apply(("tombstone", session_id, id_u, grant.expires_at))
            self.grants_revoked += 1
            shard.grants_revoked.inc()
            revoked.append(grant)
            if self.on_grant_revoked is not None:
                self.on_grant_revoked(grant)
        return revoked

    # -- lifecycle bookkeeping ----------------------------------------------------
    @property
    def grants_active(self) -> int:
        return sum(len(shard.grants) for shard in self.shards)

    def stats(self) -> dict:
        """Counter snapshot (bounded-memory evidence for benchmarks).

        The flat keys are the historical single-broker view; ``shards``
        adds the per-shard breakdown without disturbing them.
        """
        return {
            "attach_ok": self.attach_ok,
            "attach_denied": dict(self.attach_denied),
            "replay_hits": self.replay_hits,
            "grants_active": self.grants_active,
            "grants_expired": self.grants_expired,
            "grants_revoked": self.grants_revoked,
            "dup_requests_served": self.dup_requests_served,
            "replay_cache_size": sum(
                len(shard.seen_nonces) for shard in self.shards),
            "response_cache_size": sum(
                len(shard._response_cache) for shard in self.shards),
            "subscribers": sum(
                len(shard.subscribers) for shard in self.shards),
            "num_shards": self.num_shards,
            "shards": [shard.stats() for shard in self.shards],
        }

    @staticmethod
    def _request_digest(request: AuthReqT) -> bytes:
        """Idempotency key: the exact bytes the bTelco signed + its
        signature — bit-identical retransmissions collide, anything else
        (including a tampered request reusing a seen nonce) does not."""
        return hashlib.sha256(request.signed_bytes()
                              + request.sig_t).digest()

    def expire_grants(self, now: float) -> list[SapGrant]:
        """Garbage-collect grants past their authorization lifetime.

        Also forgets revoked-session tombstones once the session's
        original lifetime has passed, keeping every lifecycle structure
        O(active sessions).  Shards are swept in id order so callback
        order is deterministic.
        """
        expired: list[SapGrant] = []
        for shard in self.shards:
            for grant in shard.expire(now):
                self.grants_expired += 1
                expired.append(grant)
                if self.on_grant_expired is not None:
                    self.on_grant_expired(grant)
        return expired

    def _deny(self, cause: DenialCause, message: str) -> None:
        raise SapError(message, cause=cause)

    def _note_denial(self, exc: SapError) -> None:
        self.attach_denied[exc.cause.value] += 1
        if exc.cause is DenialCause.REPLAY:
            self.replay_hits += 1

    # -- the handler of Fig 3 (bottom) --------------------------------------------
    def begin_window(self, now: float) -> None:
        """Amortized lifecycle sweeps that precede request processing."""
        for shard in self.shards:
            shard.evict(now)
        self.expire_grants(now)

    def lookup_cached(self, digest: bytes) -> Optional[tuple]:
        """Serve a bit-identical retransmission from the idempotency
        cache (counts as a dup, not a new attach).  The digest is known
        before the authVec is decrypted — i.e. before the owning shard
        is — so every shard is asked, ahead of any other shard work."""
        for shard in self.shards:
            cached = shard._response_cache.get(digest)
            if cached is not None:
                self.dup_requests_served += 1
                return cached[0]
        return None

    def process_request(self, request: AuthReqT, now: float
                        ) -> tuple[SealedResponse, SealedResponse, SapGrant]:
        """Authenticate U and T; authorize; return (authRespT, authRespU).

        Raises :class:`SapError` with a denial cause on any failure.

        Idempotent under retransmission: a bit-identical duplicate inside
        the response-cache window re-serves the originally minted
        (authRespT, authRespU, grant) triple instead of being denied by
        the nonce replay window.
        """
        self.begin_window(now)
        cached = self.lookup_cached(self._request_digest(request))
        if cached is not None:
            return cached
        return self.finish_request(self.prevalidate(request, now), now)

    def prevalidate(self, request: AuthReqT, now: float) -> PreparedAuth:
        """Stage A: authenticate T and U, decrypt the authVec, and route
        to the owning shard.  Touches no shard state, so a batching
        daemon may run many prevalidations concurrently (denials are
        counted here, exactly once per request)."""
        try:
            # 1. Authenticate T: certificate chain + signature over the
            # request.
            try:
                validate_certificate(request.t_certificate,
                                     self.ca_public_key,
                                     now, expected_role="btelco")
            except CertificateError as exc:
                raise SapError(f"bTelco certificate invalid: {exc}",
                               cause=DenialCause.BAD_CERTIFICATE) from exc
            if request.t_certificate.subject != request.id_t:
                self._deny(DenialCause.MISMATCH,
                           "bTelco identity does not match certificate")
            if not request.t_certificate.public_key.verify(
                    request.signed_bytes(), request.sig_t):
                self._deny(DenialCause.BAD_SIGNATURE,
                           "authReqT: bTelco signature invalid")
            # The certificate just validated: remember the site so scope
            # tokens can seal ss to it.
            self.btelco_directory[request.id_t] = \
                request.t_certificate.public_key

            # 2. Decrypt authVec and authenticate U.
            try:
                auth_vec = AuthVec.from_bytes(
                    self.key.decrypt(request.auth_req_u.auth_vec_encrypted))
            except (CryptoError, MessageError) as exc:
                raise SapError(f"authVec: {exc}",
                               cause=DenialCause.MALFORMED) from exc
            if auth_vec.id_b != self.id_b:
                self._deny(DenialCause.MISMATCH,
                           "authVec addressed to a different broker")
            if auth_vec.id_t != request.id_t:
                self._deny(DenialCause.MISMATCH,
                           "authVec bTelco mismatch (relay attack?)")
            shard_id = self.router.shard_for(auth_vec.id_u)
            subscriber = self._shards[shard_id].subscribers.get(
                auth_vec.id_u)
            if subscriber is None:
                self._deny(DenialCause.UNKNOWN_SUBSCRIBER,
                           "unknown subscriber")
            if subscriber.suspended:
                self._deny(DenialCause.SUSPENDED, "subscriber suspended")
            if not subscriber.public_key.verify(
                    request.auth_req_u.auth_vec_encrypted,
                    request.auth_req_u.sig_authvec):
                self._deny(DenialCause.BAD_SIGNATURE,
                           "authReqU: UE signature invalid")
        except SapError as exc:
            self._note_denial(exc)
            raise
        return PreparedAuth(request=request,
                            digest=self._request_digest(request),
                            auth_vec=auth_vec, subscriber=subscriber,
                            shard_id=shard_id)

    def finish_request(self, prepared: PreparedAuth, now: float
                       ) -> tuple[SealedResponse, SealedResponse, SapGrant]:
        """Stage B: replay window, policy, and minting — the part that
        mutates shard state and therefore serializes per shard."""
        request = prepared.request
        auth_vec = prepared.auth_vec
        subscriber = prepared.subscriber
        shard = self._shards[prepared.shard_id]
        try:
            if auth_vec.nonce in shard.seen_nonces:
                shard.replay_hits.inc()
                self._deny(DenialCause.REPLAY, "replayed nonce")
            self.apply(("nonce", auth_vec.nonce, auth_vec.id_u,
                        now + self.session_ttl))

            # 3. Authorization policy (profiles, reputation, ...).
            cause = self.authorize_btelco(request.id_t)
            if cause is not None:
                self._deny(DenialCause.POLICY,
                           f"bTelco not authorized: {cause}")
            # 3b. Lawful intercept: a mandated subscriber may only be
            # served by bTelcos that advertise LI capability (negotiated
            # in SAP).
            li_required = auth_vec.id_u in self.li_targets
            if li_required and not request.qos_cap.supports_lawful_intercept:
                self._deny(DenialCause.LI_UNSUPPORTED,
                           "lawful intercept required but unsupported")
        except SapError as exc:
            self._note_denial(exc)
            raise

        # 4. Mint the session: shared secret, pseudonym, QoS selection.
        ss = secrets.token_bytes(SS_SIZE)
        self._session_counter += 1
        session_id = f"{self._session_prefix}:{self._session_counter:08d}"
        id_u_opaque = \
            f"anon-{self._session_prefix}-{self._session_counter:08d}"
        qos_info = select_qos(request.qos_cap, subscriber.qos_plan)
        expires_at = now + self.session_ttl

        resp_t = AuthRespT(id_u_opaque=id_u_opaque, id_t=request.id_t,
                           ss=ss, qos_info=qos_info, session_id=session_id,
                           expires_at=expires_at,
                           lawful_intercept=li_required)
        scope_token = None
        if auth_vec.scope:
            scope_token = self._mint_scope_token(
                auth_vec.scope, request.id_t, session_id, id_u_opaque, ss,
                qos_info, li_required, expires_at, now)
        resp_u = AuthRespU(id_u=auth_vec.id_u, id_t=request.id_t, ss=ss,
                           nonce=auth_vec.nonce, session_id=session_id,
                           scope=scope_token)
        sealed_t = seal_and_sign(resp_t.to_bytes(),
                                 request.t_certificate.public_key, self.key)
        sealed_u = seal_and_sign(resp_u.to_bytes(), subscriber.public_key,
                                 self.key)
        grant = SapGrant(id_u=auth_vec.id_u, id_u_opaque=id_u_opaque,
                         id_t=request.id_t, session_id=session_id, ss=ss,
                         qos_info=qos_info, granted_at=now,
                         expires_at=expires_at)
        result = (sealed_t, sealed_u, grant)
        self.apply(("grant", grant))
        self.apply(("response", prepared.digest, result,
                    now + min(self.response_cache_ttl, self.session_ttl)))
        self.attach_ok += 1
        shard.attach_ok.inc()
        return result

    # -- mobility scopes (§4.2 grant reuse) ---------------------------------------
    def _mint_scope_token(self, scope_req: dict, id_t: str,
                          session_id: str, id_u_opaque: str, ss: bytes,
                          qos_info: QosInfo, li_required: bool,
                          grant_expires_at: float,
                          now: float) -> Optional[ScopeToken]:
        """Sign a mobility scope into the grant being minted.

        The granted scope is the *intersection* of the request with the
        bTelco directory (ss can only be sealed to keys the broker has
        validated), always including the serving site; the TTL is
        clamped by ``scope_ttl_max`` and the grant's own lifetime.
        Returns None when nothing in the request is grantable.
        """
        requested = set(scope_req.get("telcos", ())) | {id_t}
        telcos = sorted(requested & set(self.btelco_directory))
        if not telcos:
            return None
        ttl = float(scope_req.get("ttl", self.scope_ttl_max))
        expires_at = min(now + max(0.0, min(ttl, self.scope_ttl_max)),
                         grant_expires_at)
        ess = {t: self.btelco_directory[t].encrypt(ss).hex()
               for t in telcos}
        payload = {
            "sid": session_id, "idU": id_u_opaque, "idB": self.id_b,
            "scope": telcos, "exp": expires_at,
            "qos": {"qci": qos_info.qci, "dl": qos_info.ambr_dl_bps,
                    "ul": qos_info.ambr_ul_bps,
                    "arp": qos_info.arp_priority},
            "li": li_required, "ess": ess,
        }
        token = ScopeToken(payload=payload, sig=b"")
        return ScopeToken(payload=payload,
                          sig=self.key.sign(token.signed_bytes()))

    def note_scope_attach(self, session_id: str, counter: int,
                          now: float) -> tuple[bool, bool, str]:
        """Authoritative verdict on a scope-local attach notice.

        Returns ``(accepted, retryable, cause)``.  Accepting records the
        counter as the new per-grant floor — a *cross-site* replay of an
        already-used counter (which the replaying bTelco's local
        highest-seen floor cannot catch) is denied here, and the
        notifying bTelco then tears the session down.
        """
        shard = self._session_shard(session_id)
        if shard is None:
            return False, False, DenialCause.UNKNOWN_SUBSCRIBER.value
        grant = shard.grants.get(session_id)
        if grant is None:
            return False, False, DenialCause.REVOKED.value
        if grant.expires_at <= now:
            return False, False, DenialCause.EXPIRED.value
        if counter <= shard.scope_counters.get(session_id, 0):
            self.replay_hits += 1
            shard.replay_hits.inc()
            return False, False, DenialCause.REPLAY.value
        self.apply(("scope_counter", session_id, counter))
        shard.scope_attaches.inc()
        return True, False, ""
