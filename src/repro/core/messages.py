"""SAP wire messages (Fig 2 / Fig 3 of the paper).

All payloads that cross trust boundaries are canonically serialized
(sorted-key JSON over hex-encoded byte fields) so signatures are
well-defined, then encrypted to the recipient's public key and signed by
the sender.  Field names follow the paper: ``authVec``, ``authReqU``,
``authReqT``, ``authRespT``, ``authRespU``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey

from .qos import QosCapabilities, QosInfo

NONCE_SIZE = 16


class MessageError(Exception):
    """Raised when a SAP message fails to parse or validate."""


class DenialCause(str, Enum):
    """Why an attachment (or an existing session) was refused.

    Carried on :class:`~repro.core.sap.SapError` and aggregated into the
    broker's ``attach_denied`` counters; ``REVOKED`` additionally rides
    the :class:`SessionRevocation` cascade to the serving bTelco.
    """

    BAD_CERTIFICATE = "bad_certificate"
    BAD_SIGNATURE = "bad_signature"
    MALFORMED = "malformed"
    MISMATCH = "mismatch"
    UNKNOWN_SUBSCRIBER = "unknown_subscriber"
    SUSPENDED = "suspended"
    REVOKED = "revoked"
    REPLAY = "replay"
    POLICY = "policy"
    LI_UNSUPPORTED = "li_unsupported"
    EXPIRED = "expired"
    #: transient broker-side condition (shard failed over, replica still
    #: syncing): the *same* request is expected to succeed shortly, so
    #: attach paths should back off and retry instead of EMM-resetting.
    DEGRADED = "degraded"
    OTHER = "other"


def _canonical(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _parse(raw: bytes) -> dict:
    try:
        return json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageError(f"malformed SAP payload: {exc}") from exc


# -- authVec -----------------------------------------------------------------

@dataclass(frozen=True)
class AuthVec:
    """The plaintext authentication vector (idU, idB, idT, n).

    Only the broker can read it — the UE encrypts it under pkB, so the
    bTelco never sees idU (no IMSI catching).

    ``scope`` is an optional mobility-scope request (§4.2): a dict
    ``{"telcos": [...], "ttl": seconds}`` asking the broker to mint a
    :class:`ScopeToken` alongside the grant.  Riding *inside* the
    encrypted+signed authVec means neither the serving bTelco nor an
    on-path attacker can widen the requested scope.
    """

    id_u: str
    id_b: str
    id_t: str
    nonce: bytes
    scope: Optional[dict] = None

    def to_bytes(self) -> bytes:
        data = {"idU": self.id_u, "idB": self.id_b,
                "idT": self.id_t, "n": self.nonce.hex()}
        if self.scope is not None:
            data["scope"] = self.scope
        return _canonical(data)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthVec":
        data = _parse(raw)
        try:
            return cls(id_u=data["idU"], id_b=data["idB"], id_t=data["idT"],
                       nonce=bytes.fromhex(data["n"]),
                       scope=data.get("scope"))
        except (KeyError, ValueError) as exc:
            raise MessageError(f"bad authVec: {exc}") from exc


# -- authReqU ------------------------------------------------------------------

@dataclass(frozen=True)
class AuthReqU:
    """UE -> bTelco: (sig_authvec, authVec*, idB)."""

    sig_authvec: bytes        # Sign_skU(authVec*)
    auth_vec_encrypted: bytes  # Enc_pkB(authVec)
    id_b: str                 # routable broker identifier

    @property
    def wire_size(self) -> int:
        return (len(self.sig_authvec) + len(self.auth_vec_encrypted)
                + len(self.id_b) + 16)


# -- authReqT -------------------------------------------------------------------

@dataclass(frozen=True)
class AuthReqT:
    """bTelco -> broker: the UE request augmented with the bTelco's
    identity, certificate, service parameters, and signature."""

    auth_req_u: AuthReqU
    id_t: str
    qos_cap: QosCapabilities
    t_certificate: Certificate
    sig_t: bytes               # Sign_skT over the augmented request
    lawful_intercept: bool = False

    def signed_bytes(self) -> bytes:
        return signed_bytes_for_auth_req_t(
            self.auth_req_u, self.id_t, self.qos_cap, self.lawful_intercept)

    @property
    def wire_size(self) -> int:
        return self.auth_req_u.wire_size + len(self.sig_t) + 420


def signed_bytes_for_auth_req_t(auth_req_u: AuthReqU, id_t: str,
                                qos_cap: QosCapabilities,
                                lawful_intercept: bool) -> bytes:
    return _canonical({
        "authReqU.sig": auth_req_u.sig_authvec.hex(),
        "authReqU.vec": auth_req_u.auth_vec_encrypted.hex(),
        "authReqU.idB": auth_req_u.id_b,
        "idT": id_t,
        "qosCap": {
            "qcis": list(qos_cap.supported_qcis),
            "dl": qos_cap.max_ambr_dl_bps,
            "ul": qos_cap.max_ambr_ul_bps,
            "li": qos_cap.supports_lawful_intercept,
        },
        "li": lawful_intercept,
    })


# -- broker responses -----------------------------------------------------------

@dataclass(frozen=True)
class AuthRespT:
    """Broker -> bTelco plaintext: (idU_opaque, idT, ss, qosInfo).

    ``id_u_opaque`` is a broker-scoped pseudonym, *not* the IMSI — the
    bTelco gets a stable billing handle without learning the subscriber
    identity.
    """

    id_u_opaque: str
    id_t: str
    ss: bytes                  # the shared secret -> KASME
    qos_info: QosInfo
    session_id: str
    expires_at: float
    #: broker-mandated lawful intercept for this session (negotiated via
    #: qosCap.supports_lawful_intercept; see [4, 8, 36] in the paper).
    lawful_intercept: bool = False

    def to_bytes(self) -> bytes:
        return _canonical({
            "idU": self.id_u_opaque, "idT": self.id_t, "ss": self.ss.hex(),
            "qos": {"qci": self.qos_info.qci,
                    "dl": self.qos_info.ambr_dl_bps,
                    "ul": self.qos_info.ambr_ul_bps,
                    "arp": self.qos_info.arp_priority},
            "sid": self.session_id, "exp": self.expires_at,
            "li": self.lawful_intercept})

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthRespT":
        data = _parse(raw)
        try:
            qos = QosInfo(qci=data["qos"]["qci"],
                          ambr_dl_bps=data["qos"]["dl"],
                          ambr_ul_bps=data["qos"]["ul"],
                          arp_priority=data["qos"]["arp"])
            return cls(id_u_opaque=data["idU"], id_t=data["idT"],
                       ss=bytes.fromhex(data["ss"]), qos_info=qos,
                       session_id=data["sid"], expires_at=data["exp"],
                       lawful_intercept=data.get("li", False))
        except (KeyError, ValueError) as exc:
            raise MessageError(f"bad authRespT: {exc}") from exc


@dataclass(frozen=True)
class AuthRespU:
    """Broker -> UE plaintext: (idU, idT, ss, n).

    The echoed nonce proves freshness; the signature over the sealed blob
    proves it came from the broker.
    """

    id_u: str
    id_t: str
    ss: bytes
    nonce: bytes
    session_id: str
    #: optional broker-minted mobility :class:`ScopeToken` (§4.2) — the
    #: UE presents it on scope-local re-attaches instead of a fresh
    #: authReqU.
    scope: Optional["ScopeToken"] = None

    def to_bytes(self) -> bytes:
        data = {"idU": self.id_u, "idT": self.id_t,
                "ss": self.ss.hex(), "n": self.nonce.hex(),
                "sid": self.session_id}
        if self.scope is not None:
            data["scope"] = self.scope.to_wire()
        return _canonical(data)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthRespU":
        data = _parse(raw)
        try:
            scope = None
            if data.get("scope") is not None:
                scope = ScopeToken.from_wire(data["scope"])
            return cls(id_u=data["idU"], id_t=data["idT"],
                       ss=bytes.fromhex(data["ss"]),
                       nonce=bytes.fromhex(data["n"]),
                       session_id=data["sid"], scope=scope)
        except (KeyError, ValueError) as exc:
            raise MessageError(f"bad authRespU: {exc}") from exc


@dataclass(frozen=True)
class SealedResponse:
    """A (ciphertext, signature) pair: Enc_pk_recipient(payload) signed by
    the broker so the recipient can authenticate the source."""

    blob: bytes
    sig_b: bytes

    def verify(self, broker_key: PublicKey) -> bool:
        return broker_key.verify(self.blob, self.sig_b)

    @property
    def wire_size(self) -> int:
        return len(self.blob) + len(self.sig_b)


def seal_and_sign(payload: bytes, recipient: PublicKey,
                  broker_key: PrivateKey) -> SealedResponse:
    """Encrypt ``payload`` to the recipient and sign the ciphertext."""
    blob = recipient.encrypt(payload)
    return SealedResponse(blob=blob, sig_b=broker_key.sign(blob))


# -- signaling-plane envelopes (bTelco <-> broker transport) ----------------------

@dataclass(frozen=True)
class BrokerAuthRequest:
    """bTelco -> brokerd transport message carrying authReqT."""

    auth_req_t: AuthReqT
    reply_token: int = 0


@dataclass(frozen=True)
class BrokerAuthResponse:
    """brokerd -> bTelco: both sealed sub-responses, or a denial."""

    approved: bool
    auth_resp_t: object = None   # SealedResponse for the bTelco
    auth_resp_u: object = None   # SealedResponse forwarded verbatim to the UE
    cause: str = ""
    reply_token: int = 0
    #: denial is transient (degraded shard) — the bTelco should tell the
    #: UE to back off and retry rather than give up.
    retryable: bool = False


@dataclass(frozen=True)
class SessionRevocation:
    """brokerd -> bTelco: a previously issued authorization is withdrawn.

    Key revocation at the broker (§4.1) must cascade to grants already in
    the field: the serving bTelco is told to stop honouring the session
    (identified only by its pseudonymous handles, never the IMSI).
    """

    session_id: str
    id_u_opaque: str = ""
    cause: str = DenialCause.REVOKED.value


@dataclass(frozen=True)
class SessionRevocationBatch:
    """brokerd -> bTelco: all withdrawn sessions for one serving bTelco.

    Sent reliably (retransmitted with backoff until the signed
    :class:`RevocationAck` comes back, or every grant in the batch has
    expired on its own) — a lost notice must never leave an unauthorized
    session running.
    """

    batch_id: int
    id_b: str
    revocations: tuple = ()   # tuple[SessionRevocation, ...]

    @property
    def wire_size(self) -> int:
        return 64 + 96 * len(self.revocations)


def revocation_ack_signed_bytes(batch_id: int, id_t: str,
                                session_ids: tuple) -> bytes:
    return _canonical({"batch": batch_id, "idT": id_t,
                       "sids": sorted(session_ids)})


@dataclass(frozen=True)
class RevocationAck:
    """bTelco -> brokerd: signed proof the revocation batch was applied.

    The signature (under the bTelco key the broker authenticated at SAP
    time) prevents an on-path attacker from forging the ack and keeping a
    revoked session alive until grant expiry.
    """

    batch_id: int
    id_t: str
    session_ids: tuple = ()
    signature: bytes = b""

    def signed_bytes(self) -> bytes:
        return revocation_ack_signed_bytes(self.batch_id, self.id_t,
                                           self.session_ids)

    def verify(self, btelco_key: PublicKey) -> bool:
        return btelco_key.verify(self.signed_bytes(), self.signature)


# -- mobility-scoped grants (§4.2: grant reuse across bTelco switches) ----------

@dataclass(frozen=True)
class ScopeToken:
    """A broker-signed mobility scope riding alongside a grant.

    ``payload`` (canonically serialized under the broker signature):

    * ``sid``  — the grant's session id (billing/revocation handle);
    * ``idU``  — the opaque per-session pseudonym (never the IMSI);
    * ``idB``  — the minting broker, so the validating bTelco picks the
      right trusted key;
    * ``scope`` — sorted list of bTelco ids the grant may roam to;
    * ``exp``  — absolute expiry (min of requested TTL and grant life);
    * ``qos``  — the grant's qosInfo (``{"qci","dl","ul","arp"}``);
    * ``li``   — broker-mandated lawful intercept flag;
    * ``ess``  — per-bTelco sealed copies of the shared secret:
      ``{id_t: hex(Enc_pk_idT(ss))}``.  authRespT is sealed to the
      *original* serving bTelco only, so without this map an in-scope
      bTelco could verify the token but never recover ss -> KASME.

    Any bTelco in the scope validates the token **locally**: broker
    signature, membership, expiry, then proof-of-possession of ss via
    :func:`scope_attach_mac` and a per-grant monotonic attach counter.
    """

    payload: dict
    sig: bytes

    def signed_bytes(self) -> bytes:
        return _canonical(self.payload)

    def verify(self, broker_key: PublicKey) -> bool:
        return broker_key.verify(self.signed_bytes(), self.sig)

    @property
    def session_id(self) -> str:
        return self.payload.get("sid", "")

    @property
    def id_b(self) -> str:
        return self.payload.get("idB", "")

    @property
    def id_u_opaque(self) -> str:
        return self.payload.get("idU", "")

    @property
    def expires_at(self) -> float:
        return float(self.payload.get("exp", 0.0))

    @property
    def telcos(self) -> tuple:
        return tuple(self.payload.get("scope", ()))

    def sealed_ss_for(self, id_t: str) -> Optional[bytes]:
        blob = self.payload.get("ess", {}).get(id_t)
        return bytes.fromhex(blob) if blob else None

    def covers(self, id_t: str, now: float) -> bool:
        """Scope membership + expiry (signature/counter checked apart)."""
        return (id_t in self.payload.get("scope", ())
                and id_t in self.payload.get("ess", {})
                and now < self.expires_at)

    def to_wire(self) -> dict:
        return {"payload": self.payload, "sig": self.sig.hex()}

    @classmethod
    def from_wire(cls, data: dict) -> "ScopeToken":
        try:
            return cls(payload=data["payload"],
                       sig=bytes.fromhex(data["sig"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MessageError(f"bad scope token: {exc}") from exc


def scope_attach_mac(ss: bytes, session_id: str, counter: int,
                     id_t: str) -> bytes:
    """Proof-of-possession MAC for a scoped attach.

    Keyed with the grant's shared secret (which only the subscriber and
    in-scope bTelcos can recover) over the (sid, counter, target) triple
    — binding the counter and the *target* bTelco kills cut-and-paste
    replay of a sniffed scoped attach at a different site.
    """
    return hashlib.sha256(ss + _canonical(
        {"ctr": counter, "idT": id_t, "sid": session_id})).digest()


@dataclass(frozen=True)
class ScopeAttachNotice:
    """bTelco -> brokerd (async, reliable): a scope-local attach happened.

    The broker round-trip is *off* the attach critical path — this
    notice keeps revocation cascades routed to the new serving bTelco,
    keeps the billing ledger open under the same session id, and lets
    the broker's authoritative per-grant counter catch cross-site
    replays.  ``certificate`` authenticates the notifying bTelco.
    """

    session_id: str
    counter: int
    id_t: str
    certificate: Certificate = None
    signature: bytes = b""

    def signed_bytes(self) -> bytes:
        return _canonical({"ctr": self.counter, "idT": self.id_t,
                           "sid": self.session_id})

    @property
    def wire_size(self) -> int:
        return 480 + len(self.signature)


@dataclass(frozen=True)
class ScopeAttachAck:
    """brokerd -> bTelco: verdict on a :class:`ScopeAttachNotice`.

    A terminal nack (revoked grant, unknown session, replayed counter)
    obliges the bTelco to tear the scope-local session down — the local
    validation was optimistic and the broker is authoritative.
    """

    session_id: str
    counter: int
    accepted: bool
    retryable: bool = False
    cause: str = ""


@dataclass(frozen=True)
class ReportAck:
    """brokerd -> bTelco: a TrafficReportUpload was ingested.

    Acknowledges the (session, seq, reporter) triple so the uploader can
    stop retransmitting; the §4.3 discrepancy check relies on *both*
    reports of a pair arriving, so lost uploads must be retried rather
    than silently skewing the cross-check toward false accusations.
    """

    session_id: str
    seq: int
    reporter: str = ""
