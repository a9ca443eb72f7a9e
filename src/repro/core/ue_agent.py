"""The CellBricks UE: SAP instead of AKA (the srsUE extension).

:class:`SapUeAgent` is the UE half of SAP, independent of the NAS
dialect: its initial message carries ``authReqU`` (or, inside a mobility
scope, the broker-signed token + attach counter), and the broker's
``authRespU`` (relayed by the bTelco) yields the shared secret that seeds
the standard security context.  From the SMC onward the inherited
baseline code runs unchanged — exactly the reuse story of §4.1.  It is
mixed in ahead of a baseline UE: :class:`CellBricksUe` over
:class:`repro.lte.ue.UeNas` here, and
:class:`repro.core.btelco5g.CellBricksUe5G` over
:class:`repro.fivegc.ue5g.Ue5G`.
"""

from __future__ import annotations

from typing import Optional

from repro.lte.nas import (
    SapAttachChallenge,
    SapAttachReject,
    SapAttachRequest,
    SapScopedAttachRequest,
)
from repro.lte.security import SecurityContext
from repro.lte.ue import UeNas
from repro.net import Host

from .billing import Meter, REPORTER_UE
from .messages import scope_attach_mac
from .sap import MobilityGrant, SapError, UeSap, UeSapCredentials


class SapUeAgent:
    """UE-side SAP over whichever baseline UE follows it in the MRO.

    The adapter supplies its NAS classes (``sap_request`` /
    ``sap_scoped_request`` / ``sap_challenge``) and ``sap_ue_costs``
    (craft and challenge-check costs); state names and leg supervision
    come from the substrate (:class:`repro.lte.ue_base.NasUeBase`).
    """

    craft_span_name = "sap.ue_craft"

    def __init__(self, host: Host, ran_ip: str,
                 credentials: UeSapCredentials, target_id_t: str,
                 **substrate):
        super().__init__(host, ran_ip, serving_network=target_id_t,
                         **substrate)
        self.credentials = credentials
        self.sap = UeSap(credentials)
        self.target_id_t = target_id_t
        self.session_id: Optional[str] = None
        #: optional scope request dict ({"telcos": [...], "ttl": s}) sent
        #: inside the encrypted authVec on the next full attach.
        self.scope_request: Optional[dict] = None
        #: broker-issued mobility grant — survives detach_and_forget so
        #: the next attach to an in-scope bTelco skips the broker.
        self.mobility_grant: Optional[MobilityGrant] = None
        self._scoped_attempt = False
        self.scoped_attaches = 0
        self.scoped_fallbacks = 0
        self.processing_costs = dict(self.processing_costs)
        self.processing_costs[self.sap_challenge] = \
            self.sap_ue_costs[self.sap_challenge]
        self.on(self.sap_challenge, self._on_sap_challenge)

    def attach(self) -> None:
        # A fresh attempt must not inherit the previous session's id (the
        # substrate clears the security context).
        self.session_id = None
        super().attach()

    def retarget(self, ran_ip: str, id_t: str) -> None:
        """Point the UE at a different bTelco (host-driven mobility)."""
        super().retarget(ran_ip, id_t)
        self.target_id_t = id_t

    def _grant_covers_target(self) -> bool:
        grant = self.mobility_grant
        return (grant is not None
                and grant.covers(self.target_id_t, self.sim.now))

    def craft_cost(self) -> float:
        if self._grant_covers_target():
            return self.sap_ue_costs["craft_scoped_request"]
        return self.sap_ue_costs["craft_sap_request"]

    def initial_request(self):
        # Called once per attach attempt (the supervision layer resends
        # the cached request): a nonce / attach counter is minted here
        # and must stay stable across retransmissions of the attempt.
        if self._grant_covers_target():
            grant = self.mobility_grant
            counter = grant.next_counter
            grant.next_counter += 1
            self._scoped_attempt = True
            self.scoped_attaches += 1
            # The grant restores what starting the attempt just cleared:
            # ss is the session key (KASME / K_AMF for the inherited SMC
            # handler) and the session id keeps billing continuity
            # across bTelcos.
            self.session_id = grant.session_id
            self.security = SecurityContext(kasme=grant.ss)
            mac = scope_attach_mac(grant.ss, grant.session_id, counter,
                                   self.target_id_t)
            return self.sap_scoped_request(token=grant.token,
                                           counter=counter, mac=mac)
        self._scoped_attempt = False
        auth_req_u = self.sap.craft_request(self.target_id_t,
                                            scope=self.scope_request)
        return self.sap_request(auth_req_u=auth_req_u)

    def _on_reject(self, src_ip: str, reject) -> None:
        if (self.state == self.attaching_state and self._scoped_attempt
                and not getattr(reject, "retryable", False)):
            # The scope-local fast path failed terminally (expired,
            # revoked, counter burned...).  Drop the grant and fall back
            # to a full SAP attach within the same attempt — the latency
            # clock keeps running, so the fallback cost is visible.
            self.mobility_grant = None
            self._scoped_attempt = False
            self.scoped_fallbacks += 1
            self.session_id = None
            self.security = None
            self._stop()
            self.sim.schedule(0.0, self._retry_after_reject)
            return
        super()._on_reject(src_ip, reject)

    def _on_attach_give_up(self) -> None:
        super()._on_attach_give_up()
        # Abandon the outstanding SAP nonce: a late response must not
        # validate, and the next attach crafts a fresh request.
        self.sap.abandon()
        self.session_id = None

    def _on_sap_challenge(self, src_ip: str, challenge) -> None:
        if self.state != self.attaching_state:
            return  # late replay after success/failure: absorb, don't fail
        if self.security is not None:
            # Duplicate challenge (the bTelco replayed the leg because
            # our SMC complete was lost): process_response already
            # consumed the single-use nonce — re-running it would raise a
            # spurious mismatch, so just ignore it; the SMC
            # retransmission path carries the attach forward.
            return
        try:
            response = self.sap.process_response(challenge.auth_resp_u)
        except SapError as exc:
            self._fail(str(exc))
            return
        self.session_id = response.session_id
        if response.scope is not None:
            # Broker granted a mobility scope: keep it past detach so
            # the next in-scope attach needs no broker round-trip.
            self.mobility_grant = MobilityGrant(
                token=response.scope, session_id=response.session_id,
                ss=response.ss, next_counter=1)
        # ss becomes KASME / K_AMF (§4.1); the inherited SMC handler
        # validates the bTelco's Security Mode Command against it.
        self.security = SecurityContext(kasme=response.ss)


# CellBricks UE processing costs (seconds): crafting authReqU costs more
# than a plain AttachRequest (hybrid encrypt + sign); the response check
# is a verify + decrypt.  Sum ≈ 3.5 ms (Fig 7 "UE Proc." CB bars).
# A scoped re-attach only computes one MAC — no hybrid encrypt, no sign.
CB_UE_COSTS = {
    "craft_sap_request": 0.0015,
    "craft_scoped_request": 0.0003,
    SapAttachChallenge: 0.0005,
}


class CellBricksUe(SapUeAgent, UeNas):
    """UE attaching on-demand to untrusted bTelcos via its broker."""

    sap_request = SapAttachRequest
    sap_scoped_request = SapScopedAttachRequest
    sap_challenge = SapAttachChallenge
    sap_ue_costs = CB_UE_COSTS
    _SPAN_NAMES = dict(UeNas._SPAN_NAMES)
    _SPAN_NAMES[SapAttachChallenge] = "sap.ue_verify"

    def __init__(self, host: Host, ran_ip: str,
                 credentials: UeSapCredentials, target_id_t: str,
                 name: str = "cb-ue"):
        super().__init__(host, ran_ip, credentials, target_id_t,
                         imsi=credentials.id_u, usim=None, name=name)
        self.meter: Optional[Meter] = None
        self.on(SapAttachReject, self._on_reject)

    def _on_attach_accept(self, src_ip: str, accept) -> None:
        was_attached = self.state == "ATTACHED"
        super()._on_attach_accept(src_ip, accept)
        if was_attached:
            return  # duplicate accept: keep the existing meter
        if self.state == "ATTACHED" and self.session_id is not None:
            # Baseband-embedded meter for verifiable billing (§4.3).
            self.meter = Meter(
                session_id=self.session_id, reporter=REPORTER_UE,
                key=self.credentials.ue_key,
                broker_public_key=self.credentials.broker_public_key,
                session_started_at=self.sim.now)
