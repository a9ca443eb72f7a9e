"""CellBricks over 5G: SAP replacing 5G-AKA in the AMF and UE.

The baseline 5G registration pays *two* visited↔home round trips
(AUSF/UDM authenticate + the RES* confirmation); SAP replaces both with
one broker round trip, so the Fig 7-style win grows under 5G — quantified
in the XTRA-5G benchmark.

Everything CellBricks adds is generation-agnostic and lives in
:class:`~repro.core.btelco_core.SapServingCore` (bTelco side) and
:class:`~repro.core.ue_agent.SapUeAgent` (UE side); this module is the
5G adapter pair, holding only the 5GS NAS dialect and the AMF's context
lifecycle.  DESIGN.md "Serving core and its two adapters" tabulates the
hooks and why each differs from LTE's.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.fivegc import nas5g
from repro.fivegc.nf import AMF_COSTS, Amf, UeContext5G
from repro.fivegc.ue5g import Ue5G
from repro.net import Host

from .btelco_core import SAP_MESSAGE_LEGS, SapServingCore, sap_nas_legs
from .qos import QosCapabilities
from .sap import AuthorizedSession, UeSapCredentials
from .ue_agent import SapUeAgent

CB_AMF_COSTS = {
    "sap_registration": 0.0055,
    "broker_auth_response": 0.0057,
    # Scoped re-registration (§4.2): local token validation only.
    "scoped_registration": 0.0019,
}


class CellBricksAmf(SapServingCore, Amf):
    """A 5G bTelco site: AMF with SAP, no AUSF/UDM dependency."""

    sap_challenge = nas5g.SapRegistrationChallenge
    cost_table = {**AMF_COSTS, **CB_AMF_COSTS}
    nas_legs = {**Amf.nas_legs,
                **sap_nas_legs(nas5g.SapRegistrationRequest,
                               nas5g.SapScopedRegistrationRequest,
                               "sap_registration", "scoped_registration")}
    message_legs = {**Amf.message_legs, **SAP_MESSAGE_LEGS}
    initiating_nas = Amf.initiating_nas + (
        nas5g.SapRegistrationRequest, nas5g.SapScopedRegistrationRequest)

    def __init__(self, host: Host, broker_ip: str, smf_ip: str, id_t: str,
                 key: PrivateKey, certificate: Certificate,
                 ca_public_key: PublicKey,
                 qos_capabilities: Optional[QosCapabilities] = None,
                 name: str = "cb-amf"):
        super().__init__(host, broker_ip=broker_ip, id_t=id_t, key=key,
                         certificate=certificate,
                         ca_public_key=ca_public_key,
                         qos_capabilities=qos_capabilities,
                         ausf_ip="0.0.0.0", smf_ip=smf_ip, name=name)

    # -- serving-core hooks -------------------------------------------------------
    # A 5GS reject is terminal for the context: Amf.reject releases it
    # (and with it, via context_released, the broker leg and session).
    reject_sap = Amf.reject

    def _install_identity(self, context: UeContext5G,
                          session: AuthorizedSession) -> None:
        context.supi = session.id_u_opaque   # pseudonym, never the SUPI

    def after_security_established(self, context: UeContext5G) -> None:
        super().after_security_established(context)
        self._enforce_grant_lifetime(context)

    def _teardown_session(self, context: UeContext5G,
                          session_id: str) -> None:
        """Network-initiated deregistration: drop every resource the
        session holds (the downlink precedes the S1 release so it still
        routes through the gNB's ue-id mapping)."""
        self.downlink(context, nas5g.DeregistrationRequest5G())
        context.state = "DEREGISTERED"
        self._release_ue(context)

    def _on_registration_complete(self, context: UeContext5G,
                                  complete) -> None:
        super()._on_registration_complete(context, complete)
        self._refuse_if_revoked(context)

    # -- introspection ------------------------------------------------------------
    def stats(self) -> dict:
        stats = super().stats()
        stats.update({
            "sessions_active": len(self.sessions),
            "pending_sap": len(self._pending_sap),
            **self._grant_stats(),
            **self._scope_stats(),
        })
        stats.update(self.reliable_stats())
        return stats


# Crafting authReqU is a hybrid encrypt + sign; a scoped re-registration
# computes one MAC; the challenge check is a verify + decrypt.
CB_UE5G_COSTS = {
    "craft_sap_request": 0.0016,
    "craft_scoped_request": 0.0003,
    nas5g.SapRegistrationChallenge: 0.0006,
}


class CellBricksUe5G(SapUeAgent, Ue5G):
    """5G UE running SAP instead of 5G-AKA."""

    sap_request = nas5g.SapRegistrationRequest
    sap_scoped_request = nas5g.SapScopedRegistrationRequest
    sap_challenge = nas5g.SapRegistrationChallenge
    sap_ue_costs = CB_UE5G_COSTS
    _SPAN_NAMES = dict(Ue5G._SPAN_NAMES)
    _SPAN_NAMES[nas5g.SapRegistrationChallenge] = "sap.ue_verify"

    def __init__(self, host: Host, ran_ip: str,
                 credentials: UeSapCredentials, target_id_t: str,
                 name: str = "cb-ue5g"):
        super().__init__(host, ran_ip, credentials, target_id_t,
                         supi=None, usim=None, home_network_key=None,
                         name=name)
