"""Access Gateway: Magma-style integrated MME + SGW/PGW.

This is the component the paper modifies ("we extend AGW to support our
secure attachment protocol... 2,493 LoC in the AGW").  The class here is
the *unmodified baseline*: the standard EPS attach with EPS-AKA against
the SubscriberDB over S6a (two round-trips: AIR, then ULR).  The
CellBricks extension lives in :class:`repro.core.btelco.CellBricksAgw`,
which subclasses this and replaces the authentication phase with SAP —
mirroring how the real prototype layers its changes onto Magma.

Per-handler processing costs are explicit and calibrated to reproduce the
module breakdown of Fig 7 (the "AGW + Brokerd Proc." bars).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net import Host
from repro.obs import LazyCounterAttr

from . import s6a
from .bearer import EpsBearer, SgwPgw
from .identifiers import Guti
from .nas import (
    AttachAccept,
    AttachComplete,
    AttachReject,
    AttachRequest,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DetachAccept,
    DetachRequest,
    NasMessage,
    SecurityModeCommand,
    SecurityModeComplete,
)
from .nas_transport import ProtectedNas
from .nas_transport import protect as protect_nas
from .nas_transport import unprotect as unprotect_nas
from .security import SecurityContext, SecurityError
from .serving_base import Leg, ServingContext, ServingNodeBase
from .signaling import CounterAttr

# Handler processing costs (seconds) — see DESIGN.md §6 for the
# calibration that reproduces Fig 7's module breakdown.
BASELINE_COSTS = {
    "attach_request": 0.0033,
    "auth_info_answer": 0.0031,
    "auth_response": 0.0036,
    "smc_complete": 0.0026,
    "update_location_answer": 0.0031,
    "attach_complete": 0.0015,
}


@dataclass
class UeContext(ServingContext):
    """Per-UE MME state."""

    imsi: Optional[str] = None
    subscriber_id: Optional[str] = None  # opaque id in CellBricks
    auth_vector: object = None
    guti: Optional[Guti] = None
    bearer: Optional[EpsBearer] = None
    subscription: Optional[s6a.SubscriptionData] = None


class Agw(ServingNodeBase):
    """Baseline access gateway (MME + SPGW), one per bTelco site.

    The serving skeleton is :class:`~repro.lte.serving_base.
    ServingNodeBase`; this class is what EPS does its own way: EPS-AKA
    against the SubscriberDB (S6a AIR, then ULR), the S/PGW default
    bearer, the ciphered post-SMC transport, and a reject that keeps the
    context for the UE's next attempt on the same S1 association.
    """

    span_prefix = "agw"
    context_class = UeContext
    smc_command = SecurityModeCommand
    accept_wait_state = "WAIT_ATTACH_COMPLETE"
    live_states = ("ATTACHED",)
    #: EPS opens a context for any uplink: the first message after an S1
    #: release (e.g. the DetachAccept of a network-initiated detach)
    #: opens the association the UE's next AttachRequest reuses.
    initiating_nas = (NasMessage,)
    cost_table = BASELINE_COSTS
    nas_legs = {
        AttachRequest: Leg("_on_attach_request", "nas.agw_attach_req",
                           "attach_request"),
        AuthenticationResponse: Leg("_on_auth_response",
                                    "nas.agw_auth_resp", "auth_response"),
        SecurityModeComplete: Leg("_on_smc_complete",
                                  "nas.agw_smc_complete", "smc_complete"),
        AttachComplete: Leg("_on_attach_complete",
                            "nas.agw_attach_complete", "attach_complete"),
        DetachRequest: Leg("_on_detach"),
        # Post-SMC envelopes (complete/detach); charged like the
        # completion handler plus the deciphering it implies.
        ProtectedNas: Leg("_on_protected", "nas.agw_protected",
                          "attach_complete"),
    }
    message_legs = {
        s6a.AuthenticationInformationAnswer:
            Leg("_handle_aia", "s6a.agw_aia", "auth_info_answer"),
        s6a.UpdateLocationAnswer:
            Leg("_handle_ula", "s6a.agw_ula", "update_location_answer"),
    }
    attaches_completed = CounterAttr("agw.attaches_completed")
    attaches_rejected = CounterAttr("agw.attaches_rejected")
    accept_retransmissions = CounterAttr("agw.accept_retransmissions")
    accept_give_ups = CounterAttr("agw.accept_give_ups")
    attempts_expired = LazyCounterAttr("agw.attaches_expired")
    orphan_uplinks = LazyCounterAttr("agw.orphan_uplinks")

    def __init__(self, host: Host, subscriber_db_ip: str,
                 name: str = "agw", ue_pool_prefix: str = "10.128.0"):
        super().__init__(host, name)
        self.subscriber_db_ip = subscriber_db_ip
        self.spgw = SgwPgw(pool_prefix=ue_pool_prefix)
        self._by_imsi: dict[str, int] = {}
        self._tmsi_counter = itertools.count(0x1000)
        #: fired as (context) when an attach completes — the harness uses
        #: it to install the UE's new address on the data plane.
        self.on_attached: Optional[Callable[[UeContext], None]] = None

    # -- protected transport ---------------------------------------------------
    def _on_protected(self, context: UeContext,
                      envelope: ProtectedNas) -> None:
        """Open a post-SMC envelope and dispatch the inner message."""
        if context.security is None:
            return  # protected NAS before key agreement: drop
        try:
            nas = unprotect_nas(context.security, envelope, downlink=False)
        except SecurityError:
            return  # tampered/replayed: drop silently
        self._dispatch_nas(context, nas)

    def downlink_protected(self, context: UeContext,
                           nas: NasMessage) -> None:
        """Cipher + integrity-protect a post-SMC downlink NAS message."""
        if context.security is not None:
            nas = protect_nas(context.security, nas, downlink=True)
        self.downlink(context, nas)

    def reject(self, context: UeContext, cause: str,
               retryable: bool = False) -> None:
        self.attaches_rejected += 1
        context.state = "REJECTED"
        self.downlink(context, AttachReject(cause=cause))

    # -- baseline attach state machine ----------------------------------------
    def _on_attach_request(self, context: UeContext,
                           request: AttachRequest) -> None:
        context.imsi = request.imsi
        context.subscriber_id = request.imsi
        context.state = "WAIT_AUTH_INFO"
        context.attempt_started_at = self.sim.now
        self._arm_deadline(context)
        self._by_imsi[request.imsi] = context.ran_ue_id
        air = s6a.AuthenticationInformationRequest(
            imsi=request.imsi, visited_plmn=str(self.plmn))
        self.send(self.subscriber_db_ip, air, size=s6a.message_size(air))

    def _handle_aia(self, src_ip: str,
                    answer: s6a.AuthenticationInformationAnswer) -> None:
        context = self.context_for_imsi(answer.imsi)
        if context is None or context.state != "WAIT_AUTH_INFO":
            return
        if answer.result != "SUCCESS" or not answer.vectors:
            self.reject(context, f"S6a AIR failed: {answer.result}")
            return
        context.auth_vector = answer.vectors[0]
        context.state = "WAIT_AUTH_RESPONSE"
        self.downlink(context, AuthenticationRequest(
            rand=context.auth_vector.rand, autn=context.auth_vector.autn))

    def _on_auth_response(self, context: UeContext,
                          response: AuthenticationResponse) -> None:
        if context.state == "WAIT_SMC_COMPLETE" \
                and context.auth_vector is not None \
                and response.res == context.auth_vector.xres:
            # Duplicate response: our SMC was likely lost — replay it.
            self.send_smc(context)
            return
        if context.state != "WAIT_AUTH_RESPONSE":
            return
        if context.auth_vector is None \
                or response.res != context.auth_vector.xres:
            self.attaches_rejected += 1
            context.state = "REJECTED"
            self.downlink(context, AuthenticationReject())
            return
        context.security = SecurityContext(kasme=context.auth_vector.kasme)
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)

    def after_security_established(self, context: UeContext) -> None:
        """Baseline: second S6a round-trip (ULR) before admitting the UE.

        CellBricks overrides this to go straight to session setup — the
        bTelco "does not send the second (ULR) request" (§6.1).
        """
        context.state = "WAIT_LOCATION_UPDATE"
        ulr = s6a.UpdateLocationRequest(
            imsi=context.imsi, mme_identity=self.name,
            visited_plmn=str(self.plmn))
        self.send(self.subscriber_db_ip, ulr, size=s6a.message_size(ulr))

    def _handle_ula(self, src_ip: str,
                    answer: s6a.UpdateLocationAnswer) -> None:
        context = self.context_for_imsi(answer.imsi)
        if context is None or context.state != "WAIT_LOCATION_UPDATE":
            return
        if answer.result != "SUCCESS":
            self.reject(context, f"S6a ULR failed: {answer.result}")
            return
        context.subscription = answer.subscription
        self.establish_session(context)

    def establish_session(self, context: UeContext) -> None:
        """Create the default bearer and send Attach Accept."""
        subscription = context.subscription or s6a.SubscriptionData()
        context.bearer = self.spgw.create_default_bearer(
            subscriber_id=context.subscriber_id,
            qci=subscription.qci,
            ambr_dl_bps=subscription.ambr_dl_bps,
            ambr_ul_bps=subscription.ambr_ul_bps,
            apn=subscription.apn)
        context.guti = Guti(self.plmn, mme_group=1, mme_code=1,
                            m_tmsi=next(self._tmsi_counter))
        self._send_supervised_accept(context)

    def _send_accept(self, context: UeContext) -> None:
        self.downlink_protected(context, AttachAccept(
            guti=context.guti, ue_ip=context.bearer.ue_ip,
            bearer_id=context.bearer.ebi, qci=context.bearer.qci,
            ambr_dl_bps=context.bearer.ambr_dl_bps,
            ambr_ul_bps=context.bearer.ambr_ul_bps,
            apn=context.bearer.apn))

    def _free_resources(self, context: UeContext) -> None:
        if context.bearer is not None and context.bearer.active:
            self.spgw.delete_bearer(context.bearer.ebi)
        if context.imsi:
            self._by_imsi.pop(context.imsi, None)

    def _on_attach_complete(self, context: UeContext,
                            complete: AttachComplete) -> None:
        if context.state != "WAIT_ATTACH_COMPLETE":
            return
        context.state = "ATTACHED"
        self.attaches_completed += 1
        if self.on_attached is not None:
            self.on_attached(context)

    # -- detach -----------------------------------------------------------------
    def _on_detach(self, context: UeContext,
                   request: DetachRequest) -> None:
        context.state = "DETACHED"
        if not request.switch_off:
            # Switch-off detaches expect no acknowledgement (TS 24.301).
            self.downlink_protected(context, DetachAccept())
        self._release_ue(context)

    # -- introspection -----------------------------------------------------------
    def context_for_imsi(self, imsi: str) -> Optional[UeContext]:
        ue_id = self._by_imsi.get(imsi)
        return self.contexts.get(ue_id) if ue_id is not None else None
