"""5G core network functions: UDM, AUSF, SMF/UPF, AMF.

The baseline 5G registration costs the visited network **two** round
trips to the home side (authenticate via AUSF→UDM, then the RES*
confirmation at the AUSF) before the local SMC and PDU-session steps —
one more than 4G's AIR leg plus home-control semantics.  The CellBricks
variant (:mod:`repro.core.btelco5g`) replaces all of it with one SAP
round trip to the broker, so its relative win *grows* under 5G.

Reliability follows the LTE split: SBI legs whose server answers inside
its handler (AUSF→UDM, AMF→AUSF confirmation, AMF→SMF) ride
:meth:`~repro.lte.signaling.SignalingNode.send_request` and self-heal
under loss, while the AMF→AUSF *authenticate* leg — whose answer waits
on the UDM round trip and so cannot be reply-captured — stays a plain
datagram re-driven by the UE's NAS retransmission of the initial
request.  Accept supervision, the attempt deadline and the orphan-uplink
guard come from :class:`repro.lte.serving_base.ServingNodeBase`, the
skeleton the LTE AGW runs too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto import PrivateKey
from repro.lte.bearer import SgwPgw
from repro.lte.identifiers import Plmn, TEST_PLMN
from repro.lte.security import SecurityContext
from repro.lte.serving_base import Leg, ServingContext, ServingNodeBase
from repro.lte.signaling import CounterAttr, SignalingNode
from repro.net import Host

from . import nas5g
from .aka5g import derive_kamf, derive_kseaf, generate_5g_vector, hres_star
from .identifiers5g import Guti5G, Suci, SuciError, Supi, deconceal

# Processing-cost calibration (seconds).  The 5G control plane does more
# per message than the 4G one (SBI serialization, token checks); totals
# are chosen so the local registration latency lands in the mid-30s ms,
# consistent with published open-source 5GC measurements.
UDM_AUTH_PROCESSING = 0.0022
AUSF_PROCESSING = 0.0016
AUSF_CONFIRM_PROCESSING = 0.0012
SMF_PROCESSING = 0.0028
SMF_RELEASE_PROCESSING = 0.0009
AMF_COSTS = {
    "registration_request": 0.0036,
    "auth_response": 0.0034,
    "ausf_response": 0.0026,
    "ausf_confirm": 0.0024,
    "smc_complete": 0.0024,
    "smf_response": 0.0020,
    "pdu_request": 0.0022,
    "registration_complete": 0.0015,
    "deregistration": 0.0012,
}


@dataclass
class Subscriber5G:
    supi: str
    k: bytes
    sqn: int = 0
    barred: bool = False


class Udm(SignalingNode):
    """Unified Data Management (+ARPF): subscriber store, SUCI
    deconcealment, 5G vector generation."""

    processing_costs = {nas5g.UdmAuthDataRequest: UDM_AUTH_PROCESSING}
    obs_category = "cloud"
    _SPAN_NAMES = {nas5g.UdmAuthDataRequest: "sbi.udm_auth_data"}

    def __init__(self, host: Host, home_network_key: PrivateKey,
                 name: str = "udm"):
        super().__init__(host, name)
        self.home_network_key = home_network_key
        self.subscribers: dict[str, Subscriber5G] = {}
        self.on(nas5g.UdmAuthDataRequest, self._handle_auth_data)

    def provision(self, supi: Supi, k: bytes) -> Subscriber5G:
        record = Subscriber5G(supi=str(supi), k=k)
        self.subscribers[str(supi)] = record
        return record

    def _handle_auth_data(self, src_ip: str,
                          request: nas5g.UdmAuthDataRequest) -> None:
        try:
            supi = deconceal(request.suci, self.home_network_key)
        except SuciError as exc:
            self.send(src_ip, nas5g.UdmAuthDataResponse(
                correlation=request.correlation, success=False,
                cause=str(exc)), size=96)
            return
        record = self.subscribers.get(str(supi))
        if record is None or record.barred:
            self.send(src_ip, nas5g.UdmAuthDataResponse(
                correlation=request.correlation, success=False,
                cause="unknown or barred SUPI"), size=96)
            return
        record.sqn += 1
        vector = generate_5g_vector(record.k, record.sqn,
                                    request.serving_network)
        self.send(src_ip, nas5g.UdmAuthDataResponse(
            correlation=request.correlation, success=True,
            supi=str(supi), vector=vector), size=360)


class Ausf(SignalingNode):
    """Authentication Server Function: the home network's gatekeeper.

    The UDM leg rides ``send_request`` (the UDM answers in-handler, so
    its dedup cache both retransmits and absorbs duplicates — the SQN
    never double-increments for one authentication).  Pending entries
    carry a deadline so an abandoned registration cannot pin its vector
    here forever.
    """

    processing_costs = {
        nas5g.AusfAuthenticateRequest: AUSF_PROCESSING,
        nas5g.UdmAuthDataResponse: AUSF_PROCESSING,
        nas5g.AusfConfirmRequest: AUSF_CONFIRM_PROCESSING,
    }
    obs_category = "cloud"
    #: how long a pending authentication may sit without its RES*
    #: confirmation before it is garbage-collected.
    pending_ttl = 30.0
    _SPAN_NAMES = {
        nas5g.AusfAuthenticateRequest: "sbi.ausf_authenticate",
        nas5g.UdmAuthDataResponse: "sbi.ausf_udm_resp",
        nas5g.AusfConfirmRequest: "sbi.ausf_confirm",
    }
    pending_expired = CounterAttr("ausf.pending_expired")

    def __init__(self, host: Host, udm_ip: str, name: str = "ausf"):
        super().__init__(host, name)
        self.udm_ip = udm_ip
        self._pending: dict[int, dict] = {}
        self.on(nas5g.AusfAuthenticateRequest, self._handle_authenticate)
        self.on(nas5g.UdmAuthDataResponse, self._handle_udm_response)
        self.on(nas5g.AusfConfirmRequest, self._handle_confirm)

    def _handle_authenticate(self, src_ip: str,
                             request: nas5g.AusfAuthenticateRequest) -> None:
        self._pending[request.correlation] = {
            "amf_ip": src_ip,
            "serving_network": request.serving_network,
            "deadline": self.sim.now + self.pending_ttl,
        }
        self.sim.schedule(self.pending_ttl, self._expire_pending,
                          request.correlation)
        self.send_request(
            self.udm_ip, nas5g.UdmAuthDataRequest(
                suci=request.suci, serving_network=request.serving_network,
                correlation=request.correlation), size=460,
            on_give_up=lambda _m, c=request.correlation:
                self._udm_gave_up(c))

    def _udm_gave_up(self, correlation: int) -> None:
        state = self._pending.pop(correlation, None)
        if state is None or "vector" in state:
            return
        self.send(state["amf_ip"], nas5g.AusfAuthenticateResponse(
            correlation=correlation, success=False,
            cause="UDM unreachable"), size=96)

    def _expire_pending(self, correlation: int) -> None:
        state = self._pending.get(correlation)
        if state is None:
            return
        if self.sim.now >= state["deadline"]:
            del self._pending[correlation]
            self.pending_expired += 1
        else:
            # The entry was refreshed by a re-driven authentication;
            # re-check at its new deadline.
            self.sim.schedule(state["deadline"] - self.sim.now,
                              self._expire_pending, correlation)

    def _handle_udm_response(self, src_ip: str,
                             response: nas5g.UdmAuthDataResponse) -> None:
        state = self._pending.get(response.correlation)
        if state is None:
            return
        if not response.success:
            self.send(state["amf_ip"], nas5g.AusfAuthenticateResponse(
                correlation=response.correlation, success=False,
                cause=response.cause), size=96)
            del self._pending[response.correlation]
            return
        vector = response.vector
        state["vector"] = vector
        state["supi"] = response.supi
        self.send(state["amf_ip"], nas5g.AusfAuthenticateResponse(
            correlation=response.correlation, success=True,
            rand=vector.rand, autn=vector.autn,
            hxres_star=hres_star(vector.xres_star, vector.rand)), size=200)

    def _handle_confirm(self, src_ip: str,
                        request: nas5g.AusfConfirmRequest) -> None:
        state = self._pending.pop(request.correlation, None)
        if state is None or "vector" not in state:
            self.send(src_ip, nas5g.AusfConfirmResponse(
                correlation=request.correlation, success=False,
                cause="unknown authentication context"), size=96)
            return
        vector = state["vector"]
        if request.res_star != vector.xres_star:
            self.send(src_ip, nas5g.AusfConfirmResponse(
                correlation=request.correlation, success=False,
                cause="RES* mismatch"), size=96)
            return
        kseaf = derive_kseaf(vector.kausf, state["serving_network"])
        self.send(src_ip, nas5g.AusfConfirmResponse(
            correlation=request.correlation, success=True,
            supi=state["supi"], kseaf=kseaf), size=160)


class Smf(SignalingNode):
    """Session Management Function with an integrated UPF address pool."""

    processing_costs = {
        nas5g.SmfCreateSessionRequest: SMF_PROCESSING,
        nas5g.SmfReleaseSessionRequest: SMF_RELEASE_PROCESSING,
    }
    sessions_created = CounterAttr("smf.sessions_created")
    sessions_released = CounterAttr("smf.sessions_released")
    release_misses = CounterAttr("smf.release_misses")

    _SPAN_NAMES = {
        nas5g.SmfCreateSessionRequest: "sbi.smf_create",
        nas5g.SmfReleaseSessionRequest: "sbi.smf_release",
    }

    def __init__(self, host: Host, name: str = "smf",
                 ue_pool_prefix: str = "10.128.0"):
        super().__init__(host, name)
        self.upf = SgwPgw(pool_prefix=ue_pool_prefix)
        self.on(nas5g.SmfCreateSessionRequest, self._handle_create)
        self.on(nas5g.SmfReleaseSessionRequest, self._handle_release)

    def _handle_create(self, src_ip: str,
                       request: nas5g.SmfCreateSessionRequest) -> None:
        bearer = self.upf.create_default_bearer(
            subscriber_id=request.subscriber, qci=9,
            ambr_dl_bps=100e6, ambr_ul_bps=50e6, apn=request.dnn)
        self.sessions_created += 1
        self.send(src_ip, nas5g.SmfCreateSessionResponse(
            correlation=request.correlation, success=True,
            session_id=request.session_id, ue_ip=bearer.ue_ip,
            qfi=bearer.qci, ambr_dl_bps=bearer.ambr_dl_bps,
            ambr_ul_bps=bearer.ambr_ul_bps), size=220)

    def _handle_release(self, src_ip: str,
                        request: nas5g.SmfReleaseSessionRequest) -> None:
        """Free a subscriber's bearer + pooled IP.  Idempotent: a
        retransmitted (or already-superseded) release is a counted miss,
        not an error, so the AMF's reliable retry loop always
        converges."""
        ebi = self.upf.by_subscriber.get(request.subscriber)
        if ebi is None:
            self.release_misses += 1
            released = False
        else:
            self.upf.delete_bearer(ebi)
            self.sessions_released += 1
            released = True
        self.send(src_ip, nas5g.SmfReleaseSessionResponse(
            correlation=request.correlation, released=released), size=48)


@dataclass
class UeContext5G(ServingContext):
    """Per-UE AMF registration state."""

    suci: object = None
    supi: Optional[str] = None
    correlation: int = 0
    rand: bytes = b""
    autn: bytes = b""
    hxres_star: bytes = b""
    kseaf: bytes = b""
    res_star: bytes = b""
    pdu_session_id: int = 0
    #: the accept of the established PDU session, replayed verbatim for
    #: a retransmitted request.
    pdu_accept: object = None
    guti: Optional[Guti5G] = None
    ue_ip: Optional[str] = None
    sbi_corr_id: int = 0              # outstanding AUSF-confirm/SMF corr id


class Amf(ServingNodeBase):
    """Access and Mobility Function (+SEAF): the visited-network anchor.

    Registration: SUCI in, AUSF/UDM round trip, challenge, HRES* local
    check, AUSF confirmation round trip, SMC, accept.  Then PDU session
    establishment against the (local) SMF.

    Both correlation maps are cleaned on *every* terminal transition
    (complete, reject, abandon, deregister), so churny or lossy loads
    cannot grow ``contexts``/``_by_correlation`` without bound.
    """

    span_prefix = "amf"
    context_class = UeContext5G
    smc_command = nas5g.SecurityModeCommand5G
    accept_wait_state = "WAIT_REGISTRATION_COMPLETE"
    live_states = ("REGISTERED", "WAIT_SMF")
    initiating_nas = (nas5g.RegistrationRequest,)
    # The ack of a network-initiated deregistration lands after we
    # released the context — expected, not orphaned.
    late_ack_nas = (nas5g.DeregistrationAccept5G,)
    cost_table = AMF_COSTS
    nas_legs = {
        nas5g.RegistrationRequest:
            Leg("_on_registration_request", "nas.amf_reg_req",
                "registration_request"),
        nas5g.AuthenticationResponse5G:
            Leg("_on_auth_response", "nas.amf_auth_resp", "auth_response"),
        nas5g.SecurityModeComplete5G:
            Leg("_on_smc_complete", "nas.amf_smc_complete", "smc_complete"),
        nas5g.RegistrationComplete:
            Leg("_on_registration_complete", "nas.amf_reg_complete",
                "registration_complete"),
        nas5g.DeregistrationRequest5G:
            Leg("_on_deregistration", "nas.amf_dereg", "deregistration"),
        nas5g.PduSessionEstablishmentRequest:
            Leg("_on_pdu_request", "nas.amf_pdu_req", "pdu_request"),
    }
    message_legs = {
        nas5g.AusfAuthenticateResponse:
            Leg("_handle_ausf_response", "sbi.amf_ausf_auth",
                "ausf_response"),
        nas5g.AusfConfirmResponse:
            Leg("_handle_ausf_confirm", "sbi.amf_ausf_confirm",
                "ausf_confirm"),
        nas5g.SmfCreateSessionResponse:
            Leg("_handle_smf_response", "sbi.amf_smf", "smf_response"),
        nas5g.SmfReleaseSessionResponse:
            Leg("_handle_smf_release_response"),
    }
    registrations_completed = CounterAttr("amf.registrations_completed")
    registrations_rejected = CounterAttr("amf.registrations_rejected")
    accept_retransmissions = CounterAttr("amf.accept_retransmissions")
    accept_give_ups = CounterAttr("amf.accept_give_ups")
    attempts_expired = CounterAttr("amf.registrations_expired")
    orphan_uplinks = CounterAttr("amf.orphan_uplinks")
    deregistrations = CounterAttr("amf.deregistrations")
    smf_releases_sent = CounterAttr("amf.smf_releases_sent")
    smf_release_give_ups = CounterAttr("amf.smf_release_give_ups")

    def __init__(self, host: Host, ausf_ip: str, smf_ip: str,
                 name: str = "amf", plmn: Plmn = TEST_PLMN):
        super().__init__(host, name, plmn)
        self.ausf_ip = ausf_ip
        self.smf_ip = smf_ip
        self.serving_network = f"5G:{plmn}"
        self._by_correlation: dict[int, int] = {}
        self._correlations = itertools.count(1)
        self._tmsi = itertools.count(0x5000)
        #: DenialCause-style breakdown of terminal rejections/abandons.
        self.rejection_causes = self.metrics.counter_vec(
            "amf.rejections", "cause")
        self.on_registered: Optional[Callable[[UeContext5G], None]] = None
        self.on_session: Optional[Callable[[UeContext5G], None]] = None

    # -- correlation-map hygiene ----------------------------------------------
    def _assign_correlation(self, context: UeContext5G) -> int:
        """Mint a fresh correlation for the context's next SBI exchange,
        retiring any previous mapping so ``_by_correlation`` holds at
        most one entry per context."""
        if context.correlation:
            self._by_correlation.pop(context.correlation, None)
        context.correlation = next(self._correlations)
        self._by_correlation[context.correlation] = context.ran_ue_id
        return context.correlation

    def _release_correlation(self, context: UeContext5G) -> None:
        if context.correlation:
            self._by_correlation.pop(context.correlation, None)
            context.correlation = 0

    def _cancel_sbi_request(self, context: UeContext5G) -> None:
        if context.sbi_corr_id:
            self.cancel_request(context.sbi_corr_id)
            context.sbi_corr_id = 0

    def _free_resources(self, context: UeContext5G) -> None:
        """Any outstanding reliable request, the correlation mapping and
        the SMF-held PDU session."""
        self._cancel_sbi_request(context)
        self._release_correlation(context)
        if context.ue_ip is not None:
            self._release_pdu_session(context)

    def _abandon_attach(self, context: UeContext5G, cause: str) -> None:
        self.rejection_causes[cause] += 1
        super()._abandon_attach(context, cause)

    def _release_pdu_session(self, context: UeContext5G) -> None:
        """Tell the SMF to free the context's bearer + pooled IP.

        Rides ``send_request`` so a lost release retransmits instead of
        leaking the address until pool exhaustion; the context is
        already gone by then, so the closure carries everything the
        retry needs."""
        self.smf_releases_sent += 1
        context.ue_ip = None
        self.send_request(
            self.smf_ip, nas5g.SmfReleaseSessionRequest(
                subscriber=context.supi or "anonymous",
                session_id=context.pdu_session_id,
                correlation=next(self._correlations)), size=96,
            on_give_up=lambda _m: self._smf_release_gave_up())

    def _smf_release_gave_up(self) -> None:
        self.smf_release_give_ups += 1

    def _handle_smf_release_response(
            self, src_ip: str,
            response: nas5g.SmfReleaseSessionResponse) -> None:
        """The reliable layer already matched the reply; nothing else to
        clean up (the AMF dropped the context when it sent the release)."""

    def reject(self, context: UeContext5G, cause: str,
               retryable: bool = False) -> None:
        # A 5GS reject is terminal for the context: it is released with
        # everything it holds.
        self.registrations_rejected += 1
        self.rejection_causes[cause.split(":")[0]] += 1
        context.state = "REJECTED"
        self.downlink(context, nas5g.RegistrationReject(
            cause=cause, retryable=retryable))
        self._release_ue(context)

    # -- registration state machine --------------------------------------------------
    def _on_registration_request(self, context: UeContext5G,
                                 request: nas5g.RegistrationRequest) -> None:
        if context.suci == request.suci and context.state != "INITIAL":
            # NAS-level retransmission of the initial request (the SUCI
            # ciphertext is crafted once per attempt, so byte-equality
            # identifies the attempt).  Re-drive whichever leg stalled;
            # later states mean a straggler — absorb it.
            if context.state == "WAIT_AUSF":
                self._send_authenticate(context)
            elif context.state == "WAIT_AUTH_RESPONSE":
                self.downlink(context, nas5g.AuthenticationRequest5G(
                    rand=context.rand, autn=context.autn))
            return
        # Fresh attempt (first request on this context, or a new SUCI
        # after a prior attempt was abandoned): restart from scratch.
        self._cancel_sbi_request(context)
        context.suci = request.suci
        context.supi = None
        context.security = None
        context.rand = b""
        context.autn = b""
        context.res_star = b""
        context.state = "WAIT_AUSF"
        context.attempt_started_at = self.sim.now
        self._arm_deadline(context)
        self._send_authenticate(context)

    def _send_authenticate(self, context: UeContext5G) -> None:
        """(Re)issue the AUSF authenticate under a *fresh* correlation:
        the AUSF keys its pending vector by correlation, so retiring the
        old id on every re-drive guarantees challenge, RES* and
        confirmation all refer to one vector even when an earlier
        request's response is still in flight."""
        correlation = self._assign_correlation(context)
        self.send(self.ausf_ip, nas5g.AusfAuthenticateRequest(
            suci=context.suci, serving_network=self.serving_network,
            correlation=correlation), size=500)

    def _context_for(self, correlation: int) -> Optional[UeContext5G]:
        ue_id = self._by_correlation.get(correlation)
        return self.contexts.get(ue_id) if ue_id is not None else None

    def _handle_ausf_response(self, src_ip: str,
                              response: nas5g.AusfAuthenticateResponse
                              ) -> None:
        context = self._context_for(response.correlation)
        if context is None or context.state != "WAIT_AUSF" \
                or context.correlation != response.correlation:
            return  # stale response from a retired correlation
        if not response.success:
            self.reject(context, f"authentication failed: {response.cause}")
            return
        context.hxres_star = response.hxres_star
        context.rand = response.rand
        context.autn = response.autn
        context.state = "WAIT_AUTH_RESPONSE"
        self.downlink(context, nas5g.AuthenticationRequest5G(
            rand=response.rand, autn=response.autn))

    def _on_auth_response(self, context: UeContext5G,
                          response: nas5g.AuthenticationResponse5G) -> None:
        if context.state == "WAIT_AUSF_CONFIRM" \
                and response.res_star == context.res_star:
            # Duplicate RES*: the reliable confirm exchange is already
            # re-driving the home network — nothing to do here.
            return
        if context.state == "WAIT_SMC_COMPLETE" \
                and response.res_star == context.res_star:
            # Duplicate RES*: our SMC was likely lost — replay it.
            self.send_smc(context)
            return
        if context.state != "WAIT_AUTH_RESPONSE":
            return
        # SEAF-local check: HRES* must match before bothering the home NW.
        if hres_star(response.res_star, context.rand) != context.hxres_star:
            self.reject(context, "HRES* mismatch")
            return
        context.res_star = response.res_star
        context.state = "WAIT_AUSF_CONFIRM"
        context.sbi_corr_id = self.send_request(
            self.ausf_ip, nas5g.AusfConfirmRequest(
                correlation=context.correlation,
                res_star=response.res_star), size=120,
            on_give_up=lambda _m, c=context: self._confirm_gave_up(c))

    def _confirm_gave_up(self, context: UeContext5G) -> None:
        context.sbi_corr_id = 0
        if self.contexts.get(context.ran_ue_id) is not context \
                or context.state != "WAIT_AUSF_CONFIRM":
            return
        self.reject(context, "home network unreachable: "
                             "RES* confirmation timed out")

    def _handle_ausf_confirm(self, src_ip: str,
                             response: nas5g.AusfConfirmResponse) -> None:
        context = self._context_for(response.correlation)
        if context is None or context.state != "WAIT_AUSF_CONFIRM":
            return
        context.sbi_corr_id = 0
        if not response.success:
            self.reject(context, f"home network refused: {response.cause}")
            return
        context.supi = response.supi
        kamf = derive_kamf(response.kseaf, response.supi)
        context.security = SecurityContext(kasme=kamf)
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)

    def after_security_established(self, context: UeContext5G) -> None:
        """Mint the GUTI and send the supervised RegistrationAccept
        (subclasses hook here for lifecycle scheduling)."""
        context.guti = Guti5G(self.plmn, amf_region=1, amf_set=1,
                              tmsi=next(self._tmsi))
        self._send_supervised_accept(context)

    def _send_accept(self, context: UeContext5G) -> None:
        self.downlink(context, nas5g.RegistrationAccept(guti=context.guti))

    def _on_registration_complete(
            self, context: UeContext5G,
            complete: nas5g.RegistrationComplete) -> None:
        if context.state != "WAIT_REGISTRATION_COMPLETE":
            return
        # Terminal transition: the SBI conversation is over, so the
        # correlation mapping goes (a fresh one is minted per PDU leg).
        self._release_correlation(context)
        context.state = "REGISTERED"
        self.registrations_completed += 1
        if self.on_registered is not None:
            self.on_registered(context)

    # -- deregistration ----------------------------------------------------------------
    def _on_deregistration(self, context: UeContext5G,
                           request: nas5g.DeregistrationRequest5G) -> None:
        self.deregistrations += 1
        context.state = "DEREGISTERED"
        if not request.switch_off:
            # Switch-off deregistrations expect no ack (TS 24.501).
            self.downlink(context, nas5g.DeregistrationAccept5G())
        self._release_ue(context)

    # -- PDU session -------------------------------------------------------------------
    def _on_pdu_request(self, context: UeContext5G,
                        request: nas5g.PduSessionEstablishmentRequest
                        ) -> None:
        if context.state == "WAIT_SMF":
            return  # duplicate: the reliable SMF exchange is in flight
        if context.state != "REGISTERED":
            self.downlink(context, nas5g.PduSessionEstablishmentReject(
                session_id=request.session_id, cause="not registered"))
            return
        accept = context.pdu_accept
        if accept is not None and accept.session_id == request.session_id:
            # Retransmission for a session that is already up: our accept
            # was lost — replay it (asking the SMF again would allocate a
            # second session and leak a pooled address).
            self.downlink(context, accept)
            return
        context.state = "WAIT_SMF"
        context.pdu_session_id = request.session_id
        correlation = self._assign_correlation(context)
        context.sbi_corr_id = self.send_request(
            self.smf_ip, nas5g.SmfCreateSessionRequest(
                subscriber=context.supi or "anonymous", dnn=request.dnn,
                session_id=request.session_id,
                correlation=correlation), size=260,
            on_give_up=lambda _m, c=context: self._smf_gave_up(c))

    def _smf_gave_up(self, context: UeContext5G) -> None:
        context.sbi_corr_id = 0
        if self.contexts.get(context.ran_ue_id) is not context \
                or context.state != "WAIT_SMF":
            return
        self._release_correlation(context)
        context.state = "REGISTERED"
        self.downlink(context, nas5g.PduSessionEstablishmentReject(
            session_id=context.pdu_session_id, cause="SMF unreachable"))

    def _handle_smf_response(self, src_ip: str,
                             response: nas5g.SmfCreateSessionResponse
                             ) -> None:
        context = self._context_for(response.correlation)
        if context is None or context.state != "WAIT_SMF":
            return
        context.sbi_corr_id = 0
        self._release_correlation(context)
        context.state = "REGISTERED"
        context.ue_ip = response.ue_ip
        context.pdu_accept = nas5g.PduSessionEstablishmentAccept(
            session_id=response.session_id, ue_ip=response.ue_ip,
            qfi=response.qfi, ambr_dl_bps=response.ambr_dl_bps,
            ambr_ul_bps=response.ambr_ul_bps)
        self.downlink(context, context.pdu_accept)
        if self.on_session is not None:
            self.on_session(context)

    # -- introspection -----------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "registrations_completed": self.registrations_completed,
            "registrations_rejected": self.registrations_rejected,
            "accept_retransmissions": self.accept_retransmissions,
            "accept_give_ups": self.accept_give_ups,
            "registrations_expired": self.attempts_expired,
            "orphan_uplinks": self.orphan_uplinks,
            "deregistrations": self.deregistrations,
            "smf_releases_sent": self.smf_releases_sent,
            "smf_release_give_ups": self.smf_release_give_ups,
            "contexts": len(self.contexts),
            "by_correlation": len(self._by_correlation),
        }
