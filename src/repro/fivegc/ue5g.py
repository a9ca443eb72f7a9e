"""The 5G UE: registration + PDU session, baseline (5G-AKA) flavor.

The CellBricks 5G UE subclasses this in :mod:`repro.core.btelco5g`,
replacing 5G-AKA with SAP exactly as the 4G UE does — the layering that
lets the same SIM-resident credentials serve both generations.

The registration skeleton (supervised legs, reject back-off, SMC) is the
one the LTE UE runs, :class:`repro.lte.ue_base.NasUeBase`; a fault-free
run issues zero retransmissions.  The PDU-session leg that follows
registration rides the same per-leg supervisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto import PublicKey
from repro.lte.aka import UsimState
from repro.lte.security import SecurityContext
from repro.lte.ue_base import NasUeBase
from repro.net import Host

from . import nas5g
from .aka5g import derive_kamf, derive_kseaf, usim_authenticate_5g
from .identifiers5g import Supi, conceal

UE5G_COSTS = {
    "craft_registration": 0.0012,     # SUCI concealment (hybrid encrypt)
    nas5g.AuthenticationRequest5G: 0.0012,
    nas5g.SecurityModeCommand5G: 0.00075,
    nas5g.RegistrationAccept: 0.00075,
    nas5g.PduSessionEstablishmentAccept: 0.0006,
}


@dataclass
class RegistrationResult:
    success: bool
    latency: float
    cause: Optional[str] = None


@dataclass
class SessionResult:
    success: bool
    ue_ip: Optional[str] = None
    latency: float = 0.0
    cause: Optional[str] = None


class Ue5G(NasUeBase):
    """Baseline 5G UE: the 5GS column of the AKA cheatsheet — SUCI
    concealment, the K_AUSF → K_SEAF → K_AMF hierarchy, and the
    PDU-session leg that yields the address."""

    processing_costs = {
        nas5g.AuthenticationRequest5G:
            UE5G_COSTS[nas5g.AuthenticationRequest5G],
        nas5g.SecurityModeCommand5G:
            UE5G_COSTS[nas5g.SecurityModeCommand5G],
        nas5g.RegistrationAccept: UE5G_COSTS[nas5g.RegistrationAccept],
        nas5g.PduSessionEstablishmentAccept:
            UE5G_COSTS[nas5g.PduSessionEstablishmentAccept],
    }
    _SPAN_NAMES = {
        nas5g.AuthenticationRequest5G: "nas.ue_auth",
        nas5g.SecurityModeCommand5G: "nas.ue_smc",
        nas5g.RegistrationAccept: "nas.ue_reg_accept",
        nas5g.PduSessionEstablishmentAccept: "nas.ue_pdu_accept",
    }
    procedure = "registration"
    attaching_state = "REGISTERING"
    attached_state = "REGISTERED"
    initial_craft_cost = UE5G_COSTS["craft_registration"]
    smc_complete = nas5g.SecurityModeComplete5G
    result_type = RegistrationResult

    def __init__(self, host: Host, ran_ip: str, supi: Supi,
                 usim: Optional[UsimState],
                 home_network_key: Optional[PublicKey],
                 serving_network: str, name: str = "ue5g"):
        super().__init__(host, ran_ip, serving_network, name)
        self.supi = supi
        self.usim = usim
        self.home_network_key = home_network_key
        self.kausf: Optional[bytes] = None
        self._session_started: Optional[float] = None
        #: the PDU-session request in flight (None: no leg outstanding).
        self._session_request = None
        #: 3GPP-named twin of ``on_attach_done``; both fire.
        self.on_registration_done: Optional[Callable] = None
        self.on_session_done: Optional[Callable] = None
        self.on_deregistered: Optional[Callable] = None

        self.on(nas5g.AuthenticationRequest5G, self._on_auth_request)
        self.on(nas5g.SecurityModeCommand5G, self._on_smc)
        self.on(nas5g.RegistrationAccept, self._on_accept)
        self.on(nas5g.RegistrationReject, self._on_reject)
        self.on(nas5g.DeregistrationRequest5G,
                self._on_network_deregistration)
        self.on(nas5g.PduSessionEstablishmentAccept, self._on_pdu_accept)
        self.on(nas5g.PduSessionEstablishmentReject, self._on_pdu_reject)

    # -- registration ------------------------------------------------------------
    def register(self) -> None:
        """3GPP name for :meth:`attach`."""
        self.attach()

    def initial_request(self):
        suci = conceal(self.supi, self.home_network_key)
        return nas5g.RegistrationRequest(suci=suci)

    def _clear_mm_state(self) -> None:
        super()._clear_mm_state()
        self.kausf = None
        self._session_request = None

    def _deliver(self, result: RegistrationResult) -> None:
        if self.on_registration_done is not None:
            self.on_registration_done(result)
        super()._deliver(result)

    # -- 5G-AKA ------------------------------------------------------------------
    def _authenticate(self, request: nas5g.AuthenticationRequest5G):
        res_star, kausf = usim_authenticate_5g(
            self.usim, request.rand, request.autn, self.serving_network)
        self.kausf = kausf
        kseaf = derive_kseaf(kausf, self.serving_network)
        kamf = derive_kamf(kseaf, str(self.supi))
        self.security = SecurityContext(kasme=kamf)
        return nas5g.AuthenticationResponse5G(res_star=res_star)

    # -- completion ---------------------------------------------------------------
    def _on_accept(self, src_ip: str,
                   accept: nas5g.RegistrationAccept) -> None:
        if self.state == "REGISTERED":
            # Duplicate accept: our RegistrationComplete was lost —
            # re-send it without re-firing the completion hook.
            self._uplink(nas5g.RegistrationComplete())
            return
        if self.state != "REGISTERING":
            return  # stale accept from an abandoned attempt
        self._stop()
        self.state = "REGISTERED"
        self._uplink(nas5g.RegistrationComplete())
        self._succeed()

    # -- deregistration -----------------------------------------------------------
    #: 3GPP name for the switch-off departure.
    deregister_and_forget = NasUeBase.detach_and_forget

    def _send_switch_off(self) -> None:
        self._uplink(nas5g.DeregistrationRequest5G(switch_off=True))

    def _on_network_deregistration(
            self, src_ip: str,
            request: nas5g.DeregistrationRequest5G) -> None:
        """Network-initiated deregistration (grant expiry / revocation)."""
        if self.state != "REGISTERED" or src_ip != self.ran_ip:
            return  # not registered, or a stale network we already left
        self._uplink(nas5g.DeregistrationAccept5G())
        session_pending = self._session_request is not None
        self.state = "DEREGISTERED"
        self._clear_mm_state()
        if session_pending:
            # Whoever is waiting on the session leg must hear it is off.
            self._session_done(success=False,
                               cause="deregistered by the network")
        if self.on_deregistered is not None:
            self.on_deregistered()

    # -- PDU session --------------------------------------------------------------
    def establish_session(self, dnn: str = "internet") -> None:
        """Ask for the PDU session that carries the address.  The leg is
        supervised like a registration leg; its timer is un-jittered so
        a fault-free session draws nothing from the jitter stream the
        registration legs replay from."""
        if self.state != "REGISTERED":
            raise RuntimeError("establish_session() before registration")
        self._session_started = self.sim.now
        self._session_request = nas5g.PduSessionEstablishmentRequest(dnn=dnn)
        self._resend_session_request()
        self._supervise(self._resend_session_request,
                        give_up=self._session_timed_out, jittered=False)

    def _resend_session_request(self) -> None:
        request = self._session_request
        if request is not None:
            self._uplink(request)

    def _session_done(self, **fields) -> None:
        self._stop()
        self._session_request = None
        if self.on_session_done is not None:
            self.on_session_done(SessionResult(
                latency=self.sim.now - self._session_started, **fields))

    def _session_timed_out(self) -> None:
        self._session_done(
            success=False, cause=f"PDU session timed out after "
                                 f"{self.attach_max_attempts} attempts")

    def _on_pdu_accept(self, src_ip: str,
                       accept: nas5g.PduSessionEstablishmentAccept) -> None:
        if self._session_request is None or src_ip != self.ran_ip:
            return  # duplicate, or a session we stopped waiting for
        self.ue_ip = accept.ue_ip
        self._session_done(success=True, ue_ip=accept.ue_ip)

    def _on_pdu_reject(self, src_ip: str, reject) -> None:
        if self._session_request is None or src_ip != self.ran_ip:
            return
        self._session_done(success=False, cause=reject.cause)
