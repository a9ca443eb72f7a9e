"""UE NAS stack: the baseline (srsUE-like) attach procedure.

The CellBricks UE extension (running SAP instead of EPS-AKA) subclasses
this in :class:`repro.core.ue_agent.CellBricksUe`, mirroring how the
prototype "adds 940 LoC to the srsUE".

Attach latency is measured exactly as in §6.1: from when the UE issues the
attachment request to when attachment completes, with RRC/lower-layer time
excluded (the radio link here carries signaling with negligible delay; all
measured time is NAS processing + backhaul/cloud transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net import Host

from .aka import UsimState, usim_authenticate
from .identifiers import Imsi
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
    SecurityModeCommand,
    SecurityModeComplete,
)
from .nas_transport import ProtectedNas
from .nas_transport import protect as protect_nas
from .nas_transport import unprotect as unprotect_nas
from .security import SecurityContext, SecurityError
from .ue_base import NasUeBase

# UE-side processing costs (seconds); sum ≈ 3.0 ms per baseline attach.
UE_COSTS = {
    "craft_attach_request": 0.0005,
    AuthenticationRequest: 0.0010,
    SecurityModeCommand: 0.00075,
    AttachAccept: 0.00075,
}


@dataclass
class AttachResult:
    """Outcome of one attach attempt."""

    success: bool
    ue_ip: Optional[str] = None
    latency: float = 0.0
    cause: Optional[str] = None


class UeNas(NasUeBase):
    """Baseline UE: EPS-AKA + SMC + attach, via the eNodeB.

    The attach skeleton (supervised legs, reject back-off, SMC) is
    :class:`~repro.lte.ue_base.NasUeBase`; this class is the EPS column
    of the AKA cheatsheet: IMSI in the clear, K_ASME straight from the
    USIM, and a ciphered post-SMC transport (:class:`ProtectedNas`).
    """

    processing_costs = {
        AuthenticationRequest: UE_COSTS[AuthenticationRequest],
        SecurityModeCommand: UE_COSTS[SecurityModeCommand],
        AttachAccept: UE_COSTS[AttachAccept],
        # Protected envelopes post-SMC carry the accept/detach messages;
        # charged like an accept (deciphering included).
        ProtectedNas: UE_COSTS[AttachAccept],
    }
    _SPAN_NAMES = {
        AuthenticationRequest: "nas.ue_auth",
        SecurityModeCommand: "nas.ue_smc",
        AttachAccept: "nas.ue_attach_accept",
        ProtectedNas: "nas.ue_protected",
    }
    initial_craft_cost = UE_COSTS["craft_attach_request"]
    smc_complete = SecurityModeComplete
    result_type = AttachResult

    def __init__(self, host: Host, ran_ip: str, imsi: Imsi | str,
                 usim: UsimState, serving_network: str,
                 name: str = "ue-nas"):
        super().__init__(host, ran_ip, serving_network, name)
        self.imsi = str(imsi)
        self.usim = usim
        self.on_detached: Optional[Callable[[], None]] = None

        self.on(AuthenticationRequest, self._on_auth_request)
        self.on(SecurityModeCommand, self._on_smc)
        self.on(AttachAccept, self._on_attach_accept)
        self.on(AttachReject, self._on_reject)
        self.on(AuthenticationReject, self._on_reject)
        self.on(DetachAccept, self._on_detach_accept)
        self.on(DetachRequest, self._on_network_detach)
        self.on(ProtectedNas, self._on_protected)

    def initial_request(self):
        return AttachRequest(imsi=self.imsi)

    # -- EPS-AKA ------------------------------------------------------------------
    def _authenticate(self, request: AuthenticationRequest):
        res, kasme = usim_authenticate(
            self.usim, request.rand, request.autn, self.serving_network)
        self.security = SecurityContext(kasme=kasme)
        return AuthenticationResponse(res=res)

    # -- protected transport ---------------------------------------------------------
    def _on_protected(self, src_ip: str, envelope: ProtectedNas) -> None:
        """Open a post-SMC envelope and dispatch the inner message."""
        if self.security is None:
            return
        try:
            inner = unprotect_nas(self.security, envelope, downlink=True)
        except SecurityError:
            return  # tampered/replayed: drop silently
        handler = self._handlers.get(type(inner))
        if handler is not None:
            handler(src_ip, inner)

    def send_protected(self, nas) -> None:
        """Send an uplink NAS message, protected when keys exist."""
        if self.security is not None:
            nas = protect_nas(self.security, nas, downlink=False)
        self._uplink(nas)

    # -- completion -------------------------------------------------------------------
    def _on_attach_accept(self, src_ip: str, accept: AttachAccept) -> None:
        if self.state == "ATTACHED":
            # Duplicate accept: our AttachComplete was lost — re-send it
            # (freshly protected) without re-firing the completion hook.
            self.send_protected(AttachComplete())
            return
        if self.state != "ATTACHING":
            return  # stale accept from an abandoned attempt
        self._stop()
        self.ue_ip = accept.ue_ip
        self.state = "ATTACHED"
        self.send_protected(AttachComplete())
        self._succeed(ue_ip=accept.ue_ip)

    # -- detach ------------------------------------------------------------------------
    def detach(self) -> None:
        if self.state != "ATTACHED":
            raise RuntimeError(f"detach() in state {self.state}")
        self.state = "DETACHING"
        self.send_protected(DetachRequest())

    def _send_switch_off(self) -> None:
        self.send_protected(DetachRequest(switch_off=True))

    def _on_detach_accept(self, src_ip: str, accept: DetachAccept) -> None:
        if self.state != "DETACHING":
            return
        self._detached()

    def _on_network_detach(self, src_ip: str,
                           request: DetachRequest) -> None:
        """Network-initiated detach (e.g. the SAP authorization expired)."""
        if self.state != "ATTACHED" or src_ip != self.ran_ip:
            return  # not attached, or a stale network we already left
        self.send_protected(DetachAccept())
        self._detached()

    def _detached(self) -> None:
        self.state = "DEREGISTERED"
        self._clear_mm_state()
        if self.on_detached is not None:
            self.on_detached()
