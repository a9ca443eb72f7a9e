"""The serving-node half of the NAS substrate, under the AGW and the AMF.

What an MME and an AMF do *around* authentication is the same: relay NAS
through the base station, keep one context per RAN association, run the
Security Mode Control exchange, supervise the accept (the one downlink
whose loss the UE cannot detect by itself), and garbage-collect attempts
whose UE went silent.  :class:`ServingNodeBase` is that part;
:class:`repro.lte.agw.Agw` and :class:`repro.fivegc.nf.Amf` supply, as
class data, the tables that name their messages — uplink NAS type →
:class:`Leg` (handler, span name, cost key) in ``nas_legs``, every other
message type likewise in ``message_legs`` — plus their state names, and
keep only the legs the generations really do differently (S6a AIR/ULR and
the S/PGW bearer; AUSF/UDM, HRES*, the SMF and the PDU session).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.net import Host

from .enodeb import S1DownlinkNas, S1UeContextRelease, S1UplinkNas
from .identifiers import Plmn, TEST_PLMN
from .nas import NasMessage, message_size
from .security import SecurityContext, smc_mac
from .signaling import SignalingNode


class Leg(NamedTuple):
    """One row of a serving node's message table."""

    #: method name; called as ``handler(context, nas)`` for an uplink NAS
    #: type and ``handler(src_ip, message)`` for any other message.
    handler: str
    #: span name (default: ``nas.<span_prefix>_<Type>`` for NAS, the
    #: signaling layer's ``handle.<Type>`` otherwise).
    span: Optional[str] = None
    #: key into ``self.costs`` (default: ``default_processing_cost``).
    cost: Optional[str] = None


@dataclass
class ServingContext:
    """Per-UE state every serving node keeps, under one set of names."""

    ran_ue_id: int
    ran_ip: str
    state: str = "INITIAL"
    security: Optional[SecurityContext] = None
    #: when the attempt in progress started (the deadline GC's clock).
    attempt_started_at: float = 0.0
    accept_retx: int = 0                   # accept retransmissions so far
    sap_session: object = None  # CellBricks: the broker-authorized session
    broker_id: str = ""         # CellBricks: which broker authorized us
    # -- retransmission bookkeeping --
    sap_request_key: Optional[bytes] = None  # dedup key for SAP attaches
    sap_challenge: object = None      # cached challenge for leg replay
    broker_token: Optional[int] = None     # outstanding broker reply token
    broker_corr_id: int = 0                # reliable-request correlation id


class ServingNodeBase(SignalingNode):
    """Context table, NAS dispatch, SMC, accept supervision and
    attempt-deadline GC for one serving node."""

    # Accept retransmission supervision: the accept is the one downlink
    # whose loss the UE cannot detect by itself mid-attach (it has
    # already stopped resending SMC complete once the accept leaves).
    accept_retx_timeout = 0.4
    accept_retx_backoff = 2.0
    accept_max_retx = 3
    #: hard ceiling on how long a context may sit mid-attach; a UE that
    #: went silent (or a straggler uplink that recreated state after the
    #: UE gave up) is garbage-collected once this deadline passes.
    attempt_ttl = 30.0
    obs_category = "agw"
    # -- supplied by each RAT (and extended by its CellBricks adapter) --
    nas_legs: dict = {}
    message_legs: dict = {}
    #: handler processing costs (seconds) behind the ``Leg.cost`` keys.
    cost_table: dict = {}
    span_prefix: str
    context_class: type
    smc_command: type
    #: the state in which the accept awaits its complete.
    accept_wait_state: str
    #: context states in which service is being rendered.
    live_states: tuple
    #: uplink NAS types that may open a fresh UE context; anything else
    #: arriving without one is a straggler from a torn-down UE.
    initiating_nas: tuple
    #: stragglers that are expected (acks of a network-initiated
    #: release), so not counted in ``orphan_uplinks``.
    late_ack_nas: tuple = ()

    def __init__(self, host: Host, name: str, plmn: Plmn = TEST_PLMN):
        super().__init__(host, name)
        self.plmn = plmn
        self.contexts: dict[int, ServingContext] = {}  # ran_ue_id -> context
        self.accept_retransmissions = 0
        self.accept_give_ups = 0
        self.costs = dict(self.cost_table)
        self.on(S1UplinkNas, self._handle_uplink)
        for message_type, leg in self.message_legs.items():
            self.on(message_type, getattr(self, leg.handler))

    # -- tracing + cost model: both read the tables -----------------------------
    def _leg_for(self, message: object) -> Optional[Leg]:
        if isinstance(message, S1UplinkNas):
            return self.nas_legs.get(type(message.nas))
        return self.message_legs.get(type(message))

    def span_name(self, message: object) -> str:
        leg = self._leg_for(message)
        if leg is not None and leg.span is not None:
            return leg.span
        if isinstance(message, S1UplinkNas):
            return f"nas.{self.span_prefix}_{type(message.nas).__name__}"
        return super().span_name(message)

    def processing_cost(self, message: object) -> float:
        leg = self._leg_for(message)
        if leg is None or leg.cost is None:
            return self.default_processing_cost
        return self.costs[leg.cost]

    # -- RAN plumbing -----------------------------------------------------------
    def _handle_uplink(self, ran_ip: str, wrapped: S1UplinkNas) -> None:
        nas = wrapped.nas
        context = self.contexts.get(wrapped.enb_ue_id)
        if context is None:
            if not isinstance(nas, self.initiating_nas):
                # Dropped instead of resurrecting half-open state.
                if not isinstance(nas, self.late_ack_nas):
                    self.orphan_uplinks += 1
                return
            context = self.context_class(ran_ue_id=wrapped.enb_ue_id,
                                         ran_ip=ran_ip,
                                         attempt_started_at=self.sim.now)
            self.contexts[wrapped.enb_ue_id] = context
        self._dispatch_nas(context, nas)

    def _dispatch_nas(self, context: ServingContext,
                      nas: NasMessage) -> None:
        leg = self.nas_legs.get(type(nas))
        if leg is not None:
            getattr(self, leg.handler)(context, nas)

    def downlink(self, context: ServingContext, nas: NasMessage) -> None:
        self.send(context.ran_ip,
                  S1DownlinkNas(enb_ue_id=context.ran_ue_id, nas=nas),
                  size=message_size(nas) + 24)

    def reject(self, context: ServingContext, cause: str,
               retryable: bool = False) -> None:
        """Refuse the attempt in the RAT's dialect."""
        raise NotImplementedError

    # -- SMC ------------------------------------------------------------------------
    def send_smc(self, context: ServingContext) -> None:
        security = context.security
        mac = smc_mac(security.k_nas_int, security.enc_alg, security.int_alg)
        self.downlink(context, self.smc_command(
            enc_alg=security.enc_alg, int_alg=security.int_alg, mac=mac))

    def _on_smc_complete(self, context: ServingContext, complete) -> None:
        if context.state == self.accept_wait_state \
                and context.security is not None:
            # Duplicate SMC complete: the UE never saw our accept —
            # re-send it after re-verifying the MAC.
            expected = smc_mac(context.security.k_nas_int, 0xFF, 0xFF)
            if complete.mac == expected:
                self._send_accept(context)
            return
        if context.state != "WAIT_SMC_COMPLETE":
            return
        expected = smc_mac(context.security.k_nas_int, 0xFF, 0xFF)
        if complete.mac != expected:
            self.reject(context, "SMC integrity failure")
            return
        self.after_security_established(context)

    def after_security_established(self, context: ServingContext) -> None:
        """What the RAT does between SMC and the accept."""
        raise NotImplementedError

    # -- accept supervision ---------------------------------------------------------
    def _send_accept(self, context: ServingContext) -> None:
        """Send (or re-send) the RAT's accept message."""
        raise NotImplementedError

    def _send_supervised_accept(self, context: ServingContext) -> None:
        context.state = self.accept_wait_state
        context.accept_retx = 0
        self._send_accept(context)
        self.sim.schedule(self.accept_retx_timeout, self._check_accept,
                          context, self.accept_retx_timeout)

    def _check_accept(self, context: ServingContext,
                      timeout: float) -> None:
        """Resend the accept until its complete arrives, then give up and
        release everything the half-open attach holds."""
        if self.contexts.get(context.ran_ue_id) is not context \
                or context.state != self.accept_wait_state:
            return  # completed, torn down, or superseded — nothing to do
        if context.accept_retx >= self.accept_max_retx:
            self.accept_give_ups += 1
            self._abandon_attach(context, "accept unacknowledged")
            return
        context.accept_retx += 1
        self.accept_retransmissions += 1
        self._send_accept(context)
        next_timeout = timeout * self.accept_retx_backoff
        self.sim.schedule(next_timeout, self._check_accept, context,
                          next_timeout)

    # -- attempt deadline -----------------------------------------------------------
    def _arm_deadline(self, context: ServingContext) -> None:
        """Arm the deadline GC for the attempt that just started."""
        self.sim.schedule(self.attempt_ttl, self._attempt_deadline,
                          context, context.attempt_started_at)

    def _attempt_deadline(self, context: ServingContext,
                          started_at: float) -> None:
        if self.contexts.get(context.ran_ue_id) is not context \
                or context.attempt_started_at != started_at:
            return  # superseded by a newer attempt or already released
        if context.state in self.live_states:
            return
        self.attempts_expired += 1
        self._abandon_attach(context, "registration deadline")

    def _abandon_attach(self, context: ServingContext, cause: str) -> None:
        """Terminal path for a half-open attach whose UE went silent."""
        context.state = "ABANDONED"
        self._release_ue(context)

    # -- terminal cleanup -----------------------------------------------------------
    def _release_ue(self, context: ServingContext) -> None:
        """Shared by every path that ends a context (abandon, detach,
        network-initiated teardown, a releasing reject): the RAT's own
        resources, the context and the RAN association all go, so
        nothing leaks."""
        self._free_resources(context)
        self.contexts.pop(context.ran_ue_id, None)
        self.send(context.ran_ip,
                  S1UeContextRelease(enb_ue_id=context.ran_ue_id), size=32)
        self.context_released(context)

    def _free_resources(self, context: ServingContext) -> None:
        """Release what the RAT holds for the context (bearer, SBI
        exchanges, PDU session, its own index maps)."""
        raise NotImplementedError

    def context_released(self, context: ServingContext) -> None:
        """Hook: a context left ``self.contexts`` (the CellBricks core
        drops its per-session state here)."""
