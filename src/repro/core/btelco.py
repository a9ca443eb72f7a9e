"""The LTE bTelco: a CellBricks-enabled access gateway.

:class:`CellBricksAgw` layers the RAT-free
:class:`~repro.core.btelco_core.SapServingCore` onto the baseline
:class:`repro.lte.Agw` exactly the way the prototype extends Magma's AGW
(§5): new NAS messages and handlers for SAP, while the SMC /
session-establishment machinery is inherited unmodified.  This module
holds only what is LTE's own — the EPS NAS dialect, the S6a-shaped
subscription profile, the PGW-fed billing meters and lawful intercept.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.lte import s6a
from repro.lte.agw import BASELINE_COSTS, Agw, UeContext
from repro.lte.nas import (
    DetachRequest,
    SapAttachChallenge,
    SapAttachReject,
    SapAttachRequest,
    SapScopedAttachRequest,
)
from repro.lte.serving_base import Leg
from repro.lte.signaling import CounterAttr
from repro.net import Host

from .billing import Meter, REPORTER_BTELCO
from .btelco_core import SAP_MESSAGE_LEGS, SapServingCore, sap_nas_legs
from .intercept import LawfulInterceptFunction
from .messages import ReportAck
from .qos import QosCapabilities
from .sap import AuthorizedSession

# CellBricks AGW processing costs (seconds).  The deltas vs the baseline
# table come from SAP's crypto (sign authReqT; verify + decrypt authRespT)
# replacing vector handling + the ULR leg; the sums reproduce Fig 7's
# "AGW + Brokerd" bars.
CELLBRICKS_COSTS = {
    "sap_attach_request": 0.0053,
    "broker_auth_response": 0.0055,
    "smc_complete": 0.0046,     # includes immediate session establishment
    "attach_complete": 0.0015,
    # Scoped re-attach (§4.2): verify the broker signature on the token,
    # decrypt our ess entry, check one MAC — no authReqT signing and no
    # broker round-trip on the critical path.
    "scoped_attach_request": 0.0018,
}


class CellBricksAgw(SapServingCore, Agw):
    """A bTelco site: AGW with SAP in place of EPS-AKA + S6a."""

    sap_challenge = SapAttachChallenge
    cost_table = {**BASELINE_COSTS, **CELLBRICKS_COSTS}
    nas_legs = {**Agw.nas_legs,
                **sap_nas_legs(SapAttachRequest, SapScopedAttachRequest,
                               "sap_attach_request",
                               "scoped_attach_request")}
    message_legs = {**Agw.message_legs, **SAP_MESSAGE_LEGS,
                    ReportAck: Leg("_handle_report_ack",
                                   "billing.report_ack")}

    reports_retried = CounterAttr("btelco.reports_retried")
    reports_lost = CounterAttr("btelco.reports_lost")
    reports_acked = CounterAttr("btelco.reports_acked")

    def __init__(self, host: Host, broker_ip: str, id_t: str,
                 key: PrivateKey, certificate: Certificate,
                 ca_public_key: PublicKey,
                 qos_capabilities: Optional[QosCapabilities] = None,
                 name: str = "btelco-agw",
                 ue_pool_prefix: str = "10.128.0"):
        # No SubscriberDB: the broker replaces it (hence the empty ip).
        super().__init__(host, broker_ip=broker_ip, id_t=id_t, key=key,
                         certificate=certificate,
                         ca_public_key=ca_public_key,
                         qos_capabilities=qos_capabilities,
                         subscriber_db_ip="0.0.0.0", name=name,
                         ue_pool_prefix=ue_pool_prefix)
        self.meters: dict[str, Meter] = {}
        self.li = LawfulInterceptFunction(operator=id_t)
        self.reports_retried = 0
        self.reports_lost = 0
        self.reports_acked = 0

    # -- serving-core hooks -------------------------------------------------------
    def reject_sap(self, context: UeContext, cause: str,
                   retryable: bool = False) -> None:
        # EPS keeps the rejected context: the UE's next attempt arrives
        # on the same S1 association and reuses it.
        self.attaches_rejected += 1
        context.state = "REJECTED"
        self.downlink(context, SapAttachReject(cause=cause,
                                               retryable=retryable))

    def _install_identity(self, context: UeContext,
                          session: AuthorizedSession) -> None:
        context.subscriber_id = session.id_u_opaque
        context.subscription = s6a.SubscriptionData(
            qci=session.qos_info.qci,
            ambr_dl_bps=session.qos_info.ambr_dl_bps,
            ambr_ul_bps=session.qos_info.ambr_ul_bps)

    def _forget_session(self, session_id: str) -> None:
        self.li.deactivate(session_id, self.sim.now)
        self.meters.pop(session_id, None)
        super()._forget_session(session_id)

    def after_security_established(self, context: UeContext) -> None:
        """No ULR: straight to session establishment (the Fig 7 win)."""
        self.establish_session(context)
        self._enforce_grant_lifetime(context)

    def _teardown_session(self, context: UeContext, session_id: str) -> None:
        """Network-initiated detach: release the session's every resource."""
        self.downlink_protected(context, DetachRequest())
        context.state = "DETACHED"
        self._release_ue(context)

    def _on_attach_complete(self, context: UeContext, complete) -> None:
        super()._on_attach_complete(context, complete)
        session = context.sap_session
        if session is None or context.state != "ATTACHED" \
                or self._refuse_if_revoked(context):
            return
        broker_key = self.broker_public_keys.get(context.broker_id)
        if broker_key is not None:
            self.meters[session.session_id] = Meter(
                session_id=session.session_id,
                reporter=REPORTER_BTELCO, key=self.key,
                broker_public_key=broker_key,
                session_started_at=self.sim.now)
        if session.lawful_intercept:
            # The broker mandated interception for this session; we
            # advertised the capability, so activate it now.
            self.li.activate(session.session_id, self.sim.now,
                             session.id_u_opaque)

    # -- billing ------------------------------------------------------------------------
    def upload_reports(self) -> int:
        """Emit one traffic report per active session to the broker.

        Uploads ride the reliable-request facility: a lost report would
        leave its (session, seq) pair unmatched at the broker and skew
        the §4.3 discrepancy check toward false accusations, so they are
        retransmitted until the broker's :class:`ReportAck` arrives.
        """
        sent = 0
        for session_id, meter in self.meters.items():
            bearer = self.spgw.bearer_for(
                self.sessions[session_id].id_u_opaque)
            if bearer is not None:
                # Sync the meter with the PGW usage counters.
                meter.dl_bytes = bearer.usage.dl_bytes
                meter.ul_bytes = bearer.usage.ul_bytes
                bearer.usage.dl_bytes = 0
                bearer.usage.ul_bytes = 0
            self.li.record_usage(session_id, self.sim.now,
                                 meter.dl_bytes, meter.ul_bytes)
            upload = meter.emit(self.sim.now)
            destination = self.broker_endpoint(
                self.session_brokers.get(session_id, ""))
            # Per-report retry tally: if the report is eventually lost,
            # its retries are rolled back from ``reports_retried`` so the
            # counter means "retries that preceded a delivery" and never
            # drifts when a retried report fails anyway.
            tally = [0]
            self.send_request(
                destination, upload, size=upload.wire_size,
                on_give_up=lambda _msg, t=tally: self._report_gave_up(t),
                on_retransmit=lambda _msg, _n, t=tally:
                    self._note_report_retry(t))
            sent += 1
        return sent

    def _note_report_retry(self, tally: list) -> None:
        tally[0] += 1
        self.reports_retried += 1

    def _report_gave_up(self, tally: list) -> None:
        self.reports_retried -= tally[0]
        self.reports_lost += 1

    def _handle_report_ack(self, src_ip: str, ack: ReportAck) -> None:
        self.reports_acked += 1

    # -- introspection ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot: attach/session lifecycle + reliability."""
        stats = {
            "attaches_completed": self.attaches_completed,
            "attaches_rejected": self.attaches_rejected,
            "sessions_active": len(self.sessions),
            "meters_active": len(self.meters),
            "contexts_active": len(self.contexts),
            **self._grant_stats(),
            "accept_retransmissions": self.accept_retransmissions,
            "accept_give_ups": self.accept_give_ups,
            "reports_retried": self.reports_retried,
            "reports_lost": self.reports_lost,
            "reports_acked": self.reports_acked,
            **self._scope_stats(),
        }
        stats.update(self.reliable_stats())
        return stats
