"""CellBricks core: the paper's primary contribution.

* :mod:`repro.core.sap` / :mod:`repro.core.messages` — the Secure
  Attachment Protocol (Fig 2/3),
* :mod:`repro.core.broker` — brokerd (SubscriberDB + SAP + billing),
* :mod:`repro.core.btelco_core` — the RAT-free bTelco serving core, with
  :mod:`repro.core.btelco` (LTE AGW) and :mod:`repro.core.btelco5g`
  (5G AMF + UE) as its adapters,
* :mod:`repro.core.ue_agent` — the RAT-free UE half of SAP and the LTE
  CellBricks UE,
* :mod:`repro.core.billing` / :mod:`repro.core.reputation` — verifiable
  billing and the Fig 5 reputation heuristics,
* :mod:`repro.core.qos` — qosCap/qosInfo negotiation,
* :mod:`repro.core.mobility` — host-driven mobility orchestration.
"""

from .billing import (
    BillingError,
    BillingVerifier,
    Invoice,
    Meter,
    REPORTER_BTELCO,
    REPORTER_UE,
    TrafficReport,
    TrafficReportUpload,
    make_upload,
)
from .broker import Brokerd
from .btelco import CellBricksAgw
from .btelco5g import CellBricksAmf, CellBricksUe5G
from .intercept import InterceptRecord, LawfulInterceptFunction
from .messages import (
    AuthReqT,
    AuthReqU,
    AuthRespT,
    AuthRespU,
    AuthVec,
    BrokerAuthRequest,
    BrokerAuthResponse,
    DenialCause,
    MessageError,
    SealedResponse,
    SessionRevocation,
    seal_and_sign,
)
from .mobility import MobilityManager
from .qos import QCI_TABLE, QosCapabilities, QosError, QosInfo, select_qos
from .reputation import MismatchEvent, PartyHistory, ReputationSystem
from .settlement import (
    Payment,
    SettlementEngine,
    SettlementError,
    UsageClaim,
    make_claim,
)
from .sap import (
    AuthorizedSession,
    BrokerSap,
    BrokerSubscriber,
    BtelcoSap,
    BtelcoSapConfig,
    SapError,
    SapGrant,
    UeSap,
    UeSapCredentials,
)
from .ue_agent import CellBricksUe

__all__ = [
    "AuthReqT",
    "AuthReqU",
    "AuthRespT",
    "AuthRespU",
    "AuthVec",
    "AuthorizedSession",
    "BillingError",
    "BillingVerifier",
    "BrokerAuthRequest",
    "BrokerAuthResponse",
    "BrokerSap",
    "BrokerSubscriber",
    "Brokerd",
    "BtelcoSap",
    "BtelcoSapConfig",
    "CellBricksAgw",
    "CellBricksAmf",
    "CellBricksUe",
    "CellBricksUe5G",
    "DenialCause",
    "InterceptRecord",
    "Invoice",
    "LawfulInterceptFunction",
    "MessageError",
    "Meter",
    "MismatchEvent",
    "MobilityManager",
    "PartyHistory",
    "QCI_TABLE",
    "QosCapabilities",
    "QosError",
    "Payment",
    "QosInfo",
    "REPORTER_BTELCO",
    "REPORTER_UE",
    "ReputationSystem",
    "SapError",
    "SapGrant",
    "SealedResponse",
    "SessionRevocation",
    "SettlementEngine",
    "SettlementError",
    "UsageClaim",
    "TrafficReport",
    "TrafficReportUpload",
    "UeSap",
    "UeSapCredentials",
    "make_claim",
    "make_upload",
    "seal_and_sign",
    "select_qos",
]
