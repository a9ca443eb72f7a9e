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

from repro import lazy_exports

lazy_exports(globals(), {
    ".billing": "BillingError BillingVerifier Invoice Meter REPORTER_BTELCO"
                " REPORTER_UE TrafficReport TrafficReportUpload make_upload",
    ".broker": "Brokerd",
    ".btelco": "CellBricksAgw",
    ".btelco5g": "CellBricksAmf CellBricksUe5G",
    ".intercept": "InterceptRecord LawfulInterceptFunction",
    ".messages": "AuthReqT AuthReqU AuthRespT AuthRespU AuthVec"
                 " BrokerAuthRequest BrokerAuthResponse DenialCause"
                 " MessageError SealedResponse SessionRevocation"
                 " seal_and_sign",
    ".mobility": "MobilityManager",
    ".qos": "QCI_TABLE QosCapabilities QosError QosInfo select_qos",
    ".reputation": "MismatchEvent PartyHistory ReputationSystem",
    ".settlement": "Payment SettlementEngine SettlementError UsageClaim"
                   " make_claim",
    ".sap": "AuthorizedSession BrokerSap BrokerSubscriber BtelcoSap"
            " BtelcoSapConfig SapError SapGrant UeSap UeSapCredentials",
    ".ue_agent": "CellBricksUe",
})
