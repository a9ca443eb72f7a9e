"""Emulated LTE substrate: identifiers, EPS-AKA, NAS, S6a, EPC, UE.

This is the *legacy baseline* architecture (srsLTE + unmodified Magma in
the paper's testbed).  The CellBricks extensions subclass these
components from :mod:`repro.core`, exactly as the prototype layers its
changes onto srsUE and Magma's AGW.
"""

from . import aka, nas, s6a
from .agw import Agw, UeContext
from .aka import (
    AkaError,
    AuthVector,
    UsimState,
    derive_kasme,
    generate_auth_vector,
    usim_authenticate,
)
from .bearer import BearerError, EpsBearer, SgwPgw, UsageCounters
from .enodeb import ENodeB, S1DownlinkNas, S1UeContextRelease, S1UplinkNas
from .hss import SubscriberDb, SubscriberRecord
from .identifiers import Guti, Imsi, ImsiGenerator, Plmn, Tai, TEST_PLMN
from .security import SecurityContext, SecurityError, smc_mac
from .signaling import SIGNALING_PORT, SignalingEnvelope, SignalingNode
from .ue import AttachResult, UeNas

__all__ = [
    "Agw",
    "AkaError",
    "AttachResult",
    "AuthVector",
    "BearerError",
    "ENodeB",
    "EpsBearer",
    "Guti",
    "Imsi",
    "ImsiGenerator",
    "Plmn",
    "S1DownlinkNas",
    "S1UeContextRelease",
    "S1UplinkNas",
    "SIGNALING_PORT",
    "SecurityContext",
    "SecurityError",
    "SgwPgw",
    "SignalingEnvelope",
    "SignalingNode",
    "SubscriberDb",
    "SubscriberRecord",
    "Tai",
    "TEST_PLMN",
    "UeContext",
    "UeNas",
    "UsageCounters",
    "UsimState",
    "aka",
    "derive_kasme",
    "generate_auth_vector",
    "nas",
    "s6a",
    "smc_mac",
    "usim_authenticate",
]
