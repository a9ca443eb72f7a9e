"""Emulated LTE substrate: identifiers, EPS-AKA, NAS, S6a, EPC, UE.

This is the *legacy baseline* architecture (srsLTE + unmodified Magma in
the paper's testbed).  The CellBricks extensions subclass these
components from :mod:`repro.core`, exactly as the prototype layers its
changes onto srsUE and Magma's AGW.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".agw": "Agw UeContext",
    ".aka": "AkaError AuthVector UsimState derive_kasme generate_auth_vector"
            " usim_authenticate",
    ".bearer": "BearerError EpsBearer SgwPgw UsageCounters",
    ".enodeb": "ENodeB S1DownlinkNas S1UeContextRelease S1UplinkNas",
    ".hss": "SubscriberDb SubscriberRecord",
    ".identifiers": "Guti Imsi ImsiGenerator Plmn Tai TEST_PLMN",
    ".security": "SecurityContext SecurityError smc_mac",
    ".signaling": "SIGNALING_PORT SignalingEnvelope SignalingNode",
    ".ue": "AttachResult UeNas",
}, aka=(".aka", None), nas=(".nas", None), s6a=(".s6a", None))
