"""5G standalone core substrate: SUCI, 5G-AKA, AMF/SMF/AUSF/UDM, gNB, UE.

The same paper architecture over the 5G control plane: the baseline uses
5G-AKA with home-network control (two visited-home round trips); the
CellBricks variant (:mod:`repro.core.btelco5g`) swaps in SAP.  The gNB is
the unmodified RAN relay (:class:`repro.lte.ENodeB`) — CellBricks touches
no RAN in either generation.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".aka5g": "AuthVector5G derive_kamf derive_kausf derive_kseaf"
              " derive_res_star generate_5g_vector hres_star"
              " usim_authenticate_5g",
    ".identifiers5g": "Guti5G Suci SuciError Supi conceal deconceal"
                      " make_supi",
    ".nf": "Amf Ausf Smf Subscriber5G Udm UeContext5G",
    ".ue5g": "RegistrationResult SessionResult Ue5G",
}, nas5g=(".nas5g", None),
    # the gNB is literally the same relay component, exported under its
    # 5G name to make call sites read naturally.
    Gnb=("repro.lte.enodeb", "ENodeB"))
