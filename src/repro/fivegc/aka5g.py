"""5G-AKA (TS 33.501): the key chain from K to KAMF.

Differences from EPS-AKA that matter here:

* the UDM/ARPF derives **KAUSF** and ``XRES*`` (RES is bound to the
  serving-network name), the AUSF verifies ``RES*`` and derives
  **KSEAF**, the AMF/SEAF derives **KAMF** — one more network hop and key
  level than 4G, which is visible in the registration-latency benchmark;
* home-network control: the AUSF (home side) confirms authentication,
  not the visited AMF.

The MILENAGE-style functions are shared with :mod:`repro.lte.aka`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto import hmac_sha256, kdf_3gpp
from repro.lte.aka import AMF as AMF_FIELD
from repro.lte.aka import (
    KEY_SIZE,
    MAC_SIZE,
    RAND_SIZE,
    SQN_SIZE,
    AkaError,
    UsimState,
    f1,
    f2,
    f3,
    f4,
    f5,
    _xor,
)

FC_KAUSF = 0x6A
FC_KSEAF = 0x6C
FC_KAMF = 0x6D
FC_RES_STAR = 0x6B

RES_STAR_SIZE = 16


def derive_res_star(ck: bytes, ik: bytes, serving_network: str,
                    rand: bytes, res: bytes) -> bytes:
    """RES* / XRES*: the SN-name-bound response (TS 33.501 A.4)."""
    return kdf_3gpp(ck + ik, FC_RES_STAR, serving_network.encode(),
                    rand, res)[:RES_STAR_SIZE]


def derive_kausf(ck: bytes, ik: bytes, serving_network: str,
                 sqn_xor_ak: bytes) -> bytes:
    """KAUSF from CK||IK (TS 33.501 A.2)."""
    return kdf_3gpp(ck + ik, FC_KAUSF, serving_network.encode(), sqn_xor_ak)


def derive_kseaf(kausf: bytes, serving_network: str) -> bytes:
    """KSEAF from KAUSF (TS 33.501 A.6)."""
    return kdf_3gpp(kausf, FC_KSEAF, serving_network.encode())


def derive_kamf(kseaf: bytes, supi: str) -> bytes:
    """KAMF from KSEAF, bound to the SUPI (TS 33.501 A.7)."""
    return kdf_3gpp(kseaf, FC_KAMF, supi.encode())


@dataclass(frozen=True)
class AuthVector5G:
    """The home-network vector (UDM -> AUSF): RAND, AUTN, XRES*, KAUSF."""

    rand: bytes
    autn: bytes
    xres_star: bytes
    kausf: bytes


def generate_5g_vector(k: bytes, sqn: int,
                       serving_network: str) -> AuthVector5G:
    """UDM/ARPF side, under a fresh random RAND."""
    if len(k) != KEY_SIZE:
        raise ValueError(f"K must be {KEY_SIZE} bytes")
    rand = secrets.token_bytes(RAND_SIZE)
    sqn_bytes = sqn.to_bytes(SQN_SIZE, "big")
    mac_a = f1(k, rand, sqn_bytes, AMF_FIELD)
    res = f2(k, rand)
    ck, ik = f3(k, rand), f4(k, rand)
    ak = f5(k, rand)
    sqn_xor_ak = _xor(sqn_bytes, ak)
    autn = sqn_xor_ak + AMF_FIELD + mac_a
    xres_star = derive_res_star(ck, ik, serving_network, rand, res)
    kausf = derive_kausf(ck, ik, serving_network, sqn_xor_ak)
    return AuthVector5G(rand=rand, autn=autn, xres_star=xres_star,
                        kausf=kausf)


def usim_authenticate_5g(usim: UsimState, rand: bytes, autn: bytes,
                         serving_network: str) -> tuple:
    """UE side: verify AUTN, return (RES*, KAUSF).

    Raises :class:`AkaError` on MAC/SQN failure, as in 4G.
    """
    if len(autn) != SQN_SIZE + len(AMF_FIELD) + MAC_SIZE:
        raise AkaError("malformed AUTN")
    sqn_xor_ak = autn[:SQN_SIZE]
    amf = autn[SQN_SIZE:SQN_SIZE + len(AMF_FIELD)]
    mac_a = autn[SQN_SIZE + len(AMF_FIELD):]
    ak = f5(usim.k, rand)
    sqn_bytes = _xor(sqn_xor_ak, ak)
    if f1(usim.k, rand, sqn_bytes, amf) != mac_a:
        raise AkaError("AUTN MAC check failed: network not authentic")
    sqn = int.from_bytes(sqn_bytes, "big")
    if not usim.highest_sqn < sqn <= usim.highest_sqn + usim.sqn_window:
        raise AkaError(f"SQN {sqn} outside acceptance window")
    usim.highest_sqn = sqn
    res = f2(usim.k, rand)
    ck, ik = f3(usim.k, rand), f4(usim.k, rand)
    res_star = derive_res_star(ck, ik, serving_network, rand, res)
    kausf = derive_kausf(ck, ik, serving_network, sqn_xor_ak)
    return res_star, kausf


def hres_star(res_star: bytes, rand: bytes) -> bytes:
    """HRES*: what the SEAF compares locally (TS 33.501 A.5)."""
    return hmac_sha256(b"hres*", rand + res_star)[:16]
