"""5G identifiers: SUPI, SUCI concealment, 5G-GUTI.

5G already conceals the permanent subscriber identifier from the *radio
path* (SUCI: the SUPI encrypted to the home network's public key) — the
same defense SAP's encrypted authVec provides against IMSI catching, with
the same asymmetric-crypto mechanism.  CellBricks extends the idea one
step: the *serving network operator* never learns the identity either.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import CryptoError, PrivateKey, PublicKey

from repro.lte.identifiers import Plmn, TEST_PLMN


@dataclass(frozen=True)
class Supi:
    """Subscription Permanent Identifier (IMSI-based form)."""

    plmn: Plmn
    msin: str

    def __post_init__(self):
        if not (self.msin.isdigit() and 9 <= len(self.msin) <= 10):
            raise ValueError(f"MSIN must be 9-10 digits, got {self.msin!r}")

    def __str__(self) -> str:
        return f"imsi-{self.plmn}{self.msin}"


@dataclass(frozen=True)
class Suci:
    """Subscription Concealed Identifier.

    The MSIN is encrypted to the home network's public key (the standard
    uses ECIES; we use the crypto substrate's hybrid RSA with identical
    semantics).  The routing prefix (PLMN) stays cleartext so the serving
    network can reach the right home network.
    """

    plmn: Plmn
    concealed_msin: bytes
    scheme_id: int = 1

    def __str__(self) -> str:
        return (f"suci-{self.plmn}-{self.scheme_id}-"
                f"{self.concealed_msin[:8].hex()}...")


class SuciError(Exception):
    """Raised when deconcealment fails."""


def conceal(supi: Supi, home_network_key: PublicKey) -> Suci:
    """UE side: build the SUCI for a registration request."""
    concealed = home_network_key.encrypt(supi.msin.encode(),
                                         associated_data=str(supi.plmn).encode())
    return Suci(plmn=supi.plmn, concealed_msin=concealed)


def deconceal(suci: Suci, home_network_key: PrivateKey) -> Supi:
    """UDM side: recover the SUPI."""
    try:
        msin = home_network_key.decrypt(
            suci.concealed_msin,
            associated_data=str(suci.plmn).encode()).decode()
    except (CryptoError, UnicodeDecodeError) as exc:
        raise SuciError(f"SUCI deconcealment failed: {exc}") from exc
    return Supi(plmn=suci.plmn, msin=msin)


@dataclass(frozen=True)
class Guti5G:
    """5G-GUTI assigned after registration."""

    plmn: Plmn
    amf_region: int
    amf_set: int
    tmsi: int

    def __str__(self) -> str:
        return (f"5g-guti-{self.plmn}-{self.amf_region:02x}"
                f"{self.amf_set:03x}-{self.tmsi:08x}")


def make_supi(msin_index: int) -> Supi:
    """A test SUPI from a small integer index."""
    return Supi(TEST_PLMN, f"{msin_index:09d}")
