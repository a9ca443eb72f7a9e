"""NAS/AS security contexts (TS 33.401 key hierarchy).

Both architectures end up here: EPS-AKA produces KASME from the shared
secret; SAP produces it from the broker-issued shared secret ``ss``
("the shared secret ss is used as the master key (KASME)" — §4.1).  From
KASME the NAS encryption/integrity keys and KeNB are derived, and the
security-mode-control (SMC) exchange activates them.  CellBricks reuses
all of this unmodified, which is why only the *source* of KASME differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import IntegrityError, hmac_sha256, kdf_3gpp, open_sealed, seal

# TS 33.401 Annex A function codes.
FC_KENB = 0x11
FC_NAS_ALG = 0x15

# Algorithm-type distinguishers (Annex A.7).
ALG_NAS_ENC = b"\x01"
ALG_NAS_INT = b"\x02"

# Algorithm identities; EEA2/EIA2 are the AES-based standard algorithms —
# ours are the HMAC/stream-cipher stand-ins with the same interface.
EEA2 = 2
EIA2 = 2

NAS_MAC_SIZE = 4


class SecurityError(Exception):
    """Raised when a NAS integrity check fails."""


def smc_mac(k_nas_int: bytes, enc_alg: int, int_alg: int) -> bytes:
    """Integrity tag for the Security Mode Command/Complete exchange."""
    return hmac_sha256(k_nas_int, bytes([enc_alg, int_alg]))[:NAS_MAC_SIZE]


@dataclass
class SecurityContext:
    """An EPS security context: KASME-derived NAS keys and counters."""

    kasme: bytes
    enc_alg: int = EEA2
    int_alg: int = EIA2
    ul_count: int = 0
    dl_count: int = 0
    # Receive-side anti-replay: the next acceptable peer count.
    peer_ul_count: int = 0
    peer_dl_count: int = 0
    k_nas_enc: bytes = field(init=False)
    k_nas_int: bytes = field(init=False)

    def __post_init__(self):
        self.k_nas_enc = kdf_3gpp(self.kasme, FC_NAS_ALG, ALG_NAS_ENC,
                                  bytes([self.enc_alg]))
        self.k_nas_int = kdf_3gpp(self.kasme, FC_NAS_ALG, ALG_NAS_INT,
                                  bytes([self.int_alg]))

    def derive_kenb(self) -> bytes:
        """KeNB for AS (radio) security, bound to the uplink NAS count."""
        return kdf_3gpp(self.kasme, FC_KENB,
                        self.ul_count.to_bytes(4, "big"))

    # -- NAS message protection -------------------------------------------
    def protect_uplink(self, plaintext: bytes) -> bytes:
        """Encrypt + integrity-protect an uplink NAS payload."""
        count = self.ul_count
        self.ul_count += 1
        return self._protect(plaintext, count, direction=b"\x00")

    def protect_downlink(self, plaintext: bytes) -> bytes:
        count = self.dl_count
        self.dl_count += 1
        return self._protect(plaintext, count, direction=b"\x01")

    def _protect(self, plaintext: bytes, count: int, direction: bytes) -> bytes:
        header = count.to_bytes(4, "big") + direction
        sealed = seal(self.k_nas_enc, plaintext, associated_data=header)
        mac = hmac_sha256(self.k_nas_int, header + sealed)[:NAS_MAC_SIZE]
        return header + mac + sealed

    def unprotect(self, protected: bytes, expect_direction: bytes) -> bytes:
        """Verify and decrypt a protected NAS payload."""
        if len(protected) < 5 + NAS_MAC_SIZE:
            raise SecurityError("protected NAS payload too short")
        header = protected[:5]
        if header[4:5] != expect_direction:
            raise SecurityError("NAS direction mismatch")
        mac = protected[5:5 + NAS_MAC_SIZE]
        sealed = protected[5 + NAS_MAC_SIZE:]
        expected = hmac_sha256(self.k_nas_int, header + sealed)[:NAS_MAC_SIZE]
        if mac != expected:
            raise SecurityError("NAS MAC verification failed")
        # Anti-replay: the peer's count must not run backwards.
        count = int.from_bytes(header[:4], "big")
        if expect_direction == b"\x00":
            if count < self.peer_ul_count:
                raise SecurityError(f"replayed NAS count {count}")
            self.peer_ul_count = count + 1
        else:
            if count < self.peer_dl_count:
                raise SecurityError(f"replayed NAS count {count}")
            self.peer_dl_count = count + 1
        try:
            return open_sealed(self.k_nas_enc, sealed, associated_data=header)
        except IntegrityError as exc:
            raise SecurityError(str(exc)) from exc

    def unprotect_uplink(self, protected: bytes) -> bytes:
        return self.unprotect(protected, b"\x00")

    def unprotect_downlink(self, protected: bytes) -> bytes:
        return self.unprotect(protected, b"\x01")
