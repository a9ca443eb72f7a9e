"""Hash helpers shared by the crypto substrate.

Everything in ``repro.crypto`` is built from the Python standard library
(``hashlib``, ``hmac``, ``secrets``) because the reproduction environment is
offline.  The primitives are functional and tested but *educational-grade*:
they demonstrate the protocol semantics CellBricks needs (sign, verify,
encrypt, key derivation) without claiming production hardening.
"""

from __future__ import annotations

import hashlib
import hmac

DIGEST_SIZE = 32  # SHA-256


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as lowercase hex."""
    return hashlib.sha256(data).hexdigest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return HMAC-SHA256 of ``data`` under ``key``."""
    return hmac.new(key, data, hashlib.sha256).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking the position of a mismatch."""
    return hmac.compare_digest(a, b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (one big-integer operation
    instead of a Python-level loop over the bytes)."""
    if len(a) != len(b):
        raise ValueError("xor_bytes needs operands of equal length")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function (RFC 8017 §B.2.1) over SHA-256."""
    if length < 0:
        raise ValueError("mask length must be non-negative")
    output = bytearray()
    counter = 0
    while len(output) < length:
        output += sha256(seed + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(output[:length])


def digest_fingerprint(data: bytes) -> str:
    """Short hex fingerprint (16 bytes) used for identifiers (e.g. key
    digests).

    CellBricks identifies a UE to its broker by "the digest of the owner's
    public key" (§4.1); this helper produces those identifiers.
    """
    return sha256_hex(data)[:32]
