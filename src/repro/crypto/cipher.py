"""Authenticated symmetric encryption built from SHA-256.

The environment has no AES implementation available offline, so we build a
CTR-mode stream cipher whose keystream blocks are
``SHA256(key || nonce || counter)``, composed with encrypt-then-MAC
(HMAC-SHA256) for integrity.  This mirrors the role AES-GCM plays in a
production stack: SAP responses, traffic reports, and NAS payloads are
sealed with it.
"""

from __future__ import annotations

import secrets

from .hashes import (
    DIGEST_SIZE,
    constant_time_equal,
    hmac_sha256,
    sha256,
    xor_bytes,
)
from .kdf import hkdf

NONCE_SIZE = 16
TAG_SIZE = DIGEST_SIZE


class IntegrityError(Exception):
    """Raised when an authenticated message fails its integrity check."""


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = bytearray()
    counter = 0
    while len(blocks) < length:
        blocks += sha256(key + nonce + counter.to_bytes(8, "big"))
        counter += 1
    return bytes(blocks[:length])


def _subkeys(key: bytes) -> tuple[bytes, bytes]:
    """Derive independent encryption and MAC keys from one master key."""
    material = hkdf(key, info=b"repro.cipher.subkeys", length=2 * DIGEST_SIZE)
    return material[:DIGEST_SIZE], material[DIGEST_SIZE:]


def seal(key: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """Encrypt and authenticate ``plaintext`` under a fresh random nonce.

    Returns ``nonce || ciphertext || tag``.  ``associated_data`` is
    authenticated but not encrypted (used for message-type binding).
    """
    nonce = secrets.token_bytes(NONCE_SIZE)
    enc_key, mac_key = _subkeys(key)
    stream = _keystream(enc_key, nonce, len(plaintext))
    ciphertext = xor_bytes(plaintext, stream)
    tag = hmac_sha256(mac_key, nonce + associated_data + ciphertext)
    return nonce + ciphertext + tag


def open_sealed(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a message produced by :func:`seal`.

    Raises :class:`IntegrityError` if the tag does not verify.
    """
    if len(sealed) < NONCE_SIZE + TAG_SIZE:
        raise IntegrityError("sealed message too short")
    nonce = sealed[:NONCE_SIZE]
    ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
    tag = sealed[-TAG_SIZE:]
    enc_key, mac_key = _subkeys(key)
    expected = hmac_sha256(mac_key, nonce + associated_data + ciphertext)
    if not constant_time_equal(tag, expected):
        raise IntegrityError("authentication tag mismatch")
    stream = _keystream(enc_key, nonce, len(ciphertext))
    return xor_bytes(ciphertext, stream)
