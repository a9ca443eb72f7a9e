"""RSA public-key primitives: keygen, PSS-style signatures, OAEP + hybrid
encryption.

SAP (§4.1 of the paper) "moves away from shared secrets and instead relies
on public-private key cryptography".  This module supplies those operations
from the standard library alone — padding, CRT, key generation and every
check are ours; only the modular power itself goes through
:func:`repro.crypto.modexp.modexp`:

* :func:`generate_keypair` — Miller–Rabin based RSA key generation,
* :meth:`PrivateKey.sign` / :meth:`PublicKey.verify` — RSASSA-PSS-style
  randomized signatures over SHA-256,
* :meth:`PublicKey.encrypt` / :meth:`PrivateKey.decrypt` — hybrid
  encryption (RSA-OAEP wraps a fresh symmetric key; the body is sealed with
  the authenticated stream cipher), so arbitrarily long SAP messages fit.
"""

from __future__ import annotations

import math
import random
import secrets
from collections import OrderedDict
from dataclasses import dataclass

from . import cipher
from .hashes import (
    DIGEST_SIZE,
    constant_time_equal,
    digest_fingerprint,
    mgf1,
    sha256,
    xor_bytes,
)
from .modexp import modexp
from .primes import generate_prime

DEFAULT_KEY_BITS = 1024  # educational-grade default; tests stay fast

_PSS_SALT_SIZE = 16

# -- verify-result memoization ----------------------------------------------
# PSS verification is deterministic in (key, message, signature), so the
# boolean outcome can be memoized: the broker hot path re-verifies the
# same certificate signature for every request a bTelco relays, and
# retransmitted SAP requests re-verify identical (message, signature)
# pairs.  Keyed by ((n, e), sha256(message), signature) — the message is
# hashed so arbitrarily long inputs stay cheap to key — with LRU
# eviction.  Purely a wall-clock optimization: results are bit-identical
# with or without the cache.
#
# The cap is sized by measurement.  Deepest LRU position a hit was found
# at, cap lifted: 162 entries on ``broker-ha`` (smoke and default size
# alike), 83 on ``broker-scale`` at its default 64 attaches over 16
# sites, 70 on a 200-UE megaload cohort, 67 on ``fleet-drive``, 10 on
# ``chaos --attaches 1000``; every ledger workload within 30.  512 is 3x
# the deepest of those and loses none of their hits.  Depth is set by
# the burst, not the run length: a bTelco's certificate is re-verified
# about five entries per site later, so ``broker-scale --concurrency
# 256 --sites 64`` reads 323, and a single burst over more than ~100
# sites would start missing certificate hits (wall clock only; bytes
# cannot move).  The cap fills within four ``attach_storm`` reps
# (~0.4 KB an entry), after which peak RSS is no longer a function of
# how long the process has lived.
_VERIFY_CACHE: OrderedDict[tuple, bool] = OrderedDict()
_VERIFY_CACHE_MAX = 512
_verify_cache_hits = 0
_verify_cache_misses = 0


def verify_cache_stats() -> dict:
    """Hit/miss counters for the process-wide verify cache."""
    return {"hits": _verify_cache_hits, "misses": _verify_cache_misses,
            "size": len(_VERIFY_CACHE), "max_size": _VERIFY_CACHE_MAX}


def clear_verify_cache() -> None:
    """Empty the verify cache and reset its hit/miss counters."""
    global _verify_cache_hits, _verify_cache_misses
    _VERIFY_CACHE.clear()
    _verify_cache_hits = 0
    _verify_cache_misses = 0


class CryptoError(Exception):
    """Raised for malformed ciphertexts, bad signatures requested as data, etc."""


def _int_from_bytes(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


@dataclass(frozen=True)
class PublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Deterministic serialization (length-prefixed n and e)."""
        n_bytes = _int_to_bytes(self.n, self.byte_size)
        e_bytes = _int_to_bytes(self.e, (self.e.bit_length() + 7) // 8 or 1)
        return (len(n_bytes).to_bytes(4, "big") + n_bytes
                + len(e_bytes).to_bytes(4, "big") + e_bytes)

    def fingerprint(self) -> str:
        """Hex digest identifying this key (SAP uses these as identifiers)."""
        return digest_fingerprint(self.to_bytes())

    # -- verification -----------------------------------------------------
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PSS-style signature.  Returns True/False, never raises.

        Results are memoized in a process-wide LRU (see module header):
        a repeat verification of the same (key, message, signature) costs
        one hash instead of a modular exponentiation.
        """
        global _verify_cache_hits, _verify_cache_misses
        key = (self.n, self.e, sha256(message), signature)
        cached = _VERIFY_CACHE.get(key)
        if cached is not None:
            _VERIFY_CACHE.move_to_end(key)
            _verify_cache_hits += 1
            return cached
        _verify_cache_misses += 1
        result = self._verify_uncached(message, signature)
        _VERIFY_CACHE[key] = result
        if len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.popitem(last=False)
        return result

    def _verify_uncached(self, message: bytes, signature: bytes) -> bool:
        if len(signature) != self.byte_size:
            return False
        s = _int_from_bytes(signature)
        if s >= self.n:
            return False
        em = _int_to_bytes(modexp(s, self.e, self.n), self.byte_size)
        return self._pss_verify(message, em)

    def _pss_verify(self, message: bytes, em: bytes) -> bool:
        if em[-1:] != b"\xbc":
            return False
        h = em[-1 - DIGEST_SIZE:-1]
        masked_db = em[:-1 - DIGEST_SIZE]
        db_mask = mgf1(h, len(masked_db))
        db = xor_bytes(masked_db, db_mask)
        # The signer cleared the top bit of the encoded message so it stays
        # below the modulus; clear it here too before checking the padding.
        db = bytes([db[0] & 0x7F]) + db[1:]
        # db = PS(zeroes) || 0x01 || salt: the separator is the first
        # non-zero byte (the salt itself may contain 0x01 bytes).
        separator = 0
        while separator < len(db) and db[separator] == 0:
            separator += 1
        if separator >= len(db) or db[separator] != 0x01:
            return False
        salt = db[separator + 1:]
        m_prime = b"\x00" * 8 + sha256(message) + salt
        return constant_time_equal(sha256(m_prime), h)

    # -- encryption -------------------------------------------------------
    def _oaep_encrypt_block(self, block: bytes) -> bytes:
        k = self.byte_size
        max_block = k - 2 * DIGEST_SIZE - 2
        if len(block) > max_block:
            raise CryptoError("OAEP block too long")
        l_hash = sha256(b"")
        padding = b"\x00" * (max_block - len(block))
        db = l_hash + padding + b"\x01" + block
        seed = secrets.token_bytes(DIGEST_SIZE)
        db_mask = mgf1(seed, len(db))
        masked_db = xor_bytes(db, db_mask)
        seed_mask = mgf1(masked_db, DIGEST_SIZE)
        masked_seed = xor_bytes(seed, seed_mask)
        em = b"\x00" + masked_seed + masked_db
        return _int_to_bytes(modexp(_int_from_bytes(em), self.e, self.n), k)

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Hybrid-encrypt ``plaintext`` to this key.

        A fresh 32-byte content key is OAEP-wrapped, then the payload is
        sealed with the authenticated stream cipher.  Output layout:
        ``wrapped_key (key_size bytes) || sealed_payload``.
        """
        content_key = secrets.token_bytes(DIGEST_SIZE)
        wrapped = self._oaep_encrypt_block(content_key)
        sealed = cipher.seal(content_key, plaintext, associated_data)
        return wrapped + sealed


@dataclass(frozen=True)
class PrivateKey:
    """An RSA private key with its public half attached."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(n=self.n, e=self.e)

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _crt_context(self) -> tuple[int, int, int]:
        """(d mod p-1, d mod q-1, q^-1 mod p), computed once per key.

        The exponent reductions and the modular inverse are loop
        invariants of :meth:`_private_op`; recomputing them per call
        costs an extended-gcd inverse on the hot path.  Cached on the
        instance (the dataclass is frozen, so bypass ``__setattr__``).
        """
        ctx = self.__dict__.get("_crt_ctx")
        if ctx is None:
            ctx = (self.d % (self.p - 1), self.d % (self.q - 1),
                   pow(self.q, -1, self.p))
            object.__setattr__(self, "_crt_ctx", ctx)
        return ctx

    def _private_op(self, m: int) -> int:
        """m^d mod n via CRT: two half-size exponentiations (~3-4x faster
        than ``pow(m, d, n)``), numerically identical to the direct form."""
        dp, dq, q_inv = self._crt_context()
        mp = modexp(m % self.p, dp, self.p, secret=True)
        mq = modexp(m % self.q, dq, self.q, secret=True)
        h = ((mp - mq) * q_inv) % self.p
        return mq + h * self.q

    # -- signing ----------------------------------------------------------
    def sign(self, message: bytes) -> bytes:
        """Produce a randomized PSS-style signature over SHA-256."""
        em = self._pss_encode(message)
        m = _int_from_bytes(em)
        return _int_to_bytes(self._private_op(m), self.byte_size)

    def _pss_encode(self, message: bytes) -> bytes:
        em_len = self.byte_size
        salt = secrets.token_bytes(_PSS_SALT_SIZE)
        m_prime = b"\x00" * 8 + sha256(message) + salt
        h = sha256(m_prime)
        ps_len = em_len - DIGEST_SIZE - _PSS_SALT_SIZE - 2
        if ps_len < 0:
            raise CryptoError("key too small for PSS encoding")
        db = b"\x00" * ps_len + b"\x01" + salt
        db_mask = mgf1(h, len(db))
        masked_db = xor_bytes(db, db_mask)
        # Clear the top bit so the integer stays below n.
        masked_db = bytes([masked_db[0] & 0x7F]) + masked_db[1:]
        return masked_db + h + b"\xbc"

    # -- decryption -------------------------------------------------------
    def _oaep_decrypt_block(self, block: bytes) -> bytes:
        k = self.byte_size
        if len(block) != k:
            raise CryptoError("ciphertext block has wrong length")
        c = _int_from_bytes(block)
        # RFC 8017 5.1.2: CRT reduces silently, so c + n would decrypt
        # to the same bytes as c whenever it still fits in k bytes.
        if c >= self.n:
            raise CryptoError("ciphertext representative out of range")
        em = _int_to_bytes(self._private_op(c), k)
        if em[0] != 0:
            raise CryptoError("OAEP decoding failed")
        masked_seed = em[1:1 + DIGEST_SIZE]
        masked_db = em[1 + DIGEST_SIZE:]
        seed_mask = mgf1(masked_db, DIGEST_SIZE)
        seed = xor_bytes(masked_seed, seed_mask)
        db_mask = mgf1(seed, len(masked_db))
        db = xor_bytes(masked_db, db_mask)
        if not constant_time_equal(db[:DIGEST_SIZE], sha256(b"")):
            raise CryptoError("OAEP decoding failed")
        try:
            separator = db.index(b"\x01", DIGEST_SIZE)
        except ValueError:
            raise CryptoError("OAEP decoding failed") from None
        if any(db[DIGEST_SIZE:separator]):
            raise CryptoError("OAEP decoding failed")
        return db[separator + 1:]

    def decrypt(self, ciphertext: bytes, associated_data: bytes = b"") -> bytes:
        """Reverse :meth:`PublicKey.encrypt`."""
        k = self.byte_size
        if len(ciphertext) < k:
            raise CryptoError("ciphertext too short")
        content_key = self._oaep_decrypt_block(ciphertext[:k])
        try:
            return cipher.open_sealed(content_key, ciphertext[k:], associated_data)
        except cipher.IntegrityError as exc:
            raise CryptoError(str(exc)) from exc


def generate_keypair(bits: int = DEFAULT_KEY_BITS, e: int = 65537,
                     rng: random.Random | None = None) -> PrivateKey:
    """Generate an RSA keypair.

    ``rng`` makes generation deterministic for tests; when omitted a
    cryptographically random source seeds the search.
    """
    if bits < 512:
        raise ValueError("modulus must be at least 512 bits")
    rng = rng or random.Random(secrets.randbits(128))
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        d = pow(e, -1, phi)
        return PrivateKey(n=n, e=e, d=d, p=p, q=q)
