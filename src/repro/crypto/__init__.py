"""Stdlib-only cryptographic substrate for the CellBricks reproduction.

Public surface:

* :func:`generate_keypair`, :class:`PublicKey`, :class:`PrivateKey` — RSA
  with PSS-style signatures and OAEP-wrapped hybrid encryption.
* :func:`seal` / :func:`open_sealed` — authenticated symmetric encryption.
* :func:`hkdf`, :func:`kdf_3gpp` — key derivation (SAP sessions, LTE key
  hierarchy).
* :class:`CertificateAuthority`, :class:`Certificate` — minimal PKI.
"""

from .ca import (
    ROLE_BROKER,
    ROLE_BTELCO,
    ROLE_CA,
    Certificate,
    CertificateAuthority,
    CertificateError,
    validate_certificate,
)
from .cipher import IntegrityError, open_sealed, seal
from .hashes import (
    constant_time_equal,
    digest_fingerprint,
    hmac_sha256,
    sha256,
    sha256_hex,
)
from .kdf import hkdf, hkdf_expand, hkdf_extract, kdf_3gpp
from .rsa import (
    DEFAULT_KEY_BITS,
    CryptoError,
    PrivateKey,
    PublicKey,
    clear_verify_cache,
    generate_keypair,
    verify_cache_stats,
)

__all__ = [
    "ROLE_BROKER",
    "ROLE_BTELCO",
    "ROLE_CA",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "CryptoError",
    "DEFAULT_KEY_BITS",
    "clear_verify_cache",
    "verify_cache_stats",
    "IntegrityError",
    "PrivateKey",
    "PublicKey",
    "constant_time_equal",
    "digest_fingerprint",
    "generate_keypair",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "hmac_sha256",
    "kdf_3gpp",
    "open_sealed",
    "seal",
    "sha256",
    "sha256_hex",
    "validate_certificate",
]
