"""Stdlib-only cryptographic substrate for the CellBricks reproduction.

Public surface:

* :func:`generate_keypair`, :class:`PublicKey`, :class:`PrivateKey` — RSA
  with PSS-style signatures and OAEP-wrapped hybrid encryption.
* :func:`seal` / :func:`open_sealed` — authenticated symmetric encryption.
* :func:`hkdf`, :func:`kdf_3gpp` — key derivation (SAP sessions, LTE key
  hierarchy).
* :class:`CertificateAuthority`, :class:`Certificate` — minimal PKI.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".ca": "ROLE_BROKER ROLE_BTELCO ROLE_CA Certificate CertificateAuthority"
           " CertificateError validate_certificate",
    ".cipher": "IntegrityError open_sealed seal",
    ".hashes": "constant_time_equal digest_fingerprint hmac_sha256 sha256"
               " sha256_hex",
    ".kdf": "hkdf hkdf_expand hkdf_extract kdf_3gpp",
    ".rsa": "DEFAULT_KEY_BITS CryptoError PrivateKey PublicKey"
            " clear_verify_cache generate_keypair verify_cache_stats",
})
