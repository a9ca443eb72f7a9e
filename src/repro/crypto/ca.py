"""A miniature certificate authority.

The paper assumes broker and bTelco public keys "are distributed and
maintained using standard PKI techniques, akin to existing Internet
services" (§4.1).  This module provides just enough PKI for the protocol to
exercise that assumption: certificates binding a subject name and role to a
public key, signed by a CA, with expiry and revocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .rsa import PrivateKey, PublicKey

ROLE_BROKER = "broker"
ROLE_BTELCO = "btelco"
ROLE_CA = "ca"

VALID_ROLES = frozenset({ROLE_BROKER, ROLE_BTELCO, ROLE_CA})


class CertificateError(Exception):
    """Raised when a certificate fails validation."""


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``(subject, role, public_key, validity)``.

    ``not_before``/``not_after`` are simulation timestamps (seconds); the
    issuer signs the canonical encoding of all other fields.
    """

    subject: str
    role: str
    public_key: PublicKey
    issuer: str
    serial: int
    not_before: float
    not_after: float
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding."""
        body = {
            "subject": self.subject,
            "role": self.role,
            "public_key": self.public_key.to_bytes().hex(),
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }
        return json.dumps(body, sort_keys=True).encode()

    def is_time_valid(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after


@dataclass
class CertificateAuthority:
    """Issues and validates certificates for brokers and bTelcos."""

    key: PrivateKey
    name: str = "repro-root-ca"
    _next_serial: int = 1
    _revoked: set = field(default_factory=set)

    @property
    def public_key(self) -> PublicKey:
        return self.key.public_key

    def issue(self, subject: str, role: str, public_key: PublicKey,
              not_before: float = 0.0, not_after: float = 10**9) -> Certificate:
        """Issue a certificate for ``subject`` acting as ``role``."""
        if role not in VALID_ROLES:
            raise CertificateError(f"unknown role: {role!r}")
        cert = Certificate(
            subject=subject, role=role, public_key=public_key,
            issuer=self.name, serial=self._next_serial,
            not_before=not_before, not_after=not_after,
        )
        self._next_serial += 1
        signature = self.key.sign(cert.tbs_bytes())
        return Certificate(**{**cert.__dict__, "signature": signature})

    def revoke(self, serial: int) -> None:
        """Add ``serial`` to the revocation list."""
        self._revoked.add(serial)

    def is_revoked(self, cert: Certificate) -> bool:
        return cert.serial in self._revoked

    def validate(self, cert: Certificate, now: float,
                 expected_role: str | None = None) -> None:
        """Raise :class:`CertificateError` unless ``cert`` is currently valid."""
        validate_certificate(cert, self.public_key, now, expected_role)
        if self.is_revoked(cert):
            raise CertificateError(f"certificate {cert.serial} is revoked")


def validate_certificate(cert: Certificate, ca_public_key: PublicKey,
                         now: float, expected_role: str | None = None) -> None:
    """Offline validation against a trusted CA public key.

    This is what bTelcos and brokers run when they meet each other for the
    first time with no pre-established agreement (the core CellBricks
    premise).
    """
    if not cert.signature:
        raise CertificateError("certificate is unsigned")
    if not ca_public_key.verify(cert.tbs_bytes(), cert.signature):
        raise CertificateError("bad CA signature")
    if not cert.is_time_valid(now):
        raise CertificateError("certificate expired or not yet valid")
    if expected_role is not None and cert.role != expected_role:
        raise CertificateError(
            f"expected role {expected_role!r}, certificate says {cert.role!r}")
