"""Inter-party settlement: T-to-B claims and B-to-U billing (§3 step 2).

"At some later time, T1 bills B based on the usage reports.  Compensation
is realized in the same manner as other online financial transactions."
This module implements that back office:

* the bTelco periodically files a :class:`UsageClaim` per session, built
  from its own (signed) reports;
* the broker's :class:`SettlementEngine` validates each claim against its
  cross-checked ledger (:class:`~repro.core.billing.BillingVerifier`) and
  pays out the *verified* amount — an inflated claim yields only the
  verified payment plus a recorded dispute (more reputation evidence);
* subscriber statements aggregate each user's sessions at the broker's
  retail rate.

Pricing itself stays a parameter ("we do not dictate the actual pricing
scheme which is left open to innovation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.crypto import PrivateKey, PublicKey

from .billing import BillingVerifier

DEFAULT_WHOLESALE_PER_GB = 1.2   # what the broker pays bTelcos
DEFAULT_RETAIL_PER_GB = 2.0      # what subscribers pay the broker


class SettlementError(Exception):
    """Raised for malformed or unverifiable claims."""


@dataclass(frozen=True)
class UsageClaim:
    """A bTelco's signed demand for payment over one session."""

    session_id: str
    id_t: str
    dl_bytes: int
    ul_bytes: int
    amount: float
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return (f"{self.session_id}|{self.id_t}|{self.dl_bytes}|"
                f"{self.ul_bytes}|{self.amount:.6f}").encode()


def make_claim(session_id: str, id_t: str, dl_bytes: int, ul_bytes: int,
               key: PrivateKey) -> UsageClaim:
    """bTelco side: build and sign a claim from its own accounting, at
    the wholesale rate."""
    amount = round((dl_bytes + ul_bytes) / 1e9 * DEFAULT_WHOLESALE_PER_GB, 6)
    claim = UsageClaim(session_id=session_id, id_t=id_t,
                       dl_bytes=dl_bytes, ul_bytes=ul_bytes, amount=amount)
    return UsageClaim(**{**claim.__dict__,
                         "signature": key.sign(claim.signed_payload())})


@dataclass(frozen=True)
class Payment:
    """The broker's response to a claim."""

    session_id: str
    id_t: str
    claimed: float
    paid: float
    disputed: bool


@dataclass
class Account:
    """A running balance for one counterparty (positive = owed money)."""

    owner: str
    balance: float = 0.0
    payments: list = field(default_factory=list)


class SettlementEngine:
    """The broker's pay-what-was-verified clearing house."""

    def __init__(self, billing: BillingVerifier,
                 wholesale_per_gb: float = DEFAULT_WHOLESALE_PER_GB,
                 retail_per_gb: float = DEFAULT_RETAIL_PER_GB):
        self.billing = billing
        self.wholesale_per_gb = wholesale_per_gb
        self.retail_per_gb = retail_per_gb
        self.btelco_accounts: dict[str, Account] = {}
        self.subscriber_accounts: dict[str, Account] = {}
        #: claim verification keys: id_t -> PublicKey
        self.btelco_keys: dict[str, PublicKey] = {}
        self.disputes = 0
        self._settled_sessions: set = set()
        #: sessions whose grant was revoked before settlement: claims
        #: against them are refused (the broker resolves any residual
        #: usage out-of-band, alongside the revocation itself).
        self.voided_sessions: set = set()

    def register_btelco(self, id_t: str, public_key: PublicKey) -> None:
        self.btelco_keys[id_t] = public_key

    def void_session(self, session_id: str) -> None:
        """Revocation cascade: refuse future claims for this session."""
        self.voided_sessions.add(session_id)

    def _account(self, store: dict, owner: str) -> Account:
        if owner not in store:
            store[owner] = Account(owner=owner)
        return store[owner]

    # -- T -> B ------------------------------------------------------------------
    def process_claim(self, claim: UsageClaim) -> Payment:
        """Validate a bTelco claim and credit the verified amount."""
        key = self.btelco_keys.get(claim.id_t)
        if key is None:
            raise SettlementError(f"unknown bTelco {claim.id_t!r}")
        if not key.verify(claim.signed_payload(), claim.signature):
            raise SettlementError("claim signature invalid")
        if claim.session_id in self.voided_sessions:
            raise SettlementError("session revoked")
        ledger = self.billing.sessions.get(claim.session_id)
        if ledger is None:
            raise SettlementError(f"unknown session {claim.session_id!r}")
        if ledger.grant.id_t != claim.id_t:
            raise SettlementError("claim from a bTelco that did not serve "
                                  "this session")
        if claim.session_id in self._settled_sessions:
            raise SettlementError("session already settled")
        self._settled_sessions.add(claim.session_id)

        verified_bytes = (ledger.billable_dl_bytes
                          + ledger.billable_ul_bytes)
        verified_amount = round(verified_bytes / 1e9
                                * self.wholesale_per_gb, 6)
        paid = min(claim.amount, verified_amount)
        disputed = claim.amount > verified_amount * 1.001 + 1e-9
        if disputed:
            self.disputes += 1
        account = self._account(self.btelco_accounts, claim.id_t)
        payment = Payment(session_id=claim.session_id, id_t=claim.id_t,
                          claimed=claim.amount, paid=paid,
                          disputed=disputed)
        account.balance += paid
        account.payments.append(payment)

        # The subscriber is billed at retail for the same verified usage.
        subscriber = self._account(self.subscriber_accounts,
                                   ledger.grant.id_u)
        subscriber.balance += round(verified_bytes / 1e9
                                    * self.retail_per_gb, 6)
        return payment

    # -- queries --------------------------------------------------------------------
    def btelco_balance(self, id_t: str) -> float:
        account = self.btelco_accounts.get(id_t)
        return account.balance if account else 0.0

    def subscriber_statement(self, id_u: str) -> float:
        account = self.subscriber_accounts.get(id_u)
        return account.balance if account else 0.0

    @property
    def broker_margin(self) -> float:
        """Retail collected minus wholesale paid out."""
        collected = sum(a.balance for a in self.subscriber_accounts.values())
        paid = sum(a.balance for a in self.btelco_accounts.values())
        return round(collected - paid, 6)
