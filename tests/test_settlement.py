"""Tests for the T-to-B / B-to-U settlement engine."""

import pytest

from repro.core.billing import (
    BillingVerifier,
    REPORTER_BTELCO,
    REPORTER_UE,
    TrafficReport,
    make_upload,
)
from repro.core.qos import QosInfo
from repro.core.sap import SapGrant
from repro.core.settlement import (
    RETAIL_PER_GB,
    WHOLESALE_PER_GB,
    SettlementEngine,
    SettlementError,
    make_claim,
)
from repro.crypto.keypool import pooled_keypair

BROKER = pooled_keypair(840)
UE = pooled_keypair(841)
TELCO = pooled_keypair(842)

GB = 10**9


def build(session_id="s-1", id_t="t1", dl=GB // 2, ul=GB // 10,
          telco_dl=None):
    """A billing verifier with one cross-checked session."""
    billing = BillingVerifier(broker_key=BROKER)
    grant = SapGrant(id_u="alice", id_u_opaque="anon", id_t=id_t,
                     session_id=session_id, ss=b"s" * 32,
                     qos_info=QosInfo(), granted_at=0.0, expires_at=1e9)
    billing.open_session(grant, ue_public_key=UE.public_key,
                         btelco_public_key=TELCO.public_key)
    ue_report = TrafficReport(session_id=session_id, seq=0,
                              interval_start=0, interval_end=30,
                              ul_bytes=ul, dl_bytes=dl)
    t_report = TrafficReport(session_id=session_id, seq=0,
                             interval_start=0, interval_end=30,
                             ul_bytes=ul, dl_bytes=telco_dl or dl)
    billing.ingest(make_upload(ue_report, REPORTER_UE, UE,
                               BROKER.public_key), now=30.0)
    billing.ingest(make_upload(t_report, REPORTER_BTELCO, TELCO,
                               BROKER.public_key), now=30.0)
    engine = SettlementEngine(billing)
    engine.register_btelco(id_t, TELCO.public_key)
    return billing, engine


class TestHonestSettlement:
    def test_claim_paid_in_full(self):
        billing, engine = build()
        claim = make_claim("s-1", "t1", GB // 2, GB // 10, TELCO)
        payment = engine.process_claim(claim)
        assert payment.paid == pytest.approx(claim.amount)
        assert not payment.disputed
        assert engine.btelco_balance("t1") == pytest.approx(claim.amount)

    def test_subscriber_billed_at_retail(self):
        billing, engine = build(dl=GB, ul=0)
        claim = make_claim("s-1", "t1", GB, 0, TELCO)
        engine.process_claim(claim)
        assert engine.subscriber_statement("alice") == \
            pytest.approx(RETAIL_PER_GB)

    def test_broker_margin_positive(self):
        billing, engine = build(dl=GB, ul=0)
        engine.process_claim(make_claim("s-1", "t1", GB, 0, TELCO))
        assert engine.broker_margin == pytest.approx(
            RETAIL_PER_GB - WHOLESALE_PER_GB)


class TestDishonestSettlement:
    def test_inflated_claim_paid_only_verified(self):
        # The bTelco reported 2x to the broker AND claims 2x.
        billing, engine = build(dl=GB, telco_dl=2 * GB)
        claim = make_claim("s-1", "t1", 2 * GB, GB // 10, TELCO)
        payment = engine.process_claim(claim)
        assert payment.disputed
        assert payment.paid < payment.claimed
        # Paid from the UE-verified ledger, not the claim.
        ledger = billing.sessions["s-1"]
        verified = (ledger.billable_dl_bytes + ledger.billable_ul_bytes)
        assert payment.paid == pytest.approx(
            verified / 1e9 * WHOLESALE_PER_GB)
        assert engine.disputes == 1

    def test_forged_signature_rejected(self):
        billing, engine = build()
        mallory = pooled_keypair(843)
        claim = make_claim("s-1", "t1", GB, 0, mallory)
        with pytest.raises(SettlementError, match="signature"):
            engine.process_claim(claim)

    def test_claim_for_other_btelcos_session_rejected(self):
        billing, engine = build(id_t="t1")
        other = pooled_keypair(844)
        engine.register_btelco("t2", other.public_key)
        claim = make_claim("s-1", "t2", GB, 0, other)
        with pytest.raises(SettlementError, match="did not serve"):
            engine.process_claim(claim)

    def test_double_settlement_rejected(self):
        billing, engine = build()
        claim = make_claim("s-1", "t1", GB // 2, GB // 10, TELCO)
        engine.process_claim(claim)
        with pytest.raises(SettlementError, match="already settled"):
            engine.process_claim(claim)

    def test_unknown_btelco_rejected(self):
        billing, engine = build()
        stranger = pooled_keypair(845)
        claim = make_claim("s-1", "nobody", GB, 0, stranger)
        with pytest.raises(SettlementError, match="unknown bTelco"):
            engine.process_claim(claim)

    def test_unknown_session_rejected(self):
        billing, engine = build()
        claim = make_claim("s-404", "t1", GB, 0, TELCO)
        with pytest.raises(SettlementError, match="unknown session"):
            engine.process_claim(claim)
