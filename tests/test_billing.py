"""Unit + property tests for verifiable billing and the reputation system."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.billing import (
    BillingVerifier,
    Meter,
    REPORTER_BTELCO,
    REPORTER_UE,
    TrafficReport,
    make_upload,
)
from repro.core.qos import QosInfo
from repro.core.reputation import ReputationSystem
from repro.core.sap import SapGrant
from repro.crypto import generate_keypair


@pytest.fixture(scope="module")
def keys():
    rng = random.Random(0xB111)
    return {
        "broker": generate_keypair(rng=rng),
        "ue": generate_keypair(rng=rng),
        "telco": generate_keypair(rng=rng),
    }


def make_grant(session_id="s-1"):
    return SapGrant(id_u="alice", id_u_opaque="anon-1", id_t="t1",
                    session_id=session_id, ss=b"s" * 32,
                    qos_info=QosInfo(), granted_at=0.0, expires_at=3600.0)


def make_verifier(keys, epsilon=0.05):
    verifier = BillingVerifier(broker_key=keys["broker"], epsilon=epsilon)
    grant = make_grant()
    verifier.open_session(grant,
                          ue_public_key=keys["ue"].public_key,
                          btelco_public_key=keys["telco"].public_key)
    return verifier, grant


def report(session="s-1", seq=0, dl=1_000_000, ul=100_000, loss=0.0):
    return TrafficReport(session_id=session, seq=seq, interval_start=0.0,
                         interval_end=30.0, ul_bytes=ul, dl_bytes=dl,
                         dl_loss_rate=loss)


def upload_pair(verifier, keys, ue_dl, t_dl, seq=0, loss=0.0, now=30.0):
    ue_up = make_upload(report(seq=seq, dl=ue_dl, loss=loss), REPORTER_UE,
                        keys["ue"], keys["broker"].public_key)
    t_up = make_upload(report(seq=seq, dl=t_dl), REPORTER_BTELCO,
                       keys["telco"], keys["broker"].public_key)
    assert verifier.ingest(ue_up, now=now)
    assert verifier.ingest(t_up, now=now)


class TestReportCrypto:
    def test_roundtrip_serialization(self):
        r = report()
        assert TrafficReport.from_bytes(r.to_bytes()) == r

    def test_upload_verifies_and_decrypts(self, keys):
        verifier, grant = make_verifier(keys)
        upload = make_upload(report(), REPORTER_UE, keys["ue"],
                             keys["broker"].public_key)
        assert verifier.ingest(upload, now=30.0)

    def test_wrong_signature_rejected(self, keys):
        verifier, grant = make_verifier(keys)
        mallory = generate_keypair(rng=random.Random(1))
        upload = make_upload(report(), REPORTER_UE, mallory,
                             keys["broker"].public_key)
        assert not verifier.ingest(upload, now=30.0)
        assert verifier.rejected_uploads == 1

    def test_unknown_session_rejected(self, keys):
        verifier, grant = make_verifier(keys)
        upload = make_upload(report(session="nope"), REPORTER_UE,
                             keys["ue"], keys["broker"].public_key)
        assert not verifier.ingest(upload, now=30.0)

    def test_report_not_readable_by_btelco(self, keys):
        """Reports are sealed to the broker: only it can decrypt."""
        from repro.crypto import CryptoError
        upload = make_upload(report(), REPORTER_UE, keys["ue"],
                             keys["broker"].public_key)
        with pytest.raises(CryptoError):
            keys["telco"].decrypt(upload.blob)


class TestCrossCheck:
    def test_honest_reports_match(self, keys):
        verifier, grant = make_verifier(keys)
        upload_pair(verifier, keys, ue_dl=1_000_000, t_dl=1_000_000)
        ledger = verifier.sessions["s-1"]
        assert ledger.checked_pairs == 1
        assert ledger.mismatches == 0
        assert verifier.reputation.btelco_score("t1") == 1.0

    def test_small_discrepancy_tolerated(self, keys):
        verifier, grant = make_verifier(keys, epsilon=0.05)
        upload_pair(verifier, keys, ue_dl=980_000, t_dl=1_000_000)
        assert verifier.sessions["s-1"].mismatches == 0

    def test_btelco_overcount_flagged(self, keys):
        verifier, grant = make_verifier(keys, epsilon=0.05)
        upload_pair(verifier, keys, ue_dl=1_000_000, t_dl=1_500_000)
        ledger = verifier.sessions["s-1"]
        assert ledger.mismatches == 1
        assert verifier.reputation.mismatch_count("t1") == 1
        assert verifier.reputation.btelco_score("t1") < 1.0

    def test_loss_scales_tolerance(self, keys):
        """10% radio loss legitimately explains a 10%-ish DL gap."""
        verifier, grant = make_verifier(keys, epsilon=0.05)
        upload_pair(verifier, keys, ue_dl=880_000, t_dl=1_000_000, loss=0.10)
        assert verifier.sessions["s-1"].mismatches == 0

    def test_ue_overreport_flags_ue(self, keys):
        verifier, grant = make_verifier(keys)
        upload_pair(verifier, keys, ue_dl=2_000_000, t_dl=1_000_000)
        assert verifier.reputation.ue_suspects.get("alice", 0) == 1

    def test_settlement_uses_ue_reports(self, keys):
        verifier, grant = make_verifier(keys)
        upload_pair(verifier, keys, ue_dl=1_000_000, t_dl=1_000_000, seq=0)
        upload_pair(verifier, keys, ue_dl=2_000_000, t_dl=2_000_000, seq=1)
        invoice = verifier.settle("s-1")
        assert invoice.dl_bytes == 3_000_000
        assert not invoice.disputed
        assert invoice.amount > 0

    def test_disputed_invoice_marked(self, keys):
        verifier, grant = make_verifier(keys)
        upload_pair(verifier, keys, ue_dl=1_000_000, t_dl=5_000_000)
        assert verifier.settle("s-1").disputed

    @given(fraud=st.floats(min_value=1.3, max_value=5.0))
    @settings(max_examples=10, deadline=None)
    def test_sustained_overcount_always_detected(self, keys, fraud):
        verifier, grant = make_verifier(keys, epsilon=0.05)
        honest = 1_000_000
        upload_pair(verifier, keys, ue_dl=honest, t_dl=int(honest * fraud))
        assert verifier.sessions["s-1"].mismatches == 1


class TestReputationSystem:
    def test_fresh_party_is_acceptable(self):
        rep = ReputationSystem()
        assert rep.btelco_acceptable("new-telco")
        assert rep.btelco_score("new-telco") == 1.0

    def test_score_declines_with_mismatches(self):
        rep = ReputationSystem()
        scores = []
        for i in range(6):
            rep.record_mismatch("t1", "s", i, degree=2.0, at=float(i))
            scores.append(rep.btelco_score("t1"))
        assert scores == sorted(scores, reverse=True)
        assert not rep.btelco_acceptable("t1")

    def test_ok_history_buffers_occasional_mismatch(self):
        rep = ReputationSystem(acceptance_threshold=0.8)
        for _ in range(50):
            rep.record_ok("t1")
        rep.record_mismatch("t1", "s", 0, degree=1.5, at=1.0)
        assert rep.btelco_acceptable("t1")

    def test_degree_weights_mismatches(self):
        rep = ReputationSystem()
        rep.record_mismatch("small", "s", 0, degree=1.0, at=0.0)
        rep.record_mismatch("large", "s", 0, degree=8.0, at=0.0)
        assert rep.btelco_score("large") < rep.btelco_score("small")

    def test_degree_weight_capped(self):
        rep = ReputationSystem()
        rep.record_mismatch("t1", "s", 0, degree=1e9, at=0.0)
        assert rep.btelco_score("t1") > 0.0  # one event can't zero it

    def test_ue_suspect_list_threshold(self):
        rep = ReputationSystem(suspect_after=3)
        for _ in range(2):
            rep.flag_ue("alice")
        assert not rep.ue_suspected("alice")
        rep.flag_ue("alice")
        assert rep.ue_suspected("alice")


class TestMeter:
    def test_meter_accumulates_and_resets(self, keys):
        meter = Meter(session_id="s-1", reporter=REPORTER_UE,
                      key=keys["ue"],
                      broker_public_key=keys["broker"].public_key)
        meter.record_dl(5000)
        meter.record_dl(3000)
        meter.record_ul(1000)
        upload = meter.emit(now=30.0)
        verifier, grant = make_verifier(keys)
        assert verifier.ingest(upload, now=30.0)
        stored = verifier.sessions["s-1"].ue_reports[0]
        assert stored.dl_bytes == 8000
        assert stored.ul_bytes == 1000
        # Counters reset for the next interval.
        assert meter.dl_bytes == 0

    def test_meter_sequences_reports(self, keys):
        meter = Meter(session_id="s-1", reporter=REPORTER_UE,
                      key=keys["ue"],
                      broker_public_key=keys["broker"].public_key)
        first = meter.emit(now=30.0)
        second = meter.emit(now=60.0)
        assert first.seq == 0 and second.seq == 1

    def test_meter_loss_rate(self, keys):
        meter = Meter(session_id="s-1", reporter=REPORTER_UE,
                      key=keys["ue"],
                      broker_public_key=keys["broker"].public_key)
        for _ in range(90):
            meter.record_dl(1000)
        meter.dl_lost_packets += 10
        upload = meter.emit(now=30.0)
        verifier, grant = make_verifier(keys)
        verifier.ingest(upload, now=30.0)
        assert verifier.sessions["s-1"].ue_reports[0].dl_loss_rate == \
            pytest.approx(0.1)

    def test_fraudulent_meter_scales_values(self, keys):
        """The fraud knob used by the billing experiments."""
        meter = Meter(session_id="s-1", reporter=REPORTER_BTELCO,
                      key=keys["telco"],
                      broker_public_key=keys["broker"].public_key,
                      fraud_factor=1.5)
        meter.record_dl(1_000_000)
        upload = meter.emit(now=30.0)
        verifier, grant = make_verifier(keys)
        verifier.ingest(upload, now=30.0)
        assert verifier.sessions["s-1"].btelco_reports[0].dl_bytes == 1_500_000
