"""End-to-end billing: reports flow over the network into brokerd.

Exercises the full §4.3 loop on the wire: the UE attaches via SAP, both
meters measure, the bTelco's AGW uploads its signed reports over the
signaling plane, brokerd ingests and cross-checks them, and settlement
pays the verified amount.
"""

import pytest

from repro.core.billing import REPORTER_UE
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.core.settlement import (
    WHOLESALE_PER_GB,
    SettlementEngine,
    make_claim,
)
from repro.net import Simulator


def attach_and_meter(dl_bytes=5_000_000, ul_bytes=500_000,
                     telco_fraud=1.0):
    sim = Simulator()
    net = build_cellbricks_network(sim)
    manager = MobilityManager(net)
    manager.start("btelco-a")
    sim.run(until=1.0)
    assert manager.ue.state == "ATTACHED"

    agw = net.sites["btelco-a"].agw
    session_id = manager.ue.session_id
    bearer = agw.spgw.bearer_for(agw.sessions[session_id].id_u_opaque)

    # Simulate a usage interval observed by both sides.
    bearer.usage.dl_bytes = dl_bytes
    bearer.usage.ul_bytes = ul_bytes
    agw.meters[session_id].fraud_factor = telco_fraud
    manager.ue.meter.record_dl(dl_bytes)
    manager.ue.meter.record_ul(ul_bytes)

    # Both reports ride the network to brokerd.
    assert agw.upload_reports() == 1
    ue_upload = manager.ue.meter.emit(sim.now)
    # The UE sends its report via its serving bTelco's data path; at the
    # signaling level that reaches brokerd's report handler.
    net.brokerd.billing.ingest(ue_upload, now=sim.now)
    sim.run(until=2.0)
    return sim, net, manager, agw, session_id


class TestBillingOverTheWire:
    def test_honest_interval_settles_cleanly(self):
        sim, net, manager, agw, session_id = attach_and_meter()
        ledger = net.brokerd.billing.sessions[session_id]
        assert ledger.checked_pairs == 1
        assert ledger.mismatches == 0
        invoice = net.brokerd.billing.settle(session_id)
        assert invoice.dl_bytes == 5_000_000
        assert not invoice.disputed

    def test_btelco_report_rides_signaling_plane(self):
        sim, net, manager, agw, session_id = attach_and_meter()
        ledger = net.brokerd.billing.sessions[session_id]
        # The bTelco's report arrived via the Brokerd message handler.
        assert 0 in ledger.btelco_reports
        assert ledger.btelco_reports[0].dl_bytes == 5_000_000

    def test_lost_report_upload_retried_until_acked(self):
        """A report eaten by the broker link must be retransmitted, not
        silently skew the §4.3 cross-check: the broker ends up with the
        pair matched, ``reports_retried`` counts the recovery, and
        ``reports_lost`` stays 0."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        session_id = manager.ue.session_id
        bearer = agw.spgw.bearer_for(agw.sessions[session_id].id_u_opaque)
        bearer.usage.dl_bytes = 1_000_000
        manager.ue.meter.record_dl(1_000_000)

        net.links["btelco-a-broker"].interrupt(0.3)   # eats the upload
        assert agw.upload_reports() == 1
        net.brokerd.billing.ingest(manager.ue.meter.emit(sim.now),
                                   now=sim.now)
        sim.run(until=sim.now + 5.0)

        stats = net.brokerd.stats()
        assert stats["reports_retried"] >= 1
        assert stats["reports_lost"] == 0
        assert agw.stats()["reports_acked"] == 1
        ledger = net.brokerd.billing.sessions[session_id]
        assert ledger.checked_pairs == 1
        assert ledger.mismatches == 0

    def test_inflating_btelco_detected_over_the_wire(self):
        sim, net, manager, agw, session_id = attach_and_meter(
            telco_fraud=1.5)
        ledger = net.brokerd.billing.sessions[session_id]
        assert ledger.mismatches == 1
        assert not net.brokerd.reputation.btelco_acceptable("btelco-a") \
            or net.brokerd.reputation.btelco_score("btelco-a") < 1.0

    def test_settlement_pays_verified_not_claimed(self):
        sim, net, manager, agw, session_id = attach_and_meter(
            telco_fraud=2.0)
        engine = SettlementEngine(net.brokerd.billing)
        engine.register_btelco("btelco-a", agw.key.public_key)
        # The bTelco claims its (inflated) numbers.
        claim = make_claim(session_id, "btelco-a", 10_000_000, 1_000_000,
                           agw.key)
        payment = engine.process_claim(claim)
        assert payment.disputed
        # Paid for what the UE verified (5 MB + 0.5 MB), not 11 MB.
        verified = 5_500_000 / 1e9 * WHOLESALE_PER_GB
        assert payment.paid == pytest.approx(verified, rel=0.01)

    def test_detection_compounds_into_denial(self):
        """Sustained over-reporting eventually blocks future attaches."""
        sim, net, manager, agw, session_id = attach_and_meter(
            telco_fraud=1.5)
        # More fraudulent intervals on the same session.
        for _ in range(4):
            bearer = agw.spgw.bearer_for(
                agw.sessions[session_id].id_u_opaque)
            bearer.usage.dl_bytes = 1_000_000
            agw.upload_reports()
            manager.ue.meter.record_dl(1_000_000)
            net.brokerd.billing.ingest(manager.ue.meter.emit(sim.now),
                                       now=sim.now)
            sim.run(until=sim.now + 0.5)
        assert not net.brokerd.reputation.btelco_acceptable("btelco-a")
        # The next attach attempt against this bTelco is denied.
        results = []
        manager.ue.on_attach_done = results.append
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 1.0)
        assert results[-1].success  # B is clean
        manager.switch_to("btelco-a")
        sim.run(until=sim.now + 1.0)
        assert not results[-1].success
        assert "reputation" in results[-1].cause
