"""5G control-plane parity: reliability, lifecycle, and leak regressions.

The acceptance tests for the fivegc port of the LTE reliable/lifecycle
stack: seeded chaos churn over the gNB/AMF network, revocation
convergence under loss, duplicate-challenge idempotence at the UE, and
regression tests for the AMF/CellBricksAmf map leaks
(``_by_correlation``, ``_pending_sap``, rejected-context residue).
"""

import pytest

from repro.core import Brokerd, UeSapCredentials
from repro.core.btelco5g import CellBricksAmf, CellBricksUe5G
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair
from repro.emulation import run_chaos
from repro.emulation.chaos import (
    SMOKE,
    SMOKE_SUCCESS_RATE,
    gates,
    smoke_schedule,
)
from repro.fivegc import Amf, Ausf, Gnb, Smf, Udm, Ue5G, make_supi, nas5g
from repro.fivegc.topology5g import (
    AMF_ADDRESS,
    AUSF_ADDRESS,
    BROKER_ADDRESS,
    GNB_ADDRESS,
    SMF_ADDRESS,
    Topology5G,
    UDM_ADDRESS,
)
from repro.lte.aka import UsimState
from repro.net import Simulator
from repro.obs.export import LEG_NAMES, attach_leg_breakdown
from repro.testbed import run_traced_attach

K = bytes(range(16))


def reliable_retransmissions(harness) -> int:
    """Supervised retransmissions anywhere in a traced-attach stack."""
    total = harness.ue.nas_retransmissions
    total += harness.agw.accept_retransmissions
    for node in (harness.agw,) + harness.cloud_nodes:
        total += node.reliable_stats()["retransmissions"]
    return total


def build_baseline_5g(provision=True):
    sim = Simulator()
    topo = Topology5G.build(sim, "local")
    home_key = pooled_keypair(830)
    udm = Udm(topo.udm_host, home_network_key=home_key)
    Ausf(topo.ausf_host, udm_ip=UDM_ADDRESS)
    Smf(topo.smf_host)
    amf = Amf(topo.amf_host, ausf_ip=AUSF_ADDRESS, smf_ip=SMF_ADDRESS)
    Gnb(topo.gnb_host, agw_ip=AMF_ADDRESS)
    supi = make_supi(9)
    if provision:
        udm.provision(supi, K)
    ue = Ue5G(topo.ue_host, GNB_ADDRESS, supi, UsimState(k=K),
              home_key.public_key, serving_network=amf.serving_network)
    return sim, amf, ue


def build_cellbricks_5g(enroll=True):
    sim = Simulator()
    topo = Topology5G.build(sim, "local")
    ca = CertificateAuthority(key=pooled_keypair(831))
    brokerd = Brokerd(topo.broker_host, id_b="b5gc",
                      ca_public_key=ca.public_key, key=pooled_keypair(832))
    telco_key = pooled_keypair(833)
    cert = ca.issue("t5gc", "btelco", telco_key.public_key)
    Smf(topo.smf_host)
    amf = CellBricksAmf(topo.amf_host, broker_ip=BROKER_ADDRESS,
                        smf_ip=SMF_ADDRESS, id_t="t5gc", key=telco_key,
                        certificate=cert, ca_public_key=ca.public_key)
    amf.trust_broker("b5gc", brokerd.public_key)
    Gnb(topo.gnb_host, agw_ip=AMF_ADDRESS)
    ue_key = pooled_keypair(834)
    if enroll:
        brokerd.enroll_subscriber("dave", ue_key.public_key)
    credentials = UeSapCredentials(id_u="dave", id_b="b5gc", ue_key=ue_key,
                                   broker_public_key=brokerd.public_key)
    ue = CellBricksUe5G(topo.ue_host, GNB_ADDRESS, credentials,
                        target_id_t="t5gc")
    return sim, brokerd, amf, ue


class TestFaultFree5G:
    """A clean network must need none of the reliability machinery."""

    @pytest.mark.parametrize("arch", ["BL", "CB"])
    def test_zero_retransmissions_and_exact_leg_sum(self, arch):
        result, obs, harness = run_traced_attach(
            arch=arch, placement="us-west-1", trials=10, rat="5g")
        assert len(result.samples) == 10
        assert reliable_retransmissions(harness) == 0
        breakdowns = attach_leg_breakdown(obs.tracer.spans())
        assert len(breakdowns) == 10
        # The four traced legs decompose the end-to-end latency exactly.
        for legs in breakdowns:
            assert sum(legs[key] for key in LEG_NAMES) == \
                pytest.approx(legs["total_ms"], abs=1e-9)

    def test_fault_free_churn_leaves_no_residue(self):
        report = run_chaos(attaches=1000, revoke_every=0, seed=3,
                           base_loss=0.0, think_time=0.01, rat="5g")
        assert report.success_rate == 1.0
        assert report.retransmissions == 0
        for stats in report.site_stats.values():
            assert stats["contexts"] == 0
            assert stats["by_correlation"] == 0
            assert stats["pending_sap"] == 0
            assert stats["sessions_active"] == 0


class TestChaos5G:
    def test_smoke_meets_5g_acceptance_bars(self):
        report = run_chaos(schedule=smoke_schedule(), rat="5g", **SMOKE)
        assert report.rat == "5g"
        assert [g for g in gates(report.to_dict(), smoke=True)
                if not g["pass"]] == []
        assert SMOKE_SUCCESS_RATE["5g"] == 0.99
        # The faults actually bit: the run needed the reliable machinery.
        assert report.retransmissions > 0
        assert report.revocations > 0
        for stats in report.site_stats.values():
            assert stats["contexts"] == 0
            assert stats["by_correlation"] == 0
            assert stats["pending_sap"] == 0
            assert stats["sessions_active"] == 0

    def test_revocation_under_loss_converges_to_zero_unauthorized(self):
        report = run_chaos(attaches=60, revoke_every=5, seed=11,
                           base_loss=0.15, rat="5g")
        assert report.revocations > 0
        assert report.unauthorized_session_seconds == 0.0
        stats = report.broker_stats
        assert stats["revocation_batches_outstanding"] == 0
        # Per-site revocation acks were produced and signed correctly.
        acked = sum(site["revocation_acks_sent"]
                    for site in report.site_stats.values())
        assert acked >= stats["revocation_batches_acked"]

    def test_broker_blackhole_abandons_cleanly(self):
        """100% broker loss: every SAP attach gives up, is counted, and
        leaves no ``_pending_sap`` / context residue behind."""
        def blackhole(network):
            for name, link in network.links.items():
                if name.endswith("-broker"):
                    link.a_to_b.loss_rate = 1.0
                    link.b_to_a.loss_rate = 1.0

        report = run_chaos(attaches=3, seed=5, rat="5g",
                           on_network_built=blackhole)
        assert report.successes == 0
        assert report.failures == 3
        timeouts = sum(site["broker_timeouts"]
                       for site in report.site_stats.values())
        give_ups = sum(site["requests_failed"]
                       for site in report.site_stats.values())
        # Either the AMF's broker leg gave up (counted as a broker
        # timeout) or the UE abandoned first and the AMF GC'd the
        # context; both paths must drain the pending-SAP table.
        assert timeouts == give_ups
        assert timeouts > 0
        for stats in report.site_stats.values():
            assert stats["pending_sap"] == 0
            assert stats["contexts"] == 0
            assert stats["by_correlation"] == 0


class TestUe5GDuplicateChallenge:
    def test_duplicate_challenge_is_idempotent(self):
        """A late/duplicate SapRegistrationChallenge must not re-run
        ``sap.process_response`` and fail a REGISTERED UE."""
        sim, brokerd, amf, ue = build_cellbricks_5g()
        results = []
        ue.on_registration_done = results.append
        captured = []
        original = ue._handlers[nas5g.SapRegistrationChallenge]

        def capture(src_ip, message):
            captured.append((src_ip, message))
            original(src_ip, message)

        ue._handlers[nas5g.SapRegistrationChallenge] = capture
        ue.register()
        sim.run(until=2.0)
        assert results and results[0].success
        assert ue.state == "REGISTERED"
        assert captured
        security_before = ue.security

        # Replay the challenge as a late duplicate delivery.
        original(*captured[0])
        sim.run(until=3.0)
        assert ue.state == "REGISTERED"
        assert ue.security is security_before
        assert len(results) == 1

    def test_reregister_clears_stale_session_state(self):
        sim, brokerd, amf, ue = build_cellbricks_5g()
        results = []
        ue.on_registration_done = results.append
        ue.register()
        sim.run(until=2.0)
        assert results[0].success
        first_session = ue.session_id
        ue.detach_and_forget()
        sim.run(until=3.0)
        assert ue.security is None
        ue.register()
        sim.run(until=5.0)
        assert len(results) == 2 and results[1].success
        assert ue.session_id is not None
        assert ue.session_id != first_session


class TestAmfLeakRegressions:
    def test_baseline_reject_cleans_both_maps(self):
        sim, amf, ue = build_baseline_5g(provision=False)
        results = []
        ue.on_registration_done = results.append
        ue.register()
        sim.run(until=5.0)
        assert results and not results[0].success
        assert amf.contexts == {}
        assert amf._by_correlation == {}
        assert amf.registrations_rejected == 1

    def test_baseline_complete_releases_correlation(self):
        sim, amf, ue = build_baseline_5g()
        results, sessions = [], []
        ue.on_registration_done = results.append
        ue.on_session_done = sessions.append
        ue.register()
        sim.run(until=2.0)
        assert results and results[0].success
        # REGISTERED context stays, but the SBI correlation is released.
        assert len(amf.contexts) == 1
        assert amf._by_correlation == {}
        ue.establish_session()
        sim.run(until=3.0)
        assert sessions and sessions[0].success
        assert amf._by_correlation == {}

    def test_cellbricks_broker_denial_cleans_maps(self):
        sim, brokerd, amf, ue = build_cellbricks_5g(enroll=False)
        results = []
        ue.on_registration_done = results.append
        ue.register()
        sim.run(until=5.0)
        assert results and not results[0].success
        assert amf.contexts == {}
        assert amf._by_correlation == {}
        assert amf._pending_sap == {}
        assert amf.registrations_rejected == 1
        assert dict(amf.rejection_causes)
