"""Tests for the 5G core substrate and CellBricks-over-5G."""

import pytest

from repro.core import Brokerd, UeSapCredentials
from repro.core.btelco5g import CellBricksAmf, CellBricksUe5G
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair
from repro.fivegc import (
    Amf,
    Ausf,
    Gnb,
    Smf,
    SuciError,
    Udm,
    Ue5G,
    conceal,
    deconceal,
    generate_5g_vector,
    hres_star,
    make_supi,
    usim_authenticate_5g,
)
from repro.fivegc.topology5g import (
    AMF_ADDRESS,
    AUSF_ADDRESS,
    BROKER_ADDRESS,
    GNB_ADDRESS,
    SMF_ADDRESS,
    Topology5G,
    UDM_ADDRESS,
)
from repro.lte.aka import AkaError, UsimState
from repro.net import Simulator

K = bytes(range(16))
SN = "5G:00101"


class TestSuci:
    def test_conceal_deconceal_roundtrip(self):
        key = pooled_keypair(810)
        supi = make_supi(42)
        suci = conceal(supi, key.public_key)
        assert deconceal(suci, key) == supi

    def test_suci_hides_msin(self):
        key = pooled_keypair(810)
        supi = make_supi(42)
        suci = conceal(supi, key.public_key)
        assert supi.msin.encode() not in suci.concealed_msin

    def test_suci_randomized(self):
        key = pooled_keypair(810)
        supi = make_supi(42)
        assert conceal(supi, key.public_key).concealed_msin != \
            conceal(supi, key.public_key).concealed_msin

    def test_wrong_home_key_fails(self):
        suci = conceal(make_supi(42), pooled_keypair(810).public_key)
        with pytest.raises(SuciError):
            deconceal(suci, pooled_keypair(811))

    def test_plmn_bound(self):
        """The concealment binds the routing PLMN (associated data)."""
        from dataclasses import replace
        from repro.lte.identifiers import Plmn
        key = pooled_keypair(810)
        suci = conceal(make_supi(42), key.public_key)
        tampered = replace(suci, plmn=Plmn("999", "99"))
        with pytest.raises(SuciError):
            deconceal(tampered, key)


class TestAka5G:
    def test_mutual_authentication_and_key_agreement(self):
        vector = generate_5g_vector(K, sqn=5, serving_network=SN)
        usim = UsimState(k=K, highest_sqn=4)
        res_star, kausf = usim_authenticate_5g(usim, vector.rand,
                                               vector.autn, SN)
        assert res_star == vector.xres_star
        assert kausf == vector.kausf

    def test_res_star_binds_serving_network(self):
        """RES* differs across serving networks: a rogue SN cannot replay
        a response captured elsewhere."""
        vector = generate_5g_vector(K, sqn=5, serving_network=SN)
        usim = UsimState(k=K, highest_sqn=4)
        res_star, _ = usim_authenticate_5g(usim, vector.rand, vector.autn,
                                           "5G:99999")
        assert res_star != vector.xres_star

    def test_replay_rejected(self):
        vector = generate_5g_vector(K, sqn=5, serving_network=SN)
        usim = UsimState(k=K, highest_sqn=4)
        usim_authenticate_5g(usim, vector.rand, vector.autn, SN)
        with pytest.raises(AkaError):
            usim_authenticate_5g(usim, vector.rand, vector.autn, SN)

    def test_hres_star_deterministic(self):
        vector = generate_5g_vector(K, sqn=5, serving_network=SN)
        assert hres_star(vector.xres_star, vector.rand) == \
            hres_star(vector.xres_star, vector.rand)


def build_baseline(placement="local", provision=True):
    sim = Simulator()
    topo = Topology5G.build(sim, placement)
    home_key = pooled_keypair(812)
    udm = Udm(topo.udm_host, home_network_key=home_key)
    ausf = Ausf(topo.ausf_host, udm_ip=UDM_ADDRESS)
    smf = Smf(topo.smf_host)
    amf = Amf(topo.amf_host, ausf_ip=AUSF_ADDRESS, smf_ip=SMF_ADDRESS)
    Gnb(topo.gnb_host, agw_ip=AMF_ADDRESS)
    supi = make_supi(7)
    if provision:
        udm.provision(supi, K)
    ue = Ue5G(topo.ue_host, GNB_ADDRESS, supi, UsimState(k=K),
              home_key.public_key, serving_network=amf.serving_network)
    return sim, topo, udm, ausf, smf, amf, ue


class TestBaselineRegistration:
    def test_registration_and_session(self):
        sim, topo, udm, ausf, smf, amf, ue = build_baseline()
        registrations, sessions = [], []
        ue.on_registration_done = registrations.append
        ue.on_session_done = sessions.append
        ue.register()
        sim.run(until=2.0)
        assert registrations and registrations[0].success
        assert amf.registrations_completed == 1
        ue.establish_session()
        sim.run(until=3.0)
        assert sessions and sessions[0].success
        assert sessions[0].ue_ip.startswith("10.128.0.")

    def test_amf_sees_supi_in_baseline(self):
        """The visited 5G network learns the SUPI after auth — exactly
        what CellBricks' pseudonyms avoid."""
        sim, topo, udm, ausf, smf, amf, ue = build_baseline()
        ue.on_registration_done = lambda r: None
        ue.register()
        sim.run(until=2.0)
        context = next(iter(amf.contexts.values()))
        assert context.supi == str(ue.supi)

    def test_unprovisioned_supi_rejected(self):
        sim, topo, udm, ausf, smf, amf, ue = build_baseline(provision=False)
        results = []
        ue.on_registration_done = results.append
        ue.register()
        sim.run(until=2.0)
        assert results and not results[0].success

    def test_latency_grows_with_two_home_round_trips(self):
        latencies = {}
        for placement in ("local", "us-west-1"):
            sim, topo, udm, ausf, smf, amf, ue = build_baseline(placement)
            results = []
            ue.on_registration_done = results.append
            ue.register()
            sim.run(until=2.0)
            latencies[placement] = results[0].latency
        delta = latencies["us-west-1"] - latencies["local"]
        # Two home round trips: ~2 x (RTT_west - RTT_local).
        expected = 2 * 2 * (0.0025 - 0.0002)
        assert delta == pytest.approx(expected, rel=0.1)


def build_cellbricks_5g(placement="local"):
    sim = Simulator()
    topo = Topology5G.build(sim, placement)
    ca = CertificateAuthority(key=pooled_keypair(813))
    brokerd = Brokerd(topo.broker_host, id_b="b5g",
                      ca_public_key=ca.public_key, key=pooled_keypair(814))
    telco_key = pooled_keypair(815)
    cert = ca.issue("t5g", "btelco", telco_key.public_key)
    Smf(topo.smf_host)
    amf = CellBricksAmf(topo.amf_host, broker_ip=BROKER_ADDRESS,
                        smf_ip=SMF_ADDRESS, id_t="t5g", key=telco_key,
                        certificate=cert, ca_public_key=ca.public_key)
    amf.trust_broker("b5g", brokerd.public_key)
    Gnb(topo.gnb_host, agw_ip=AMF_ADDRESS)
    ue_key = pooled_keypair(816)
    brokerd.enroll_subscriber("carol", ue_key.public_key)
    credentials = UeSapCredentials(id_u="carol", id_b="b5g",
                                   ue_key=ue_key,
                                   broker_public_key=brokerd.public_key)
    ue = CellBricksUe5G(topo.ue_host, GNB_ADDRESS, credentials,
                        target_id_t="t5g")
    return sim, topo, brokerd, amf, ue


class TestCellBricks5G:
    def test_sap_registration_and_session(self):
        sim, topo, brokerd, amf, ue = build_cellbricks_5g()
        registrations, sessions = [], []
        ue.on_registration_done = registrations.append
        ue.on_session_done = sessions.append
        ue.register()
        sim.run(until=2.0)
        assert registrations and registrations[0].success
        assert brokerd.requests_approved == 1
        ue.establish_session()
        sim.run(until=3.0)
        assert sessions and sessions[0].success

    def test_amf_never_sees_subscriber_identity(self):
        sim, topo, brokerd, amf, ue = build_cellbricks_5g()
        ue.on_registration_done = lambda r: None
        ue.register()
        sim.run(until=2.0)
        context = next(iter(amf.contexts.values()))
        assert "carol" not in (context.supi or "")
        assert context.supi.startswith("anon-")

    def test_keys_match_between_ue_and_amf(self):
        sim, topo, brokerd, amf, ue = build_cellbricks_5g()
        ue.on_registration_done = lambda r: None
        ue.register()
        sim.run(until=2.0)
        context = next(iter(amf.contexts.values()))
        assert ue.security.k_nas_int == context.security.k_nas_int

    def test_cb_beats_baseline_when_home_side_is_remote(self):
        def register(builder, placement):
            sim_objects = builder(placement)
            sim, ue = sim_objects[0], sim_objects[-1]
            results = []
            ue.on_registration_done = results.append
            ue.register()
            sim.run(until=2.0)
            assert results[0].success
            return results[0].latency

        bl = register(build_baseline, "us-east-1")
        cb = register(build_cellbricks_5g, "us-east-1")
        # One broker RTT vs two home-network RTTs.
        assert cb < 0.7 * bl
