"""Multi-tenancy tests: one bTelco cell serving several brokers' users.

"bTelcos are inherently multi-tenant (that is, a single bTelco cell site
can support multiple brokers)" (§3.1): several UEs, enrolled with
*different* brokers, attach to the same bTelco and share its radio and
its PGW, each under its own broker-assigned QoS.
"""

import pytest

from repro.core import (
    Brokerd,
    CellBricksAgw,
    CellBricksAmf,
    CellBricksUe,
    CellBricksUe5G,
    QosCapabilities,
    QosInfo,
    UeSapCredentials,
)
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair
from repro.fivegc import Smf
from repro.lte import ENodeB
from repro.net import Host, Link, Simulator

SIG_BW = 1e9


def build_shared_cell(broker_count=2, ues_per_broker=2, rat="lte"):
    """One bTelco site (AGW or AMF); N brokers each with M subscribers."""
    sim = Simulator()
    ca = CertificateAuthority(key=pooled_keypair(860))

    enb_host = Host(sim, "enb", address="10.250.0.1")
    agw_host = Host(sim, "agw", address="10.251.0.1")
    backhaul = Link(sim, "backhaul", enb_host, agw_host,
                    bandwidth_bps=SIG_BW, delay_s=0.00015)
    enb_host.add_route("10.251.0", backhaul)
    agw_host.add_route("10.250.0", backhaul)

    telco_key = pooled_keypair(861)
    certificate = ca.issue("shared-cell", "btelco", telco_key.public_key)
    site = dict(broker_ip="", id_t="shared-cell", key=telco_key,
                certificate=certificate, ca_public_key=ca.public_key,
                qos_capabilities=QosCapabilities(supported_qcis=(8, 9)))
    if rat == "lte":
        agw = CellBricksAgw(agw_host, **site)
        ue_class = CellBricksUe
    else:
        smf_host = Host(sim, "smf", address="10.252.0.1")
        smf_link = Link(sim, "smf-link", agw_host, smf_host,
                        bandwidth_bps=SIG_BW, delay_s=0.0002)
        agw_host.add_route("10.252.0", smf_link)
        smf_host.add_route("10.251.0", smf_link)
        Smf(smf_host)
        agw = CellBricksAmf(agw_host, smf_ip=smf_host.address, **site)
        ue_class = CellBricksUe5G
    enb = ENodeB(enb_host, agw_ip=agw_host.address)

    brokers = []
    ues = []
    for b in range(broker_count):
        broker_host = Host(sim, f"broker{b}", address=f"52.{30 + b}.0.1")
        link = Link(sim, f"broker{b}-link", agw_host, broker_host,
                    bandwidth_bps=SIG_BW, delay_s=0.0025)
        agw_host.add_route(f"52.{30 + b}.0", link)
        broker_host.add_route("10.251.0", link)
        brokerd = Brokerd(broker_host, id_b=f"broker-{b}",
                          ca_public_key=ca.public_key,
                          key=pooled_keypair(862 + b))
        agw.trust_broker(f"broker-{b}", brokerd.public_key,
                         endpoint_ip=broker_host.address)
        brokers.append(brokerd)
        for u in range(ues_per_broker):
            index = b * ues_per_broker + u
            ue_host = Host(sim, f"ue{index}",
                           address=f"10.2{20 + index}.0.2")
            radio = Link(sim, f"radio{index}", ue_host, enb_host,
                         bandwidth_bps=SIG_BW, delay_s=0.0001)
            enb_host.add_route(f"10.2{20 + index}.0", radio)
            ue_key = pooled_keypair(870 + index)
            subscriber = f"sub-{b}-{u}"
            brokerd.enroll_subscriber(subscriber, ue_key.public_key)
            credentials = UeSapCredentials(
                id_u=subscriber, id_b=f"broker-{b}", ue_key=ue_key,
                broker_public_key=brokerd.public_key)
            ue = ue_class(ue_host, enb_host.address, credentials,
                          target_id_t="shared-cell", name=f"ue-{index}")
            ues.append((brokerd, ue))
    return sim, agw, enb, brokers, ues


class TestSharedCell:
    def test_users_of_multiple_brokers_attach_to_one_cell(self):
        sim, agw, enb, brokers, ues = build_shared_cell()
        results = []
        for offset, (brokerd, ue) in enumerate(ues):
            ue.on_attach_done = results.append
            sim.schedule(0.01 * offset, ue.attach)
        sim.run(until=3.0)
        assert len(results) == len(ues)
        assert all(r.success for r in results)
        # All four UEs hold addresses from the one shared cell's pool.
        assert agw.spgw.active_count == len(ues)
        ips = {r.ue_ip for r in results}
        assert len(ips) == len(ues)
        assert all(ip.startswith("10.128.0.") for ip in ips)
        # Each broker authorized exactly its own subscribers.
        for brokerd in brokers:
            assert brokerd.requests_approved == 2

    def test_per_broker_qos_applied_on_shared_cell(self):
        sim, agw, enb, brokers, ues = build_shared_cell()
        # Broker 0 sells premium (QCI 8 / 50 Mbps), broker 1 budget.
        for subscriber in brokers[0].sap.enrolled():
            subscriber.qos_plan = QosInfo(qci=8, ambr_dl_bps=50e6,
                                          ambr_ul_bps=20e6)
        for subscriber in brokers[1].sap.enrolled():
            subscriber.qos_plan = QosInfo(qci=9, ambr_dl_bps=2e6,
                                          ambr_ul_bps=1e6)
        for offset, (brokerd, ue) in enumerate(ues):
            sim.schedule(0.01 * offset, ue.attach)
        sim.run(until=3.0)
        qcis = sorted(bearer.qci for bearer in agw.spgw.bearers.values())
        assert qcis == [8, 8, 9, 9]
        ambrs = sorted(bearer.ambr_dl_bps
                       for bearer in agw.spgw.bearers.values())
        assert ambrs == [2e6, 2e6, 50e6, 50e6]


@pytest.mark.parametrize("rat", ["lte", "5g"])
def test_each_broker_authorizes_its_own_users_on_either_rat(rat):
    """§3.1 says nothing about the generation: the same shared cell,
    as an AGW or as an AMF, routes each authReqU to the broker it names
    and admits the user under that broker's QoS."""
    sim, site, enb, brokers, ues = build_shared_cell(rat=rat)
    for subscriber in brokers[0].sap.enrolled():
        subscriber.qos_plan = QosInfo(qci=8, ambr_dl_bps=50e6,
                                      ambr_ul_bps=20e6)
    for subscriber in brokers[1].sap.enrolled():
        subscriber.qos_plan = QosInfo(qci=9, ambr_dl_bps=2e6,
                                      ambr_ul_bps=1e6)
    results = []
    for offset, (brokerd, ue) in enumerate(ues):
        ue.on_attach_done = results.append
        sim.schedule(0.01 * offset, ue.attach)
    sim.run(until=3.0)
    assert len(results) == len(ues) and all(r.success for r in results)
    for brokerd in brokers:
        assert brokerd.requests_approved == 2
    granted = sorted(
        (site.session_brokers[session_id], session.qos_info.qci,
         session.qos_info.ambr_dl_bps)
        for session_id, session in site.sessions.items())
    assert granted == [("broker-0", 8, 50e6), ("broker-0", 8, 50e6),
                       ("broker-1", 9, 2e6), ("broker-1", 9, 2e6)]
