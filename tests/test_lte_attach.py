"""Integration tests: the baseline LTE attach over the testbed topology."""

import random

import pytest

from repro.lte import (
    Agw,
    ENodeB,
    Imsi,
    ImsiGenerator,
    SubscriberDb,
    TEST_PLMN,
    UeNas,
    UsimState,
)
from repro.net import Simulator
from repro.testbed.placement import (
    AGW_ADDRESS,
    CLOUD_DB_ADDRESS,
    ENB_ADDRESS,
    TestbedTopology,
)


def build_stack(placement="local", provision=True, seed=1):
    sim = Simulator()
    topo = TestbedTopology.build(sim, placement)
    db = SubscriberDb(topo.db_host, rng=random.Random(seed))
    agw = Agw(topo.agw_host, subscriber_db_ip=CLOUD_DB_ADDRESS)
    enb = ENodeB(topo.enb_host, agw_ip=AGW_ADDRESS)
    imsi = ImsiGenerator().next()
    record = db.provision(imsi) if provision else None
    k = record.k if record else bytes(16)
    ue = UeNas(topo.ue_host, ENB_ADDRESS, imsi, UsimState(k=k),
               str(TEST_PLMN))
    return sim, topo, db, agw, enb, ue, imsi


class TestBaselineAttach:
    def test_attach_succeeds_and_assigns_ip(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        results = []
        ue.on_attach_done = results.append
        ue.attach()
        sim.run(until=2.0)
        assert results and results[0].success
        assert results[0].ue_ip.startswith("10.128.0.")
        assert ue.state == "ATTACHED"
        assert agw.attaches_completed == 1

    def test_attach_creates_bearer_with_subscription_qos(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        ue.attach()
        sim.run(until=2.0)
        bearer = agw.spgw.bearer_for(str(imsi))
        assert bearer is not None
        assert bearer.qci == 9
        assert bearer.active

    def test_attach_performs_two_s6a_round_trips(self):
        """The baseline pays AIR + ULR — the overhead CellBricks removes."""
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        ue.attach()
        sim.run(until=2.0)
        assert db.air_count == 1
        assert db.ulr_count == 1

    def test_unknown_imsi_rejected(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack(provision=False)
        results = []
        ue.on_attach_done = results.append
        ue.attach()
        sim.run(until=2.0)
        assert results and not results[0].success
        assert "USER_UNKNOWN" in results[0].cause
        assert agw.attaches_rejected == 1

    def test_barred_subscriber_rejected(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        db.bar(imsi)
        results = []
        ue.on_attach_done = results.append
        ue.attach()
        sim.run(until=2.0)
        assert results and not results[0].success

    def test_detach_releases_bearer_and_allows_reattach(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        results = []
        ue.on_attach_done = results.append
        ue.attach()
        sim.run(until=2.0)
        ue.detach()
        sim.run(until=3.0)
        assert ue.state == "DEREGISTERED"
        assert agw.spgw.bearer_for(str(imsi)) is None
        ue.attach()
        sim.run(until=5.0)
        assert len(results) == 2 and results[1].success

    def test_attach_latency_grows_with_placement(self):
        latencies = {}
        for placement in ("local", "us-west-1", "us-east-1"):
            sim, topo, db, agw, enb, ue, imsi = build_stack(placement)
            results = []
            ue.on_attach_done = results.append
            ue.attach()
            sim.run(until=2.0)
            latencies[placement] = results[0].latency
        assert latencies["local"] < latencies["us-west-1"] \
            < latencies["us-east-1"]
        # Two S6a round-trips: each placement step adds ~2 RTT deltas.
        delta_we = latencies["us-east-1"] - latencies["us-west-1"]
        assert delta_we == pytest.approx(2 * 2 * (0.0355 - 0.0025), rel=0.05)

    def test_module_times_accumulate(self):
        sim, topo, db, agw, enb, ue, imsi = build_stack()
        ue.attach()
        sim.run(until=2.0)
        assert agw.module_time > 0
        assert enb.module_time > 0
        assert ue.module_time > 0
        assert db.module_time > 0

    def test_concurrent_ues_all_attach(self):
        sim = Simulator()
        topo = TestbedTopology.build(sim, "local")
        db = SubscriberDb(topo.db_host, rng=random.Random(3))
        agw = Agw(topo.agw_host, subscriber_db_ip=CLOUD_DB_ADDRESS)
        enb = ENodeB(topo.enb_host, agw_ip=AGW_ADDRESS)
        gen = ImsiGenerator()
        results = []
        from repro.net import Host, Link
        for i in range(10):
            ue_host = Host(sim, f"ue{i}", address=f"10.2{10 + i}.1.2")
            link = Link(sim, f"radio{i}", ue_host, topo.enb_host,
                        bandwidth_bps=1e9, delay_s=0.0001)
            topo.enb_host.add_route(f"10.2{10 + i}.1", link)
            imsi = gen.next()
            record = db.provision(imsi)
            ue = UeNas(ue_host, ENB_ADDRESS, imsi, UsimState(k=record.k),
                       str(TEST_PLMN))
            ue.on_attach_done = results.append
            sim.schedule(0.001 * i, ue.attach)
        sim.run(until=5.0)
        assert len(results) == 10
        assert all(r.success for r in results)
        ips = {r.ue_ip for r in results}
        assert len(ips) == 10  # unique addresses
