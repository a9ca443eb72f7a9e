"""Integration tests: SAP attach + host-driven mobility over the full
multi-bTelco network."""

import pytest

from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.net import Simulator


@pytest.fixture()
def network():
    sim = Simulator()
    net = build_cellbricks_network(sim, site_names=("btelco-a", "btelco-b"))
    return sim, net


class TestSapAttach:
    def test_attach_succeeds_against_unknown_btelco(self, network):
        """The defining CellBricks property: no pre-established agreement
        between the UE/broker and the serving bTelco."""
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert manager.ue.state == "ATTACHED"
        assert manager.ue.ue_ip.startswith("10.128.0.")
        assert net.brokerd.requests_approved == 1

    def test_security_context_established_from_ss(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        context = next(iter(agw.contexts.values()))
        # UE and bTelco derived identical NAS keys from the broker's ss.
        assert manager.ue.security.k_nas_enc == context.security.k_nas_enc
        assert manager.ue.security.k_nas_int == context.security.k_nas_int

    def test_btelco_learns_only_pseudonym(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        context = next(iter(agw.contexts.values()))
        assert "alice" not in context.subscriber_id
        assert context.subscriber_id.startswith("anon-")

    def test_unenrolled_ue_rejected(self, network):
        sim, net = network
        net.brokerd.revoke_subscriber("alice")
        manager = MobilityManager(net)
        results = []
        manager.start("btelco-a")
        manager.ue.on_attach_done = results.append
        sim.run(until=1.0)
        assert results and not results[0].success
        assert net.brokerd.requests_denied == 1

    def test_attach_uses_single_broker_round_trip(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        # Exactly one request hit brokerd (vs 2 S6a RTs in the baseline).
        assert net.brokerd.messages_handled == 1

    def test_qos_info_applied_to_bearer(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        context = next(iter(agw.contexts.values()))
        caps = agw.sap.config.qos_capabilities
        assert context.bearer.qci in caps.supported_qcis
        assert context.bearer.ambr_dl_bps <= caps.max_ambr_dl_bps


class TestHostDrivenMobility:
    def test_switch_between_btelcos(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        first_ip = manager.ue.ue_ip
        manager.switch_to("btelco-b")
        sim.run(until=2.0)
        assert manager.ue.state == "ATTACHED"
        assert manager.ue.ue_ip.startswith("10.129.0.")
        assert manager.ue.ue_ip != first_ip
        assert len(manager.attach_latencies) == 2

    def test_switch_requires_no_intertelco_coordination(self, network):
        """bTelco A's AGW never talks to bTelco B's — all coordination is
        host-driven."""
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        a_sent_before = net.sites["btelco-a"].agw.messages_sent
        b_handled_before = net.sites["btelco-b"].agw.messages_handled
        manager.switch_to("btelco-b")
        sim.run(until=2.0)
        # A's only activity is tearing down its own side of the UE's
        # courtesy detach (one S1 release towards its own eNodeB); it
        # exchanges nothing with B.
        assert net.sites["btelco-a"].agw.messages_sent <= a_sent_before + 1
        # Everything B handled came from its eNB or the broker — count:
        # SAP request, broker response, SMC complete, attach complete.
        assert net.sites["btelco-b"].agw.messages_handled \
            == b_handled_before + 4

    def test_data_path_address_follows_attach(self):
        sim = Simulator()
        net = build_cellbricks_network(sim, with_data_path=True)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert net.data_path.ue.address == manager.ue.ue_ip
        manager.switch_to("btelco-b")
        sim.run(until=2.0)
        assert net.data_path.ue.address == manager.ue.ue_ip
        assert net.data_path.ue.address.startswith("10.129.0.")

    def test_repeated_switching(self, network):
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        for i in range(4):
            manager.switch_to("btelco-b" if i % 2 == 0 else "btelco-a")
            sim.run(until=sim.now + 1.0)
        assert manager.switches == 4
        assert len(manager.attach_latencies) == 5
        assert manager.ue.state == "ATTACHED"

    def test_broker_assigned_ambr_enforced_on_data_plane(self):
        """§4.1 QoS enforcement: the bTelco polices the UE's downlink to
        the broker's qosInfo AMBR."""
        from repro.apps import IperfClient, IperfServer, KIND_MPTCP
        from repro.core.qos import QosInfo

        sim = Simulator()
        net = build_cellbricks_network(sim, with_data_path=True)
        net.brokerd.sap.subscriber("alice").qos_plan = QosInfo(
            qci=9, ambr_dl_bps=5e6, ambr_ul_bps=2e6)
        manager = MobilityManager(net, enforce_qos=True)
        IperfServer(KIND_MPTCP, net.data_path.server)
        manager.start("btelco-a")
        sim.run(until=1.0)
        client = IperfClient(KIND_MPTCP, net.data_path.ue,
                             net.data_path.server.address)
        client.start()
        sim.run(until=21.0)
        achieved = client.stats.average_mbps(20.0)
        # The radio could do 75 Mbps; the PGW polices to the plan's 5.
        assert 3.0 < achieved < 6.0

    def test_attach_latency_reasonable(self, network):
        """SAP latency at the ~us-west broker placement should sit in the
        paper's 30-80 ms envelope (§6.2 expects 30-80 ms)."""
        sim, net = network
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert 0.020 < manager.attach_latencies[0] < 0.080


class TestSessionExpiry:
    def test_expired_authorization_triggers_network_detach(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        net.brokerd.sap.session_ttl = 5.0  # short-lived grants
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert manager.ue.state == "ATTACHED"
        detached = []
        manager.ue.on_detached = lambda: detached.append(sim.now)
        agw = net.sites["btelco-a"].agw
        sim.run(until=10.0)
        assert agw.expired_sessions == 1
        assert detached and detached[0] == pytest.approx(5.0, abs=1.0)
        assert manager.ue.state == "DEREGISTERED"
        # The bearer (and its address) was reclaimed.
        assert agw.spgw.active_count == 0

    def test_reattach_before_expiry_survives(self):
        """Switching bTelcos mints a fresh authorization; the old one's
        expiry must not kill the new session."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        net.brokerd.sap.session_ttl = 5.0
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        manager.switch_to("btelco-b")
        sim.run(until=2.0)
        manager.switch_to("btelco-a")  # back on A under a new grant
        sim.run(until=3.0)
        assert manager.ue.state == "ATTACHED"
        # Grants #1 (expires ~6.0) and #2 (~6.0) are stale by 6.5; only
        # the current grant #3 (expires ~7.0) is live.  The stale
        # expiries must not detach the UE...
        sim.run(until=6.5)
        assert manager.ue.state == "ATTACHED"
        # ...but the live grant's expiry eventually does.
        sim.run(until=8.0)
        assert manager.ue.state == "DEREGISTERED"
