"""Mobility-scoped grants (§4.2): broker-free re-attach, fallback and
failure recovery on the mobility path, and replay defense across a
broker shard failover."""

from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.net import Simulator


def _scoped_start(sim, net, telcos, start="btelco-a", ttl=300.0):
    manager = MobilityManager(net)
    manager.start(start)
    manager.ue.scope_request = {"telcos": list(telcos), "ttl": ttl}
    sim.run(until=sim.now + 2.0)
    return manager


def _auth_rpcs(brokerd):
    return brokerd.requests_approved + brokerd.requests_denied


class TestScopedReattach:
    def test_in_scope_switch_uses_zero_broker_rpcs(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = _scoped_start(sim, net, ("btelco-a", "btelco-b"))
        assert manager.ue.state == "ATTACHED"
        assert manager.ue.mobility_grant is not None

        before = _auth_rpcs(net.brokerd)
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)

        assert manager.ue.state == "ATTACHED"
        assert manager.current_site.name == "btelco-b"
        # The defining scoped-grant property: the handover never talked
        # to the broker's auth path.
        assert _auth_rpcs(net.brokerd) == before
        assert manager.ue.scoped_attaches == 1
        assert net.sites["btelco-b"].agw.scoped_attaches == 1

    def test_in_scope_switch_uses_zero_broker_rpcs_5g(self):
        sim = Simulator()
        net = build_cellbricks_network(sim, rat="5g")
        manager = _scoped_start(sim, net, ("btelco-a", "btelco-b"))
        assert manager.ue.state == "REGISTERED"
        assert manager.ue.mobility_grant is not None

        before = _auth_rpcs(net.brokerd)
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)

        assert manager.ue.state == "REGISTERED"
        assert manager.current_site.name == "btelco-b"
        assert _auth_rpcs(net.brokerd) == before
        assert net.sites["btelco-b"].agw.scoped_attaches == 1

    def test_out_of_scope_switch_falls_back_to_full_auth(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = _scoped_start(sim, net, ("btelco-a",))
        assert manager.ue.mobility_grant is not None
        assert manager.ue.mobility_grant.token.telcos == ("btelco-a",)

        before = _auth_rpcs(net.brokerd)
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)

        # Not covered by the grant: a normal authReqU round-trip.
        assert manager.ue.state == "ATTACHED"
        assert _auth_rpcs(net.brokerd) == before + 1
        assert net.sites["btelco-b"].agw.scoped_attaches == 0

    def test_async_notice_repoints_revocation_cascade(self):
        """Billing/revocation continuity: the scope-local attach is
        reported asynchronously, so a later revocation cascades to the
        *new* serving bTelco even though the broker never saw an
        authReqT from it."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = _scoped_start(sim, net, ("btelco-a", "btelco-b"))
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)
        assert net.brokerd.scope_notices_accepted == 1

        detached = []
        manager.ue.on_detached = lambda: detached.append(sim.now)
        net.brokerd.revoke_subscriber("alice")
        sim.run(until=sim.now + 2.0)
        assert detached, "revocation never reached the scoped-attach site"
        assert manager.ue.state != "ATTACHED"


class TestFailedSwitchRecovery:
    def test_failed_switch_recovers_lte(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=sim.now + 2.0)
        assert manager.ue.state == "ATTACHED"

        net.brokerd.revoke_subscriber("alice")
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)

        assert manager.attach_failures == 1
        assert manager.detached
        # The satellite fix under test: a failed switch leaves
        # current_site naming the last site that actually held a
        # bearer, so recovery knows where to go back to.
        assert manager.current_site.name == "btelco-a"
        assert manager.target_site is None

        net.brokerd.sap.subscriber("alice").suspended = False
        manager.reattach()
        sim.run(until=sim.now + 2.0)
        assert manager.ue.state == "ATTACHED"
        assert manager.current_site.name == "btelco-a"
        assert not manager.detached

    def test_failed_switch_recovers_5g(self):
        sim = Simulator()
        net = build_cellbricks_network(sim, rat="5g")
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=sim.now + 2.0)
        assert manager.ue.state == "REGISTERED"

        net.brokerd.revoke_subscriber("alice")
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 2.0)

        assert manager.attach_failures == 1
        assert manager.detached
        assert manager.current_site.name == "btelco-a"
        assert manager.target_site is None

        net.brokerd.sap.subscriber("alice").suspended = False
        manager.reattach()
        sim.run(until=sim.now + 2.0)
        assert manager.ue.state == "REGISTERED"
        assert not manager.detached

    def test_scoped_reattach_after_failed_switch_no_broker_rpc(self):
        """A switch that dies on a dark radio link must not burn the
        grant: recovery re-attaches to the old site scope-locally, with
        zero broker auth RPCs across the whole episode."""
        from repro.emulation.chaos import (ChaosMonkey, ChaosSchedule,
                                           outage)

        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = _scoped_start(sim, net, ("btelco-a", "btelco-b"))
        assert manager.ue.mobility_grant is not None

        monkey = ChaosMonkey(sim, net.links)
        monkey.arm(ChaosSchedule().add(
            outage(sim.now, 30.0, "btelco-b-sig-radio")))
        before = _auth_rpcs(net.brokerd)
        manager.switch_to("btelco-b")
        sim.run(until=sim.now + 15.0)

        assert manager.attach_failures == 1
        assert manager.detached
        assert manager.current_site.name == "btelco-a"
        assert manager.ue.mobility_grant is not None, \
            "a transport failure must not drop the grant"

        manager.reattach()
        sim.run(until=sim.now + 2.0)
        assert manager.ue.state == "ATTACHED"
        assert manager.current_site.name == "btelco-a"
        assert _auth_rpcs(net.brokerd) == before
        assert net.sites["btelco-a"].agw.scoped_attaches >= 1


class TestShardFailoverReplay:
    def test_replayed_counter_denied_across_failover(self):
        """The scoped-attach replay floor is shard state: it must be
        replicated to the warm replica so a promoted replica still
        denies an attacker replaying a counter the dead primary had
        already committed."""
        from repro.core.shardhost import deploy_shard_hosts

        sim = Simulator()
        net = build_cellbricks_network(
            sim, site_names=("s0", "s1", "s2"), seed=8)
        frontend = deploy_shard_hosts(net, num_shards=2)
        manager = MobilityManager(net)
        manager.start("s0")
        manager.ue.scope_request = {"telcos": ["s0", "s1", "s2"],
                                    "ttl": 300.0}
        sim.run(until=sim.now + 3.0)
        assert manager.ue.mobility_grant is not None

        manager.switch_to("s1")
        sim.run(until=sim.now + 3.0)
        assert manager.ue.scoped_attaches == 1
        assert net.brokerd.scope_notices_accepted == 1

        grant = manager.ue.mobility_grant
        sid = grant.session_id
        shard_id = frontend.ring.shard_for(
            net.brokerd.sap.session_owner(sid))
        state = frontend.states[shard_id]
        primary = state.hosts[state.primary_addr]
        replica = state.hosts[state.standby_addr]
        sim.run(until=sim.now + 0.5)  # replication flush
        committed = primary.sap.shards[0].scope_counters.get(sid)
        assert committed == 1
        assert replica.sap.shards[0].scope_counters.get(sid) == committed

        primary.crash()
        frontend.notify_activity()  # heartbeats idle-stop while quiet
        sim.run(until=sim.now + 3.0)
        assert state.status == "healthy"
        assert state.primary_addr == replica.host.address

        # Replay the committed counter from a third site the session
        # never touched: the promoted replica must refuse to advance.
        agw2 = net.sites["s2"].agw
        denied_before = net.brokerd.scope_notices_denied
        agw2._notify_scope_attach(grant.token, committed)
        sim.run(until=sim.now + 5.0)
        assert net.brokerd.scope_notices_denied == denied_before + 1
        assert agw2.scope_notice_nacks == 1
        promoted = state.hosts[state.primary_addr]
        assert promoted.scope_nacks >= 1
