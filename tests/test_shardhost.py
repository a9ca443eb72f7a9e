"""Distributed broker shards: network-attached shard hosts behind the
frontend hash ring.

Covers the robustness acceptance bars: routing + replication on the
happy path, failover with the replay window carried by the replica,
degraded-mode fast-fail (retryable) when a whole shard is dark plus
recovery after a host rejoins, live rebalance over real links moving
the replay window with the subscriber, rebalance during the in-process
batched pipeline (no lost or double-served request), UE backoff/retry
on retryable denials on both RATs, and byte-identical frontend metrics
under a fixed seed.
"""

import json

import pytest

from repro.core.messages import (
    BrokerAuthRequest,
    BrokerAuthResponse,
    DenialCause,
)
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.core.sap import UeSap, UeSapCredentials
from repro.core.shardhost import deploy_shard_hosts
from repro.lte.signaling import SignalingNode
from repro.net import Host, Link, Simulator
from repro.obs import Obs


def build_distributed(num_shards=2, spares=0,
                      site_names=("btelco-a", "btelco-b")):
    sim = Simulator()
    net = build_cellbricks_network(sim, site_names=site_names)
    frontend = deploy_shard_hosts(net, num_shards=num_shards,
                                  spares=spares)
    return sim, net, frontend


def craft_request(net, id_u, site_name="btelco-a",
                  lawful_intercept=False):
    """A fresh authReqU for ``id_u`` (enrolled with alice's keypair),
    countersigned by ``site_name``'s bTelco."""
    creds = net.credentials
    ue = UeSap(UeSapCredentials(
        id_u=id_u, id_b=creds.id_b, ue_key=creds.ue_key,
        broker_public_key=creds.broker_public_key))
    req_u = ue.craft_request(site_name)
    return req_u, net.sites[site_name].agw.sap.augment_request(
        req_u, lawful_intercept=lawful_intercept)


class BrokerProbe:
    """A bare signaling endpoint that submits auth requests straight to
    the broker daemon and records every response."""

    def __init__(self, net, address="52.23.0.9"):
        sim = net.sim
        self.host = Host(sim, "probe", address=address)
        self.node = SignalingNode(self.host, name="probe")
        link = Link(sim, "probe-broker", self.host, net.broker_host,
                    1e9, 0.001)
        self.host.add_route(
            net.broker_host.address.rsplit(".", 1)[0], link)
        net.broker_host.add_route(address.rsplit(".", 1)[0], link)
        self.broker_ip = net.broker_host.address
        self.responses = []
        self.node.on(BrokerAuthResponse,
                     lambda src, resp: self.responses.append(resp))
        self._token = 0

    def submit(self, auth_req_t):
        self._token += 1
        self.node.send_request(
            self.broker_ip,
            BrokerAuthRequest(auth_req_t=auth_req_t,
                              reply_token=self._token),
            size=auth_req_t.wire_size, timeout=0.5, max_attempts=5)


def owning_host(frontend, id_u):
    sid = frontend.ring.shard_for(id_u)
    st = frontend.states[sid]
    return sid, st.hosts[st.primary_addr], st.hosts[st.standby_addr]


class TestRoutingAndReplication:
    def test_attach_served_by_owning_shard_host(self):
        sim, net, frontend = build_distributed()
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert manager.ue.state == "ATTACHED"
        assert net.brokerd.requests_approved == 1
        sid, primary, _ = owning_host(frontend, "alice")
        assert primary.auths_served == 1
        for other_sid in frontend.active_ids:
            if other_sid != sid:
                st = frontend.states[other_sid]
                assert st.hosts[st.primary_addr].auths_served == 0

    def test_replication_streams_replay_window_to_standby(self):
        sim, net, frontend = build_distributed()
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        _, primary, standby = owning_host(frontend, "alice")
        assert primary.repl_batches_sent >= 1
        assert standby._applied_seq >= 1
        # The standby holds the nonce, the grant, and the cached
        # response for the auth its primary just served.
        assert len(standby.sap.shards[0].seen_nonces) == 1
        assert len(standby.sap.shards[0].grants) == 1
        assert standby.sap.stats()["response_cache_size"] == 1

    def test_duplicate_request_served_from_idempotency_cache(self):
        sim, net, frontend = build_distributed()
        probe = BrokerProbe(net)
        _, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.schedule(0.4, probe.submit, req_t)
        sim.run(until=1.5)
        assert len(probe.responses) == 2
        assert all(resp.approved for resp in probe.responses)
        _, primary, _ = owning_host(frontend, "alice")
        assert primary.auths_served == 1
        assert primary.cache_serves == 1
        # One billing ledger: the cached re-serve must not reopen it.
        assert len(net.brokerd.billing.sessions) == 1

    def test_distributed_stats_exposed_via_brokerd(self):
        sim, net, frontend = build_distributed(spares=1)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        stats = net.brokerd.stats()["distributed"]
        assert stats["active_shards"] == [0, 1]
        assert stats["spare_shards"] == [2]
        assert set(stats["shard_status"]) == {"0", "1", "2"}
        assert stats["failovers_total"] == 0
        assert "hosts" in stats and len(stats["hosts"]) == 6


class TestFailover:
    def test_crash_promotes_replica_and_attach_recovers(self):
        sim, net, frontend = build_distributed()
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        sid, primary, _ = owning_host(frontend, "alice")
        primary.crash()
        sim.run(until=3.0)
        st = frontend.states[sid]
        assert frontend.failovers_total.value == 1
        assert st.status == "healthy"
        assert len(frontend.failover_log) == 1
        assert frontend.failover_log[0]["shard"] == sid
        # The promoted host is the old replica, now serving as primary.
        promoted = st.hosts[st.primary_addr]
        assert promoted.promotions == 1
        manager.switch_to("btelco-b")
        sim.run(until=4.0)
        assert manager.ue.state == "ATTACHED"
        assert promoted.auths_served >= 1

    def test_replay_denied_across_failover(self):
        sim, net, frontend = build_distributed()
        probe = BrokerProbe(net)
        req_u, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.run(until=0.5)
        assert probe.responses and probe.responses[0].approved
        _, primary, _ = owning_host(frontend, "alice")
        primary.crash()
        sim.run(until=2.5)   # detection + promotion complete
        # Same single-use nonce re-signed into a different envelope (LI
        # flag flips the digest): the idempotency cache cannot serve it,
        # so the promoted replica must consult its replay window.
        tampered = net.sites["btelco-a"].agw.sap.augment_request(
            req_u, lawful_intercept=True)
        probe.submit(tampered)
        sim.run(until=3.5)
        final = probe.responses[-1]
        assert not final.approved
        assert "replay" in final.cause


class TestStandbyOutage:
    def test_replay_denied_after_a_standby_outage_and_a_failover(self):
        """A standby that sat out a partition *kept* its state, so the
        resync the frontend orders on heal reaches a receiver that
        remembers the old stream.  It must apply the snapshot (not ack
        it as a duplicate), or every auth since the heal is missing from
        the replay window the next failover promotes."""
        sim, net, frontend = build_distributed()
        ids = [f"sub-{i}" for i in range(6)]
        for id_u in ids:
            net.brokerd.enroll_subscriber(
                id_u, net.credentials.ue_key.public_key)
        sid, primary, standby = owning_host(frontend, ids[0])
        owned = [id_u for id_u in ids
                 if frontend.ring.shard_for(id_u) == sid]
        probe = BrokerProbe(net)

        def attach_each(delay):
            requests = [craft_request(net, id_u)[1] for id_u in owned]
            for index, req_t in enumerate(requests):
                sim.schedule(delay + 0.05 * index, frontend.notify_activity)
                sim.schedule(delay + 0.05 * index, probe.submit, req_t)
            return requests

        attach_each(0.1)
        sim.run(until=1.0)
        assert standby._applied_seq >= 1
        # Both of the standby's links go dark for longer than the
        # detection timeout; nobody crashes.
        outage = [net.links[f"shard{sid}r-broker"],
                  net.links[f"shard{sid}-repl"]]
        for link in outage:
            link.set_up(False)
            sim.schedule(1.2, link.set_up, True)
        after_heal = attach_each(1.4)
        sim.run(until=sim.now + 3.0)
        assert len(probe.responses) == 2 * len(owned)
        assert all(resp.approved for resp in probe.responses)
        assert frontend.resyncs_total.value == 1
        assert primary.repl_backlog_ops == 0
        for host in (primary, standby):
            host.sap.begin_window(sim.now)
        assert primary.sap.export() == standby.sap.export()
        primary.crash()
        sim.run(until=sim.now + 2.0)     # detection + promotion
        assert not standby.is_replica
        probe.submit(net.sites["btelco-a"].agw.sap.augment_request(
            after_heal[0].auth_req_u))
        sim.run(until=sim.now + 1.0)
        final = probe.responses[-1]
        assert not final.approved
        assert "replay" in final.cause


class TestDegradedMode:
    def test_total_shard_loss_fast_fails_retryable_then_recovers(self):
        sim, net, frontend = build_distributed()
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=0.5)
        sid, primary, standby = owning_host(frontend, "alice")
        sim.schedule(1.0, primary.crash)
        sim.schedule(1.0, standby.crash)
        probe = BrokerProbe(net)
        _, fresh = craft_request(net, "alice")
        sim.schedule(1.1, probe.submit, fresh)
        sim.run(until=9.0)
        # The whole shard is dark: the fresh auth fast-fails with a
        # retryable degraded denial instead of timing out silently.
        assert probe.responses
        denial = probe.responses[-1]
        assert not denial.approved
        assert denial.retryable
        assert denial.cause.startswith(DenialCause.DEGRADED.value)
        assert frontend.degraded_denials.value >= 1
        assert frontend.forward_giveups.value >= 1
        assert frontend.states[sid].status != "healthy"
        # One host rejoins (empty): the frontend re-provisions it,
        # promotes it, and fresh auths flow again.
        standby.restart()
        sim.run(until=13.0)
        assert frontend.states[sid].status == "healthy"
        _, again = craft_request(net, "alice")
        probe.submit(again)
        sim.run(until=14.0)
        assert probe.responses[-1].approved


class TestNetworkRebalance:
    def test_scale_out_moves_replay_window_over_the_wire(self):
        sim, net, frontend = build_distributed(spares=1)
        ids = [f"sub-{i:02d}" for i in range(12)]
        for id_u in ids:
            net.brokerd.enroll_subscriber(
                id_u, net.credentials.ue_key.public_key)
        probe = BrokerProbe(net)
        req_us = {}
        for index, id_u in enumerate(ids):
            req_u, req_t = craft_request(net, id_u)
            req_us[id_u] = req_u
            sim.schedule(0.1 + 0.02 * index, probe.submit, req_t)
        sim.run(until=1.5)
        assert len(probe.responses) == len(ids)
        assert all(resp.approved for resp in probe.responses)
        before = {id_u: frontend.ring.shard_for(id_u) for id_u in ids}
        joiner = frontend.add_shard()
        sim.run(until=4.0)
        assert frontend._rebalance is None   # committed
        assert frontend.rebalances_total.value == 1
        assert joiner in frontend.active_ids
        entry = frontend.rebalance_log[0]
        assert entry["moved"] >= 1
        moved = [id_u for id_u in ids
                 if frontend.ring.shard_for(id_u) != before[id_u]]
        assert moved and len(moved) <= entry["moved"]
        # The moved subscriber's single-use nonce travelled with it:
        # replaying the pre-move authReqU in a fresh envelope is denied
        # by the *new* owner host.
        victim = moved[0]
        tampered = net.sites["btelco-a"].agw.sap.augment_request(
            req_us[victim], lawful_intercept=True)
        probe.submit(tampered)
        sim.run(until=5.0)
        final = probe.responses[-1]
        assert not final.approved and "replay" in final.cause
        # And a genuinely fresh auth for the moved subscriber is served
        # by the new owner.
        new_sid, new_primary, _ = owning_host(frontend, victim)
        served_before = new_primary.auths_served
        _, fresh = craft_request(net, victim)
        probe.submit(fresh)
        sim.run(until=6.0)
        assert probe.responses[-1].approved
        assert new_primary.auths_served == served_before + 1


class TestPipelineRebalance:
    def test_midbatch_rebalance_neither_loses_nor_double_serves(self):
        """An in-process shard-count change landing while a pipeline
        batch is parked in the window must not lose or double-serve any
        request in the batch."""
        sim = Simulator()
        net = build_cellbricks_network(sim, site_names=("btelco-a",))
        net.brokerd.configure_pipeline(shards=4, batch_window=0.05)
        ids = [f"pipe-{i:02d}" for i in range(16)]
        for id_u in ids:
            net.brokerd.enroll_subscriber(
                id_u, net.credentials.ue_key.public_key)
        probe = BrokerProbe(net)
        for index, id_u in enumerate(ids):
            _, req_t = craft_request(net, id_u)
            sim.schedule(0.1 + 0.001 * index, probe.submit, req_t)
        # All 16 arrive inside the 50 ms window; the rebalance fires
        # mid-window, before the batch flushes.
        sim.schedule(0.13, net.brokerd.sap.set_shard_count, 6)
        sim.run(until=2.0)
        brokerd = net.brokerd
        assert len(probe.responses) == len(ids)
        assert all(resp.approved for resp in probe.responses)
        assert brokerd.requests_approved == len(ids)
        assert brokerd.requests_denied == 0
        stats = brokerd.stats()
        assert stats["attach_ok"] == len(ids)
        assert stats["dup_requests_served"] == 0
        assert stats["num_shards"] == 6
        assert len(brokerd.billing.sessions) == len(ids)
        # Every grant lives on its owner shard under the new layout.
        sap = brokerd.sap
        for shard in sap.shards:
            for grant in shard.grants.values():
                assert sap.shard_of(grant.id_u).shard_id == shard.shard_id


def _run_retry_scenario(rat, *, deny_first, retryable, cause):
    """One attach against a broker whose auth handler denies the first
    ``deny_first`` requests with the given cause before recovering."""
    sim = Simulator()
    from repro.core.mobility import build_cellbricks_network

    net = build_cellbricks_network(sim, site_names=("btelco-a",), rat=rat)
    site = net.sites["btelco-a"]
    ue = net.ue_class(net.ue_host, site.enb_address, net.credentials,
                      target_id_t=site.name)
    results = []
    ue.on_attach_done = results.append
    brokerd = net.brokerd
    original = brokerd._handle_auth_request
    denials = {"count": 0}

    def flaky(src_ip, request):
        if denials["count"] < deny_first:
            denials["count"] += 1
            brokerd.requests_denied += 1
            brokerd.send(src_ip, BrokerAuthResponse(
                approved=False, cause=cause, retryable=retryable,
                reply_token=request.reply_token), size=96)
            return
        original(src_ip, request)

    brokerd.on(BrokerAuthRequest, flaky)
    ue.attach()
    sim.run(until=10.0)
    return net, ue, results, denials


class TestRetryableDenialBackoff:
    """Satellite: retryable vs terminal denial causes end-to-end — the
    UE backs off and retries only on retryable ones, on both RATs."""

    @pytest.mark.parametrize("rat", ["lte", "5g"])
    def test_retryable_denial_backs_off_and_recovers(self, rat):
        net, ue, results, denials = _run_retry_scenario(
            rat, deny_first=2, retryable=True,
            cause=f"{DenialCause.DEGRADED.value}: shard 0 unavailable")
        assert denials["count"] == 2
        assert ue.retryable_rejects == 2
        assert results and results[-1].success
        assert net.brokerd.requests_approved == 1

    @pytest.mark.parametrize("rat", ["lte", "5g"])
    def test_terminal_denial_fails_without_retry(self, rat):
        net, ue, results, denials = _run_retry_scenario(
            rat, deny_first=99, retryable=False,
            cause=f"{DenialCause.POLICY.value}: reputation below "
                  f"threshold")
        assert results and not results[0].success
        assert ue.retryable_rejects == 0
        # Exactly one denial: the UE treated it as terminal.
        assert denials["count"] == 1
        assert net.brokerd.requests_approved == 0


class TestBrokerHaDrill:
    def test_lte_drill_meets_all_gates(self):
        from repro.testbed.broker_ha import RECOVERY_BOUND_S, run_cell
        cell = run_cell("lte", attaches=60, seed=11)
        assert cell["success_rate"] >= 0.99
        assert cell["unauthorized_session_seconds"] == 0.0
        assert cell["failovers_total"] >= 2
        assert cell["replay_denied_across_failover"], cell["replay_cause"]
        assert cell["recovery_s"]
        assert max(cell["recovery_s"]) <= RECOVERY_BOUND_S
        assert cell["rebalances_total"] == 1


class TestFrontendMetricsDeterminism:
    """Satellite: routing metrics are registered, exported through the
    obs merge, and byte-identical under a fixed seed."""

    def _snapshot(self):
        from repro.testbed.broker_ha import run_cell
        obs = Obs(tracing=False)
        run_cell("lte", attaches=40, seed=5, obs=obs)
        return obs.metrics.snapshot()

    def test_metrics_registered_exported_and_byte_identical(self):
        first = self._snapshot()
        names = set(first)
        for sid in range(3):   # 2 active shards + 1 spare
            assert f"broker.shard_health{{shard={sid}}}" in names
        for counter in ("broker.failovers_total",
                        "broker.handoff_chunks_retried",
                        "broker.degraded_denials",
                        "broker.parked_attaches",
                        "broker.forward_giveups",
                        "broker.rebalances_total",
                        "broker.resyncs_total"):
            assert counter in names
        assert first["broker.failovers_total"] >= 2
        second = self._snapshot()
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)
