"""Sharded/batched broker auth pipeline: routing, rebalance, pipeline
equivalence + determinism, throughput acceptance, SMF pool release, and
billing archival."""

import hashlib
import random

import pytest

from repro.core.billing import ArchivedLedger, BillingError
from repro.core.qos import QosCapabilities
from repro.core.sap import (
    BrokerSap,
    BrokerSubscriber,
    BtelcoSap,
    BtelcoSapConfig,
    DenialCause,
    SapError,
    ShardRouter,
    UeSap,
    UeSapCredentials,
)
from repro.crypto import (
    CertificateAuthority,
    clear_verify_cache,
    generate_keypair,
    verify_cache_stats,
)
from repro.obs import Obs, spans_to_jsonl


@pytest.fixture(scope="module")
def world():
    rng = random.Random(0x5CA1E)
    ca = CertificateAuthority(key=generate_keypair(rng=rng))
    broker_key = generate_keypair(rng=rng)
    telco_key = generate_keypair(rng=rng)
    ue_key = generate_keypair(rng=rng)
    telco_cert = ca.issue("t1.example", "btelco", telco_key.public_key)
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t1.example", key=telco_key, certificate=telco_cert,
        qos_capabilities=QosCapabilities(supported_qcis=(8, 9)),
        ca_public_key=ca.public_key))
    return dict(ca=ca, broker_key=broker_key, telco=telco, ue_key=ue_key)


def make_broker(world, num_shards=1, subscribers=("alice",)):
    broker = BrokerSap(id_b="b.example", key=world["broker_key"],
                       ca_public_key=world["ca"].public_key,
                       num_shards=num_shards)
    for id_u in subscribers:
        broker.enroll(BrokerSubscriber(
            id_u=id_u, public_key=world["ue_key"].public_key))
    return broker


def creds_for(world, id_u="alice"):
    return UeSapCredentials(
        id_u=id_u, id_b="b.example", ue_key=world["ue_key"],
        broker_public_key=world["broker_key"].public_key)


def attach(world, broker, id_u="alice", now=10.0):
    ue = UeSap(creds_for(world, id_u))
    req_t = world["telco"].augment_request(ue.craft_request("t1.example"))
    return req_t, broker.process_request(req_t, now)


class TestShardRouting:
    def test_identical_construction_identical_routing(self, world):
        a = make_broker(world, num_shards=8)
        b = make_broker(world, num_shards=8)
        ids = [f"sub-{i:04d}" for i in range(300)]
        assert [a.shard_of(i).shard_id for i in ids] \
            == [b.shard_of(i).shard_id for i in ids]

    def test_assignment_spreads_across_shards(self, world):
        broker = make_broker(world, num_shards=8)
        owners = {broker.shard_of(f"sub-{i:04d}").shard_id
                  for i in range(300)}
        assert owners == set(range(8))

    def test_enrollment_lands_on_owner_shard(self, world):
        ids = tuple(f"sub-{i:04d}" for i in range(40))
        broker = make_broker(world, num_shards=4, subscribers=ids)
        for shard in broker.shards:
            for id_u in shard.subscribers:
                assert broker.shard_of(id_u).shard_id == shard.shard_id
        assert {sub.id_u for sub in broker.enrolled()} == set(ids)

    def test_stats_per_shard_breakdown_keeps_flat_keys(self, world):
        ids = tuple(f"sub-{i:04d}" for i in range(20))
        broker = make_broker(world, num_shards=4, subscribers=ids)
        attach(world, broker, "sub-0003")
        stats = broker.stats()
        for key in ("attach_ok", "replay_hits", "grants_active",
                    "dup_requests_served", "subscribers"):
            assert key in stats
        assert stats["num_shards"] == 4
        assert len(stats["shards"]) == 4
        assert sum(s["attach_ok"] for s in stats["shards"]) \
            == stats["attach_ok"] == 1
        assert sum(s["subscribers"] for s in stats["shards"]) == 20


class TestShardRing:
    """``ShardRouter``'s ring is built once per shard set per process and
    at the first lookup; placement is still the from-scratch answer."""

    IDS = tuple(f"sub-{i:05d}" for i in range(300))

    @staticmethod
    def _reference(shard_ids, id_u, replicas=64):
        """First ring point clockwise of ``id_u``, by full scan."""
        def point(token):
            return int.from_bytes(
                hashlib.sha256(token.encode()).digest()[:8], "big")
        ring = sorted((point(f"shard:{shard}:{replica}"), shard)
                      for shard in shard_ids for replica in range(replicas))
        after = [owner for p, owner in ring if p > point(f"u:{id_u}")]
        return after[0] if after else ring[0][1]

    def test_placement_equals_a_full_scan_through_adds_and_removes(self):
        router, other = ShardRouter(), ShardRouter((7, 9))
        live = set()
        for step, shard in (("add", 0), ("add", 1), ("add", 2), ("add", 5),
                            ("remove", 1), ("add", 3), ("remove", 0),
                            ("add", 1), ("remove", 5)):
            getattr(router, step)(shard)
            (live.add if step == "add" else live.discard)(shard)
            assert router.shard_ids == tuple(sorted(live))
            for id_u in self.IDS:
                assert router.shard_for(id_u) \
                    == self._reference(live, id_u)
        # A second router over another set shares the memo, not the ring.
        assert {other.shard_for(id_u) for id_u in self.IDS} == {7, 9}
        assert all(other.shard_for(id_u) == self._reference((7, 9), id_u)
                   for id_u in self.IDS[:50])

    def test_errors_are_unchanged(self):
        router = ShardRouter()
        with pytest.raises(ValueError, match="empty shard ring"):
            router.shard_for("alice")
        router.add(0)
        with pytest.raises(ValueError, match="already on the ring"):
            router.add(0)
        with pytest.raises(ValueError, match="last shard"):
            router.remove(0)
        with pytest.raises(ValueError, match="not on the ring"):
            router.remove(3)

    def test_a_second_cell_hashes_no_ring_point_and_seeds_no_generator(
            self, monkeypatch):
        """Counted, not timed: what a cell's set-up repeats for every
        cell of every bench.  The ring of an already-seen shard set costs
        no SHA-256; a lossless link seeds no loss generator and only a
        node that arms a request timer seeds its jitter generator (both
        at first use, with the seed they always had).  At the parent of
        PR 22: 512 ring hashes and 49 generators for this cell."""
        from repro.testbed.broker_scale import run_cell
        first = run_cell(2, 8, rat="5g", sites=2)
        hashed, seeded = [], []
        point, init = ShardRouter._point, random.Random.__init__
        monkeypatch.setattr(
            ShardRouter, "_point",
            staticmethod(lambda token: hashed.append(token) or point(token)))
        monkeypatch.setattr(
            random.Random, "__init__",
            lambda self, x=None: seeded.append(x) or init(self, x))
        second = run_cell(2, 8, rat="5g", sites=2)
        assert second.to_dict() == first.to_dict()
        assert second.attached == 2
        assert [token for token in hashed if not token.startswith("u:")] \
            == []
        assert sorted(seeded) == ["retx:cb-ue5g0", "retx:cb-ue5g1",
                                  "retx:site0-amf", "retx:site1-amf"]

    def test_cell_result_to_dict_is_every_field_in_order(self):
        from dataclasses import asdict
        from repro.testbed.broker_scale import run_cell
        cell = run_cell(1, 2, rat="lte", sites=1)
        assert cell.to_dict() == asdict(cell)
        assert list(cell.to_dict()) == list(asdict(cell))
        assert cell.to_dict()["broker"]["num_shards"] == 2


class TestRebalance:
    def test_replayed_nonce_denied_after_adding_shard(self, world):
        broker = make_broker(world, num_shards=2)
        ue = UeSap(creds_for(world))
        req_u = ue.craft_request("t1.example")
        broker.process_request(
            world["telco"].augment_request(req_u), now=10.0)
        broker.add_shard()
        # Same nonce in a different datagram (digest changes): replay.
        tampered = world["telco"].augment_request(req_u,
                                                  lawful_intercept=True)
        with pytest.raises(SapError) as excinfo:
            broker.process_request(tampered, now=11.0)
        assert excinfo.value.cause == DenialCause.REPLAY

    def test_grants_and_subscribers_survive_rebalance(self, world):
        ids = tuple(f"sub-{i:04d}" for i in range(24))
        broker = make_broker(world, num_shards=2, subscribers=ids)
        grants = [attach(world, broker, id_u)[1][2] for id_u in ids[:6]]
        broker.set_shard_count(6)
        assert {sub.id_u for sub in broker.enrolled()} == set(ids)
        assert broker.grants_active == 6
        for grant in grants:
            assert grant.session_id in broker.shard_of(grant.id_u).grants
            assert broker.session_owner(grant.session_id) == grant.id_u

    def test_remove_shard_hands_state_back(self, world):
        ids = tuple(f"sub-{i:04d}" for i in range(24))
        broker = make_broker(world, num_shards=4, subscribers=ids)
        ue = UeSap(creds_for(world, ids[0]))
        req_u = ue.craft_request("t1.example")
        broker.process_request(
            world["telco"].augment_request(req_u), now=10.0)
        removed = max(s.shard_id for s in broker.shards)
        broker.remove_shard(removed)
        assert broker.num_shards == 3
        assert {sub.id_u for sub in broker.enrolled()} == set(ids)
        assert broker.grants_active == 1
        tampered = world["telco"].augment_request(req_u,
                                                  lawful_intercept=True)
        with pytest.raises(SapError) as excinfo:
            broker.process_request(tampered, now=11.0)
        assert excinfo.value.cause == DenialCause.REPLAY

    def test_retransmission_still_served_after_rebalance(self, world):
        broker = make_broker(world, num_shards=2)
        req_t, (sealed_t, _sealed_u, grant) = attach(world, broker)
        broker.add_shard()
        replay_t, _replay_u, replay_grant = broker.process_request(
            req_t, now=11.0)
        assert replay_grant.session_id == grant.session_id
        assert broker.dup_requests_served == 1

    def test_cannot_remove_last_shard(self, world):
        broker = make_broker(world, num_shards=1)
        with pytest.raises(ValueError):
            broker.remove_shard(0)


class TestVerifyCache:
    def test_verify_cache_hits_and_clear(self, world):
        clear_verify_cache()
        key = generate_keypair(rng=random.Random(0xCAC4E))
        signature = key.sign(b"message")
        assert key.public_key.verify(b"message", signature)
        before = verify_cache_stats()["hits"]
        assert key.public_key.verify(b"message", signature)
        assert verify_cache_stats()["hits"] == before + 1
        clear_verify_cache()
        stats = verify_cache_stats()
        assert stats["hits"] == 0 and stats["size"] == 0

    def test_verify_cache_is_bounded_and_keeps_the_newest(self, world):
        clear_verify_cache()
        key = generate_keypair(rng=random.Random(0xCAC4E))
        signature = key.sign(b"message")
        cap = verify_cache_stats()["max_size"]
        for index in range(cap + 99):
            assert not key.public_key.verify(b"other %d" % index, signature)
        assert key.public_key.verify(b"message", signature)
        stats = verify_cache_stats()
        assert stats["size"] == stats["max_size"] == cap
        assert stats["misses"] == cap + 100 and stats["hits"] == 0
        assert key.public_key.verify(b"message", signature)
        assert verify_cache_stats()["hits"] == 1
        clear_verify_cache()


class TestPipelineEndToEnd:
    def test_pipeline_matches_serial_outcomes(self):
        from repro.testbed.broker_scale import run_cell
        serial = run_cell(24, 1, rat="lte", pipeline=False, sites=8)
        piped = run_cell(24, 4, rat="lte", pipeline=True, sites=8)
        assert serial.attached == piped.attached == 24
        assert serial.failed == piped.failed == 0
        assert serial.broker["attach_ok"] == piped.broker["attach_ok"]
        assert piped.broker["pipeline_requests"] == 24
        assert piped.broker["pipeline_batches"] >= 1

    def test_pipeline_traced_runs_are_byte_identical(self):
        from repro.testbed.broker_scale import run_cell

        def traced():
            obs = Obs()
            run_cell(16, 4, rat="lte", pipeline=True, sites=8, obs=obs)
            return spans_to_jsonl(obs.tracer.spans())

        assert traced() == traced()

    def test_throughput_speedup_at_least_3x(self):
        from repro.testbed.broker_scale import run_cell
        base = run_cell(64, 1, rat="lte", pipeline=False)
        pipe = run_cell(64, 8, rat="lte", pipeline=True)
        assert base.attached == pipe.attached == 64
        assert pipe.attaches_per_sec >= 3.0 * base.attaches_per_sec


class TestChaosWithPipeline:
    def test_no_unauthorized_session_seconds(self):
        from repro.emulation.chaos import run_chaos
        report = run_chaos(
            attaches=60, revoke_every=5, base_loss=0.02, seed=7,
            on_network_built=lambda network:
                network.brokerd.configure_pipeline(shards=4))
        assert report.unauthorized_session_seconds == 0
        assert report.successes > 0
        assert report.revocations > 0


class TestSmfPoolRelease:
    def _baseline_5g(self):
        from repro.fivegc import Amf, Ausf, Gnb, Smf, Udm, Ue5G, make_supi
        from repro.fivegc.topology5g import (
            AMF_ADDRESS, AUSF_ADDRESS, GNB_ADDRESS, SMF_ADDRESS,
            Topology5G, UDM_ADDRESS)
        from repro.crypto.keypool import pooled_keypair
        from repro.lte.aka import UsimState
        from repro.net import Simulator

        k = bytes(range(16))
        sim = Simulator()
        topo = Topology5G.build(sim, "local")
        home_key = pooled_keypair(812)
        udm = Udm(topo.udm_host, home_network_key=home_key)
        Ausf(topo.ausf_host, udm_ip=UDM_ADDRESS)
        smf = Smf(topo.smf_host)
        amf = Amf(topo.amf_host, ausf_ip=AUSF_ADDRESS, smf_ip=SMF_ADDRESS)
        Gnb(topo.gnb_host, agw_ip=AMF_ADDRESS)
        supi = make_supi(7)
        udm.provision(supi, k)
        ue = Ue5G(topo.ue_host, GNB_ADDRESS, supi, UsimState(k=k),
                  home_key.public_key, serving_network=amf.serving_network)
        ue.on_registration_done = lambda result: None
        ue.on_session_done = lambda result: None
        return sim, smf, amf, ue

    def test_dereg_churn_keeps_pool_bounded(self):
        sim, smf, amf, ue = self._baseline_5g()
        pool_size = len(smf.upf.pool._available)
        cycles = 6
        for _ in range(cycles):
            ue.register()
            sim.run(until=sim.now + 2.0)
            ue.establish_session()
            sim.run(until=sim.now + 1.0)
            ue.deregister_and_forget()
            sim.run(until=sim.now + 1.0)
        assert smf.sessions_created == cycles
        assert smf.sessions_released == cycles
        assert smf.release_misses == 0
        assert len(smf.upf.bearers) == 0
        assert len(smf.upf.pool._available) == pool_size
        assert amf.smf_releases_sent == cycles
        assert amf.smf_release_give_ups == 0
        assert amf.stats()["contexts"] == 0

    def test_release_for_unknown_subscriber_is_counted_miss(self):
        from repro.fivegc.nf import UeContext5G
        sim, smf, amf, ue = self._baseline_5g()
        ghost = UeContext5G(ran_ue_id=999, ran_ip="0.0.0.0",
                            supi="imsi-00101-0000000099",
                            pdu_session_id=1, ue_ip="10.128.0.99")
        amf._release_pdu_session(ghost)
        sim.run(until=2.0)
        assert smf.release_misses == 1
        assert smf.sessions_released == 0


class TestBillingArchive:
    def _settled_verifier(self):
        from tests.test_billing import (  # reuse the billing fixtures
            make_verifier, upload_pair)
        rng = random.Random(0xB111)
        keys = {"broker": generate_keypair(rng=rng),
                "ue": generate_keypair(rng=rng),
                "telco": generate_keypair(rng=rng)}
        verifier, grant = make_verifier(keys)
        upload_pair(verifier, keys, ue_dl=1_000_000, t_dl=1_000_000)
        return verifier, grant

    def test_archive_retires_ledger_and_audit_retrieves_it(self):
        verifier, grant = self._settled_verifier()
        archived = []
        verifier.on_archive = archived.append
        invoice = verifier.archive_session(grant.session_id, now=120.0)
        assert grant.session_id not in verifier.sessions
        record = verifier.audit(grant.session_id)
        assert isinstance(record, ArchivedLedger)
        assert record.invoice == invoice
        assert record.checked_pairs == 1
        assert record.ue_report_count == record.btelco_report_count == 1
        assert record.settled_at == 120.0
        assert archived == [record]
        assert verifier.audit_subscriber(grant.id_u) == (record,)
        assert verifier.ledgers_archived == 1

    def test_archive_unknown_session_raises(self):
        verifier, grant = self._settled_verifier()
        with pytest.raises(BillingError):
            verifier.archive_session("no-such-session")
        verifier.archive_session(grant.session_id)
        with pytest.raises(BillingError):   # archive is append-only
            verifier.archive_session(grant.session_id)

    def test_archived_session_refuses_new_uploads(self):
        verifier, grant = self._settled_verifier()
        verifier.archive_session(grant.session_id)
        rejected_before = verifier.rejected_uploads
        from repro.core.billing import REPORTER_UE, TrafficReportUpload
        upload = TrafficReportUpload(session_id=grant.session_id, seq=9,
                                     reporter=REPORTER_UE, blob=b"x",
                                     signature=b"y")
        assert not verifier.ingest(upload, now=200.0)
        assert verifier.rejected_uploads == rejected_before + 1
