"""Unit tests for the SAP protocol procedures (Fig 2 / Fig 3)."""

import random

import pytest

from repro.core.messages import AuthVec, MessageError
from repro.core.qos import QosCapabilities, QosInfo
from repro.core.sap import (
    BrokerSap,
    BrokerSubscriber,
    BtelcoSap,
    BtelcoSapConfig,
    SapError,
    UeSap,
    UeSapCredentials,
)
from repro.crypto import CertificateAuthority, generate_keypair


@pytest.fixture(scope="module")
def world():
    """A CA, a broker, a bTelco, and an enrolled UE (module-scoped: RSA
    keygen is the slow part)."""
    rng = random.Random(0x5A9)
    ca = CertificateAuthority(key=generate_keypair(rng=rng))
    broker_key = generate_keypair(rng=rng)
    telco_key = generate_keypair(rng=rng)
    ue_key = generate_keypair(rng=rng)
    telco_cert = ca.issue("t1.example", "btelco", telco_key.public_key)

    broker = BrokerSap(id_b="b.example", key=broker_key,
                       ca_public_key=ca.public_key)
    broker.enroll(BrokerSubscriber(id_u="alice",
                                   public_key=ue_key.public_key))
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t1.example", key=telco_key, certificate=telco_cert,
        qos_capabilities=QosCapabilities(supported_qcis=(8, 9)),
        ca_public_key=ca.public_key))
    creds = UeSapCredentials(id_u="alice", id_b="b.example", ue_key=ue_key,
                             broker_public_key=broker_key.public_key)
    return dict(ca=ca, broker=broker, telco=telco, creds=creds,
                broker_key=broker_key, telco_key=telco_key, ue_key=ue_key,
                telco_cert=telco_cert)


def full_run(world, now=10.0):
    ue = UeSap(world["creds"])
    req_u = ue.craft_request("t1.example")
    req_t = world["telco"].augment_request(req_u)
    sealed_t, sealed_u, grant = world["broker"].process_request(req_t, now)
    return ue, req_u, req_t, sealed_t, sealed_u, grant


class TestHappyPath:
    def test_full_protocol_run(self, world):
        ue, req_u, req_t, sealed_t, sealed_u, grant = full_run(world)
        session = world["telco"].process_authorization(
            sealed_t, world["broker_key"].public_key, None, now=10.0)
        response = ue.process_response(sealed_u)
        # Both sides hold the same shared secret (the future KASME).
        assert session.ss == response.ss == grant.ss
        assert session.session_id == response.session_id

    def test_btelco_never_sees_subscriber_identity(self, world):
        ue, req_u, req_t, sealed_t, sealed_u, grant = full_run(world)
        session = world["telco"].process_authorization(
            sealed_t, world["broker_key"].public_key, None, now=10.0)
        # The bTelco-visible identity is an opaque pseudonym.
        assert "alice" not in session.id_u_opaque
        # And nothing in authReqU reveals it either (it is sealed to B).
        assert b"alice" not in req_u.auth_vec_encrypted

    def test_qos_clamped_to_btelco_capability(self, world):
        world["broker"].subscriber("alice").qos_plan = QosInfo(
            qci=8, ambr_dl_bps=500e6, ambr_ul_bps=300e6)
        try:
            ue, _, _, sealed_t, _, grant = full_run(world)
            caps = world["telco"].config.qos_capabilities
            assert grant.qos_info.ambr_dl_bps <= caps.max_ambr_dl_bps
            assert grant.qos_info.qci in caps.supported_qcis
        finally:
            world["broker"].subscriber("alice").qos_plan = QosInfo()

    def test_distinct_sessions_get_distinct_secrets(self, world):
        *_, grant1 = full_run(world)
        *_, grant2 = full_run(world)
        assert grant1.ss != grant2.ss
        assert grant1.session_id != grant2.session_id


class TestUeChecks:
    def test_ue_rejects_response_signed_by_wrong_key(self, world):
        from repro.core.messages import seal_and_sign
        from repro.core.messages import AuthRespU
        mallory = generate_keypair(rng=random.Random(99))
        ue = UeSap(world["creds"])
        ue.craft_request("t1.example")
        forged = seal_and_sign(
            AuthRespU(id_u="alice", id_t="t1.example", ss=b"s" * 32,
                      nonce=b"n" * 16, session_id="x").to_bytes(),
            world["ue_key"].public_key, mallory)
        with pytest.raises(SapError, match="signature"):
            ue.process_response(forged)

    def test_ue_rejects_replayed_response(self, world):
        ue, *_, sealed_u, _ = full_run(world)
        ue.process_response(sealed_u)
        with pytest.raises(SapError, match="nonce"):
            ue.process_response(sealed_u)  # nonce already consumed

    def test_ue_rejects_response_for_other_btelco(self, world):
        ue1, *_ = full_run(world)
        # Craft a response from a run targeting a different bTelco.
        ue2, _, req_t2, _, sealed_u2, _ = full_run(world)
        with pytest.raises(SapError):
            ue1.process_response(sealed_u2)

    def test_each_request_has_fresh_nonce(self, world):
        ue = UeSap(world["creds"])
        r1 = ue.craft_request("t1.example")
        r2 = ue.craft_request("t1.example")
        assert r1.auth_vec_encrypted != r2.auth_vec_encrypted


class TestBrokerChecks:
    def test_unknown_subscriber_denied(self, world):
        creds = UeSapCredentials(
            id_u="mallory", id_b="b.example",
            ue_key=generate_keypair(rng=random.Random(1)),
            broker_public_key=world["broker_key"].public_key)
        req_u = UeSap(creds).craft_request("t1.example")
        req_t = world["telco"].augment_request(req_u)
        with pytest.raises(SapError, match="unknown subscriber"):
            world["broker"].process_request(req_t, now=10.0)

    def test_suspended_subscriber_denied(self, world):
        world["broker"].revoke("alice")
        try:
            req_u = UeSap(world["creds"]).craft_request("t1.example")
            req_t = world["telco"].augment_request(req_u)
            with pytest.raises(SapError, match="suspended"):
                world["broker"].process_request(req_t, now=10.0)
        finally:
            world["broker"].subscriber("alice").suspended = False

    def test_forged_ue_signature_denied(self, world):
        req_u = UeSap(world["creds"]).craft_request("t1.example")
        forged = type(req_u)(sig_authvec=b"\x00" * len(req_u.sig_authvec),
                             auth_vec_encrypted=req_u.auth_vec_encrypted,
                             id_b=req_u.id_b)
        req_t = world["telco"].augment_request(forged)
        with pytest.raises(SapError, match="UE signature"):
            world["broker"].process_request(req_t, now=10.0)

    def test_retransmitted_request_reserves_same_grant(self, world):
        """A bit-identical duplicate (a retransmission) is NOT a replay
        attack: the broker re-serves the original grant idempotently."""
        ue = UeSap(world["creds"])
        req_u = ue.craft_request("t1.example")
        req_t = world["telco"].augment_request(req_u)
        before = world["broker"].dup_requests_served
        sealed_t, sealed_u, grant = world["broker"].process_request(
            req_t, now=10.0)
        replay_t, replay_u, replay_grant = world["broker"].process_request(
            req_t, now=11.0)
        assert replay_grant.session_id == grant.session_id
        assert replay_t is sealed_t and replay_u is sealed_u
        assert world["broker"].dup_requests_served == before + 1
        assert world["broker"].attach_denied["replay"] == 0

    def test_modified_request_reusing_nonce_denied(self, world):
        """Reusing a seen nonce inside anything other than the original
        datagram (different digest) is still a replay attack."""
        ue = UeSap(world["creds"])
        req_u = ue.craft_request("t1.example")
        req_t = world["telco"].augment_request(req_u)
        world["broker"].process_request(req_t, now=10.0)
        tampered = world["telco"].augment_request(req_u,
                                                  lawful_intercept=True)
        with pytest.raises(SapError, match="replayed"):
            world["broker"].process_request(tampered, now=11.0)

    def test_expired_btelco_certificate_denied(self, world):
        key = generate_keypair(rng=random.Random(5))
        cert = world["ca"].issue("t2.example", "btelco", key.public_key,
                                 not_before=0.0, not_after=5.0)
        telco = BtelcoSap(BtelcoSapConfig(
            id_t="t2.example", key=key, certificate=cert,
            ca_public_key=world["ca"].public_key))
        req_u = UeSap(world["creds"]).craft_request("t2.example")
        req_t = telco.augment_request(req_u)
        with pytest.raises(SapError, match="certificate"):
            world["broker"].process_request(req_t, now=100.0)

    def test_btelco_identity_must_match_certificate(self, world):
        imposter = BtelcoSap(BtelcoSapConfig(
            id_t="t9.example",  # claims t9 but presents t1's cert
            key=world["telco_key"], certificate=world["telco_cert"],
            ca_public_key=world["ca"].public_key))
        req_u = UeSap(world["creds"]).craft_request("t9.example")
        req_t = imposter.augment_request(req_u)
        with pytest.raises(SapError, match="identity"):
            world["broker"].process_request(req_t, now=10.0)

    def test_relayed_request_for_other_btelco_denied(self, world):
        """authVec pins idT: a bTelco cannot replay a request the UE made
        for a different bTelco."""
        req_u = UeSap(world["creds"]).craft_request("somewhere-else")
        req_t = world["telco"].augment_request(req_u)  # t1 forwards it
        with pytest.raises(SapError, match="mismatch"):
            world["broker"].process_request(req_t, now=10.0)

    def test_tampered_qos_cap_denied(self, world):
        """The bTelco's signature covers qosCap: tampering is detected."""
        req_u = UeSap(world["creds"]).craft_request("t1.example")
        req_t = world["telco"].augment_request(req_u)
        tampered = type(req_t)(
            auth_req_u=req_t.auth_req_u, id_t=req_t.id_t,
            qos_cap=QosCapabilities(supported_qcis=(1, 2, 5, 8, 9),
                                    max_ambr_dl_bps=1e12),
            t_certificate=req_t.t_certificate, sig_t=req_t.sig_t)
        with pytest.raises(SapError, match="signature"):
            world["broker"].process_request(tampered, now=10.0)

    def test_policy_hook_can_deny(self, world):
        world["broker"].authorize_btelco = lambda id_t: "blocklisted"
        try:
            req_u = UeSap(world["creds"]).craft_request("t1.example")
            req_t = world["telco"].augment_request(req_u)
            with pytest.raises(SapError, match="blocklisted"):
                world["broker"].process_request(req_t, now=10.0)
        finally:
            world["broker"].authorize_btelco = lambda id_t: None


class TestBtelcoChecks:
    def test_authorization_for_other_btelco_rejected(self, world):
        key2 = generate_keypair(rng=random.Random(6))
        cert2 = world["ca"].issue("t2.example", "btelco", key2.public_key)
        telco2 = BtelcoSap(BtelcoSapConfig(
            id_t="t2.example", key=key2, certificate=cert2,
            ca_public_key=world["ca"].public_key))
        # Broker authorizes t1; t2 must not be able to use that grant.
        *_, sealed_t, _, _ = full_run(world)
        with pytest.raises(SapError):
            telco2.process_authorization(
                sealed_t, world["broker_key"].public_key, None, now=10.0)

    def test_expired_authorization_rejected(self, world):
        *_, sealed_t, _, grant = full_run(world, now=10.0)
        with pytest.raises(SapError, match="expired"):
            world["telco"].process_authorization(
                sealed_t, world["broker_key"].public_key, None,
                now=grant.expires_at + 1)

    def test_wrong_broker_key_rejected(self, world):
        *_, sealed_t, _, _ = full_run(world)
        mallory = generate_keypair(rng=random.Random(42))
        with pytest.raises(SapError, match="signature"):
            world["telco"].process_authorization(
                sealed_t, mallory.public_key, None, now=10.0)


def fresh_broker(world, session_ttl=3600.0):
    """A private BrokerSap (reusing the module keys) so lifecycle tests
    can churn time without disturbing the shared ``world`` broker."""
    broker = BrokerSap(id_b="b.example", key=world["broker_key"],
                       ca_public_key=world["ca"].public_key,
                       session_ttl=session_ttl)
    broker.enroll(BrokerSubscriber(id_u="alice",
                                   public_key=world["ue_key"].public_key))
    return broker


def attach(world, broker, now, id_u="alice"):
    creds = world["creds"]
    if id_u != "alice":
        creds = UeSapCredentials(
            id_u=id_u, id_b="b.example", ue_key=world["ue_key"],
            broker_public_key=world["broker_key"].public_key)
    ue = UeSap(creds)
    req_t = world["telco"].augment_request(ue.craft_request("t1.example"))
    return ue, req_t, broker.process_request(req_t, now=now)


class TestSessionLifecycle:
    def test_replay_window_evicts_but_still_blocks_inside_window(self, world):
        broker = fresh_broker(world, session_ttl=10.0)
        ue, req_t, _ = attach(world, broker, now=0.0)
        # An attacker reusing the nonce in a *different* request (here:
        # re-signed with the LI bit flipped, so the digest differs and
        # the idempotency cache cannot answer) is rejected inside the
        # window, even after other requests have come and gone (eviction
        # must not forget live nonces).
        evil = world["telco"].augment_request(req_t.auth_req_u,
                                              lawful_intercept=True)
        for now in (1.0, 5.0, 9.9):
            attach(world, broker, now=now)
            with pytest.raises(SapError, match="replayed"):
                broker.process_request(evil, now=now)
        assert broker.replay_hits == 3
        assert broker.attach_denied["replay"] == 3

    def test_replay_cache_bounded_by_active_window(self, world):
        broker = fresh_broker(world, session_ttl=5.0)
        peak = 0
        for step in range(40):
            attach(world, broker, now=float(step))
            peak = max(peak, len(broker.shards[0].seen_nonces))
        # ttl=5, one attach per second: never more than 6 live nonces,
        # despite 40 total attaches.
        assert peak <= 6
        assert len(broker.shards[0].nonce_expiry) <= 6

    def test_grant_gc_bounds_state_under_churn(self, world):
        broker = fresh_broker(world, session_ttl=5.0)
        expired = []
        broker.on_grant_expired = expired.append
        for step in range(40):
            attach(world, broker, now=float(step))
            assert broker.grants_active <= 6
        assert broker.grants_expired == len(expired) > 0
        assert broker.grants_expired + broker.grants_active == 40
        # Explicit sweep far in the future drains everything.
        broker.expire_grants(now=1e6)
        shard, = broker.shards
        assert shard.grants == {}
        assert shard.sessions_by_ue == {}
        assert shard.grant_expiry == []

    def test_revocation_cascades_to_outstanding_grants(self, world):
        broker = fresh_broker(world)
        hooked = []
        broker.on_grant_revoked = hooked.append
        _, _, (_, _, grant1) = attach(world, broker, now=0.0)
        _, _, (_, _, grant2) = attach(world, broker, now=1.0)
        revoked = broker.revoke("alice")
        assert {g.session_id for g in revoked} == \
            {grant1.session_id, grant2.session_id}
        assert hooked == revoked
        shard, = broker.shards
        assert shard.grants == {}
        assert set(shard.revoked_sessions) == \
            {grant1.session_id, grant2.session_id}
        # The subscriber is suspended: re-attach is denied.
        with pytest.raises(SapError, match="suspended"):
            attach(world, broker, now=2.0)
        assert broker.attach_denied["suspended"] == 1
        # Tombstones are themselves garbage-collected after the grants'
        # natural lifetime.
        broker.expire_grants(now=grant2.expires_at + 1)
        assert shard.revoked_sessions == {}

    def test_btelco_rejects_revoked_session(self, world):
        broker = fresh_broker(world)
        ue, _, (sealed_t, _, grant) = attach(world, broker, now=0.0)
        telco = world["telco"]
        telco.revoke_session(grant.session_id)
        try:
            assert not telco.session_authorized(grant.session_id)
            with pytest.raises(SapError, match="session revoked"):
                telco.process_authorization(
                    sealed_t, world["broker_key"].public_key, None, now=0.0)
        finally:
            telco.revoked_sessions.discard(grant.session_id)

    def test_counters_and_stats(self, world):
        broker = fresh_broker(world)
        attach(world, broker, now=0.0)
        with pytest.raises(SapError, match="unknown subscriber"):
            attach(world, broker, now=1.0, id_u="mallory")
        stats = broker.stats()
        assert stats["attach_ok"] == 1
        assert stats["attach_denied"] == {"unknown_subscriber": 1}
        assert stats["grants_active"] == 1
        assert stats["replay_cache_size"] == 1
        assert stats["subscribers"] == 1


class TestUeStateHygiene:
    def test_ue_clears_state_on_success(self, world):
        ue, *_, sealed_u, _ = full_run(world)
        assert ue._outstanding_nonce is not None
        ue.process_response(sealed_u)
        assert ue._outstanding_nonce is None
        assert ue._target_id_t is None

    def test_ue_clears_state_on_failure(self, world):
        ue, *_ = full_run(world)
        # A response from a different run fails the nonce check...
        _, _, _, _, sealed_other, _ = full_run(world)
        with pytest.raises(SapError):
            ue.process_response(sealed_other)
        # ...and must still burn the outstanding (nonce, target) pair.
        assert ue._outstanding_nonce is None
        assert ue._target_id_t is None


class TestAuthVecSerialization:
    def test_roundtrip(self):
        vec = AuthVec(id_u="u", id_b="b", id_t="t", nonce=b"n" * 16)
        assert AuthVec.from_bytes(vec.to_bytes()) == vec

    def test_malformed_rejected(self):
        with pytest.raises(MessageError):
            AuthVec.from_bytes(b"not json")
        with pytest.raises(MessageError):
            AuthVec.from_bytes(b'{"idU": "u"}')
