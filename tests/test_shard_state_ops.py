"""One way for broker shard state to move: the op vocabulary of
``BrokerSap.apply`` / ``export`` under live replication, resync, network
handoff, in-process rebalance and the frontend's grant mirror.

The regressions pinned here were reproducible before the vocabulary
existed: a revoke inside the replication window resurrected on the
standby, a retransmission re-served its approval after revocation,
resync/handoff re-based idempotency-cache expiries, and the frontend
kept a per-session entry for every revoked session forever.  The seeded
schedules at the bottom use ``export()`` as the state-equality oracle.
"""

import ast
import pathlib
import random
from types import SimpleNamespace

import pytest

from repro.core.messages import DenialCause, ScopeAttachAck
from repro.core.mobility import build_cellbricks_network
from repro.core.sap import BrokerSap, BrokerSubscriber, SapError
from repro.core.shardhost import deploy_shard_hosts
from repro.net import Simulator

from .test_shardhost import (
    BrokerProbe,
    build_distributed,
    craft_request,
    owning_host,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def in_process_broker(net, num_shards=1, subscribers=("alice",)):
    """A bare BrokerSap sharing the network's broker identity, so
    ``craft_request(net, ...)`` envelopes validate against it."""
    broker = BrokerSap(id_b=net.brokerd.id_b, key=net.brokerd.key,
                       ca_public_key=net.brokerd.sap.ca_public_key,
                       num_shards=num_shards)
    for id_u in subscribers:
        broker.enroll(BrokerSubscriber(
            id_u=id_u, public_key=net.credentials.ue_key.public_key))
    return broker


def send_scope_notice(net, site_name, session_id, counter):
    """Have a bTelco notify the broker of a scope-local attach; returns
    the list its ack will land in."""
    agw = net.sites[site_name].agw
    acks = []
    agw.on(ScopeAttachAck, lambda src_ip, ack: acks.append(ack))
    agw._notify_scope_attach(
        SimpleNamespace(session_id=session_id, id_b=net.credentials.id_b),
        counter)
    return acks


def op_owner(broker, op):
    """The subscriber an exported op belongs to."""
    kind = op[0]
    if kind in ("nonce", "tombstone"):
        return op[2]
    if kind == "scope_counter":
        return broker.session_owner(op[1])
    return (op[1] if kind == "grant" else op[2][2]).id_u


def the_session(net):
    """The one live session in the daemon's mirror."""
    (op,) = [op for op in net.brokerd.sap.export() if op[0] == "grant"]
    return op[1].session_id


class TestRevocationRidesTheStream:
    def test_revoke_inside_replication_window_then_failover(self):
        sim, net, frontend = build_distributed()
        probe = BrokerProbe(net)
        _, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.run(until=0.13)
        sid, primary, standby = owning_host(frontend, "alice")
        assert probe.responses and probe.responses[0].approved
        # Minted and acked, but the 50 ms replication flush has not
        # fired: the standby has seen nothing yet.
        assert primary.auths_served == 1 and standby._applied_seq == 0
        session_id = the_session(net)
        revoked = net.brokerd.revoke_subscriber("alice")
        assert [g.session_id for g in revoked] == [session_id]
        sim.run(until=0.5)
        primary.crash()
        sim.run(until=3.0)
        st = frontend.states[sid]
        assert st.status == "healthy"
        promoted = st.hosts[st.primary_addr]
        assert promoted is standby
        (shard,) = promoted.sap.shards
        assert session_id in shard.revoked_sessions
        assert session_id not in shard.grants
        assert promoted.sap.note_scope_attach(session_id, 1, sim.now) \
            == (False, False, DenialCause.REVOKED.value)
        acks = send_scope_notice(net, "btelco-a", session_id, 1)
        sim.run(until=5.0)
        assert [(ack.accepted, ack.cause) for ack in acks] \
            == [(False, DenialCause.REVOKED.value)]

    def test_revoke_while_shard_has_no_primary(self):
        sim, net, frontend = build_distributed()
        probe = BrokerProbe(net)
        _, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.run(until=0.5)
        sid, primary, standby = owning_host(frontend, "alice")
        session_id = the_session(net)
        primary.crash()
        sim.run(until=0.6)      # dead, not yet detected
        assert len(net.brokerd.revoke_subscriber("alice")) == 1
        sim.run(until=3.0)
        assert frontend.states[sid].status == "healthy"
        (shard,) = standby.sap.shards
        assert not standby.is_replica
        assert session_id in shard.revoked_sessions
        assert session_id not in shard.grants

    def test_standby_counts_no_revocations_of_its_own(self):
        sim, net, frontend = build_distributed()
        probe = BrokerProbe(net)
        _, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.run(until=0.5)
        _, primary, standby = owning_host(frontend, "alice")
        net.brokerd.revoke_subscriber("alice")
        sim.run(until=1.0)
        assert primary.sap.export() == standby.sap.export()
        assert [op[0] for op in standby.sap.export()] \
            == ["nonce", "tombstone"]
        assert primary.sap.grants_revoked == 1
        assert standby.sap.grants_revoked == 0


class TestRetransmissionAfterRevoke:
    def test_denied_at_broker_sap(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        broker = in_process_broker(net)
        _, req_t = craft_request(net, "alice")
        broker.process_request(req_t, now=1.0)
        assert broker.process_request(req_t, now=2.0)   # re-served
        assert broker.dup_requests_served == 1
        broker.revoke("alice")
        with pytest.raises(SapError) as excinfo:
            broker.process_request(req_t, now=3.0)
        assert excinfo.value.cause is DenialCause.SUSPENDED
        assert broker.dup_requests_served == 1
        assert broker.stats()["response_cache_size"] == 0

    @pytest.mark.parametrize("distributed", [False, True])
    def test_denied_at_brokerd(self, distributed):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        if distributed:
            deploy_shard_hosts(net, num_shards=2)
        probe = BrokerProbe(net)
        _, req_t = craft_request(net, "alice")
        sim.schedule(0.1, probe.submit, req_t)
        sim.schedule(0.5, net.brokerd.revoke_subscriber, "alice")
        sim.schedule(0.6, probe.submit, req_t)
        sim.run(until=2.0)
        first, second = probe.responses
        assert first.approved and not second.approved
        assert DenialCause.SUSPENDED.value in second.cause
        assert net.brokerd.stats()["sessions_tracked"] == 0


class TestOneExpiryEverywhere:
    def test_response_expiry_same_on_primary_resynced_standby_and_target(
            self):
        sim, net, frontend = build_distributed(spares=1)
        ids = [f"sub-{i:02d}" for i in range(12)]
        for id_u in ids:
            net.brokerd.enroll_subscriber(
                id_u, net.credentials.ue_key.public_key)
        probe = BrokerProbe(net)
        for index, id_u in enumerate(ids):
            sim.schedule(0.1 + 0.02 * index, probe.submit,
                         craft_request(net, id_u)[1])
        sim.run(until=1.5)
        assert sum(resp.approved for resp in probe.responses) == len(ids)

        def responses(host):
            return {op[1]: op[3] for op in host.sap.export()
                    if op[0] == "response"}

        def all_hosts():
            return [host for st in frontend.states.values()
                    for host in st.hosts.values()]

        minted = {}
        for host in all_hosts():
            minted.update(responses(host))
        assert len(minted) == len(ids)
        # A standby rejoins empty and is resynced from its primary.
        _, primary, standby = owning_host(frontend, ids[0])
        standby.crash()
        sim.run(until=2.5)
        standby.restart()
        frontend.notify_activity()
        sim.run(until=5.0)
        assert responses(standby) and responses(standby) == responses(primary)
        assert standby.sap.export() == primary.sap.export()
        # A scale-out hands some subscribers to the joiner.
        before = {id_u: frontend.ring.shard_for(id_u) for id_u in ids}
        joiner = frontend.add_shard()
        sim.run(until=8.0)
        assert frontend._rebalance is None
        st = frontend.states[joiner]
        target = st.hosts[st.primary_addr]
        assert any(frontend.ring.shard_for(id_u) != before[id_u]
                   for id_u in ids)
        assert responses(target)
        for host in all_hosts():
            for digest, expires_at in responses(host).items():
                assert expires_at == minted[digest]
        for op in target.sap.export():
            if op[0] == "response":
                grant = op[2][2]
                assert op[3] == grant.granted_at + min(
                    target.sap.response_cache_ttl, target.sap.session_ttl)


class TestFrontendMirror:
    def test_no_per_session_entry_after_revoke_and_expiry(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        net.brokerd.sap.session_ttl = 5.0
        net.brokerd.enroll_subscriber(
            "bob", net.credentials.ue_key.public_key)
        frontend = deploy_shard_hosts(net, num_shards=2)
        probe = BrokerProbe(net)
        sim.schedule(0.1, probe.submit, craft_request(net, "alice")[1])
        sim.run(until=1.0)
        session_id = the_session(net)
        net.brokerd.revoke_subscriber("alice")
        assert net.brokerd.sap.session_owner(session_id) == "alice"
        # Revoked but unexpired: the notice is routed to the owning
        # shard and comes back REVOKED, not UNKNOWN_SUBSCRIBER.
        acks = send_scope_notice(net, "btelco-a", session_id, 1)
        sim.run(until=2.0)
        assert [ack.cause for ack in acks] == [DenialCause.REVOKED.value]
        # Past the session's original lifetime the next auth sweeps the
        # tombstone, and with it the last trace of the session.
        sim.schedule(6.0, probe.submit, craft_request(net, "bob")[1])
        sim.run(until=9.0)
        assert probe.responses[-1].approved
        assert net.brokerd.sap.session_owner(session_id) is None
        assert all(session_id not in repr(op[1:2])
                   for op in net.brokerd.sap.export())
        assert net.brokerd.stats()["sessions_tracked"] == 1   # bob's
        for leftover in ("_session_owner", "_grants_by_ue",
                         "_expiry_heap", "_sweep_expiries"):
            assert not hasattr(frontend, leftover)
        acks = send_scope_notice(net, "btelco-a", session_id, 2)
        sim.run(until=10.0)
        assert [ack.cause for ack in acks] \
            == [DenialCause.UNKNOWN_SUBSCRIBER.value]

    def test_expiry_closes_billing_and_routing_through_the_daemon(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        net.brokerd.sap.session_ttl = 5.0
        net.brokerd.enroll_subscriber(
            "bob", net.credentials.ue_key.public_key)
        deploy_shard_hosts(net, num_shards=2)
        probe = BrokerProbe(net)
        sim.schedule(0.1, probe.submit, craft_request(net, "alice")[1])
        sim.run(until=1.0)
        session_id = the_session(net)
        assert not net.brokerd.billing.sessions[session_id].closed
        sim.schedule(6.0, probe.submit, craft_request(net, "bob")[1])
        sim.run(until=9.0)
        stats = net.brokerd.stats()
        assert stats["grants_expired"] == 1 and stats["grants_active"] == 1
        assert net.brokerd.billing.sessions[session_id].closed
        assert session_id not in net.brokerd._session_btelco


class TestInProcessRebalance:
    def test_export_is_layout_independent_and_round_trips(self):
        sim = Simulator()
        net = build_cellbricks_network(sim)
        ids = tuple(f"sub-{i:02d}" for i in range(10))
        broker = in_process_broker(net, num_shards=2, subscribers=ids)
        grants = [broker.process_request(craft_request(net, id_u)[1],
                                         now=1.0 + i)[2]
                  for i, id_u in enumerate(ids)]
        broker.revoke(ids[3])
        for grant in grants[:3]:
            assert broker.note_scope_attach(grant.session_id, 2, 20.0)[0]
        before = broker.export()
        assert [op[0] for op in before].count("scope_counter") == 3
        broker.set_shard_count(5)
        assert broker.export() == before
        broker.remove_shard(0)
        assert broker.export() == before
        for shard in broker.shards:
            for op in shard.export():
                assert broker.shard_of(op_owner(broker, op)) is shard
        journal = []
        broker.journal = journal.append
        broker.apply(("reset",))
        assert broker.export() == []
        for op in before:
            broker.apply(op)
            broker.apply(op)      # every op is idempotent
        assert broker.export() == before
        assert journal[0] == ("reset",) and len(journal) == 1 + 2 * len(before)
        with pytest.raises(ValueError):
            broker.apply(("bogus", "x", "alice"))


# -- seeded convergence ------------------------------------------------------

def run_schedule(seed):
    rng = random.Random(seed)
    sim = Simulator()
    net = build_cellbricks_network(sim, site_names=("s0", "s1"))
    ids = [f"sub-{i}" for i in range(8)]
    for id_u in ids:
        net.brokerd.enroll_subscriber(
            id_u, net.credentials.ue_key.public_key)
    frontend = deploy_shard_hosts(net, num_shards=2, spares=1)
    probe = BrokerProbe(net)
    hosts = [host for st in frontend.states.values()
             for host in st.hosts.values()]
    sent = {}

    def sessions():
        return sorted(op[1].session_id if op[0] == "grant" else op[1]
                      for op in net.brokerd.sap.export()
                      if op[0] in ("grant", "tombstone"))

    def attach():
        id_u = rng.choice(ids)
        sent[id_u] = craft_request(net, id_u, rng.choice(("s0", "s1")))[1]
        probe.submit(sent[id_u])

    def duplicate():
        if sent:
            probe.submit(sent[rng.choice(sorted(sent))])

    def revoke():
        net.brokerd.revoke_subscriber(rng.choice(ids))

    def scope_notice():
        if sessions():
            send_scope_notice(net, rng.choice(("s0", "s1")),
                              rng.choice(sessions()), rng.randint(1, 4))

    # One fault at a time, as in the hand-written drills: a host only
    # dies in an active, settled shard, and the ring only changes while
    # every host is up (a spare's hosts are not health-checked, and a
    # handoff whose source *and* target lose a host is not a schedule
    # this protocol claims to survive).  An outage also outlasts the
    # failure detector: a host that blinks out and back inside
    # ``detection_timeout`` rejoins empty without anyone noticing — a
    # gap of the health checker (see ROADMAP), not of state movement.
    def settled():
        return frontend._rebalance is None \
            and not any(host.crashed for host in hosts) \
            and all(link.a_to_b.up for link in net.links.values()) \
            and all(st.status == "healthy" and all(st.alive.values())
                    for st in frontend.states.values())

    def crash():
        if settled():
            st = frontend.states[rng.choice(frontend.active_ids)]
            host = st.hosts[rng.choice((st.primary_addr, st.standby_addr))]
            host.crash()
            sim.schedule(rng.uniform(1.0, 2.5), host.restart)

    # A partition, not a crash: every link of one standby goes dark and
    # the host keeps its state, so the resync ordered on heal meets a
    # receiver that remembers the old stream.  Only standbys: a primary
    # that is partitioned but alive is failed over and comes back as a
    # second primary — a hole of the health checker (see ROADMAP), not
    # of state movement.
    def isolate():
        if settled():
            sid = rng.choice(frontend.active_ids)
            st = frontend.states[sid]
            standby = st.hosts[st.standby_addr]
            duration = rng.uniform(1.0, 2.5)
            for name in (f"{standby.name}-broker", f"shard{sid}-repl"):
                net.links[name].set_up(False)
                sim.schedule(duration, net.links[name].set_up, True)

    def add_shard():
        if settled() and frontend.spare_ids:
            frontend.add_shard()

    def remove_shard():
        if settled() and len(frontend.active_ids) > 1:
            frontend.remove_shard(rng.choice(frontend.active_ids))

    actions = [attach] * 6 + [duplicate] * 2 + [revoke, scope_notice,
                                                scope_notice, crash,
                                                isolate, add_shard,
                                                remove_shard]
    for _ in range(24):
        rng.choice(actions)()
        sim.run(until=sim.now + rng.choice((0.01, 0.04, 0.2, 0.9)))
    # Quiesce: everyone back up, failovers / resyncs / handoffs settle.
    for _ in range(12):
        frontend.notify_activity()
        sim.run(until=sim.now + 2.0)
        if settled() and not any(host.repl_backlog_ops for host in hosts):
            break
    else:
        pytest.fail(f"seed {seed}: did not quiesce")
    return sim, net, frontend


@pytest.mark.parametrize("seed", range(20))
def test_replicas_converge_under_random_interleavings(seed):
    sim, net, frontend = run_schedule(seed)
    exported = 0
    for sid, st in sorted(frontend.states.items()):
        primary = st.hosts[st.primary_addr]
        standby = st.hosts[st.standby_addr]
        assert not primary.is_replica and standby.is_replica
        for host in (primary, standby):
            host.sap.begin_window(sim.now)     # same TTL sweep on both
        ops = primary.sap.export()
        assert ops == standby.sap.export(), f"seed {seed} shard {sid}"
        # Whatever a shard holds belongs to it under the final ring.
        assert all(sid in frontend.active_ids and frontend.ring.shard_for(
            op_owner(primary.sap, op)) == sid for op in ops)
        # A tombstoned session holds no grant and no cached approval.
        dead = {op[1] for op in ops if op[0] == "tombstone"}
        assert not dead & {op[1].session_id for op in ops
                           if op[0] == "grant"}
        assert not dead & {op[2][2].session_id for op in ops
                           if op[0] == "response"}
        standby.sap.apply(("reset",))
        assert standby.sap.export() == []
        for op in ops:
            standby.sap.apply(op)
        assert standby.sap.export() == ops
        exported += len(ops)
    assert exported, f"seed {seed}: schedule left no state to compare"


# -- the single-writer guard -------------------------------------------------

GUARDED = {"grants", "seen_nonces", "revoked_sessions", "scope_counters",
           "sessions_by_ue", "_response_cache"}
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault",
            "__setitem__", "__delitem__"}
#: the bTelco's own revocation list / counter share a name with the
#: broker's tombstone table but are not shard state.
NOT_SHARD_STATE = {("core/sap.py", "BtelcoSap"),
                   ("core/btelco_core.py", "SapServingCore")}


def _guarded_attr(node):
    """``x.grants`` or ``x.grants[...]`` -> "grants"."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in GUARDED:
        return node.attr
    return None


def _writes(tree):
    """(lineno, attr, enclosing class, enclosing function) of every
    write to a guarded table."""
    found = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func is None:
            func = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            targets = [node.func.value]
        for target in targets:
            for leaf in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                attr = _guarded_attr(leaf)
                if attr is not None:
                    found.append((node.lineno, attr, cls, func))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(tree, None, None)
    return found


def test_shard_state_has_a_single_writer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for lineno, attr, cls, func in _writes(ast.parse(path.read_text())):
            if rel == "core/sap.py" and (
                    cls == "SapShard"
                    or (cls, func) == ("BrokerSap", "apply")):
                continue
            if attr == "revoked_sessions" and (rel, cls) in NOT_SHARD_STATE:
                continue
            offenders.append(f"{rel}:{lineno} writes .{attr} "
                             f"in {cls}.{func}")
    assert not offenders, "\n".join(offenders)
    shardhost = (SRC / "core" / "shardhost.py").read_text()
    assert "sap.shards[0]" not in shardhost
    for gone in ("_apply_op", "_collect_handoff", "_drop_subscriber_state",
                 "_clear_session_state", "_grants_by_ue", "_session_owner",
                 "_expiry_heap", "_sweep_expiries"):
        assert gone not in shardhost
    for view in ("subscribers", "grants", "revoked_sessions", "_seen_nonces",
                 "_nonce_expiry", "_grant_expiry", "_sessions_by_ue"):
        assert not hasattr(BrokerSap, view)


def test_op_batches_are_cut_in_one_place():
    """One sender: whatever carries shard state between hosts goes
    through ``_OpStream._flush``, the only place a seq is assigned."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [f"{path.relative_to(SRC).as_posix()}:{func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "OpBatch"]
    assert sites == ["core/shardhost.py:_flush"]
    shardhost = (SRC / "core" / "shardhost.py").read_text()
    for gone in ("ReplicaUpdate", "HandoffChunk", "_repl_log", "_repl_seq",
                 "_repl_inflight", "_repl_timer", "_repl_last_ack_at",
                 "_flush_repl", "_transmit_repl", "_repl_gave_up",
                 "_handoffs_out", "_send_next_chunk", "_chunk_gave_up",
                 "_note_chunk_retx", "_chunks_applied"):
        assert gone not in shardhost


def test_guard_sees_a_planted_write():
    planted = ast.parse(
        "class Rogue:\n"
        "    def go(self, shard, sap):\n"
        "        shard.grants['s'] = 1\n"
        "        del shard.revoked_sessions['s']\n"
        "        shard.seen_nonces.pop(b'n', None)\n"
        "        sap._response_cache.clear()\n"
        "        shard.scope_counters = {}\n"
        "        a, shard.sessions_by_ue = 1, {}\n")
    assert sorted(attr for _, attr, _, _ in _writes(planted)) == sorted(GUARDED)
