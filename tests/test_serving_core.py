"""One bTelco, two radios: the serving core behaves the same on both RATs.

Everything CellBricks adds to a serving node lives once, in
:class:`repro.core.btelco_core.SapServingCore` (bTelco) and
:class:`repro.core.ue_agent.SapUeAgent` (UE), and the NAS skeleton under
them once more, in :class:`repro.lte.serving_base.ServingNodeBase` and
:class:`repro.lte.ue_base.NasUeBase`.  This file runs one lifecycle
script against an LTE and a 5G two-site network and checks that (a)
every phase lands where SAP says it should, (b) the shared counters come
out identical RAT-to-RAT, and (c) no RAT module shadows a shared method
— so the next control-plane feature cannot fork silently.
"""

import functools
import inspect

import pytest

from repro.core import CellBricksAgw, CellBricksAmf, CellBricksUe, \
    CellBricksUe5G
from repro.fivegc import Amf, Ue5G
from repro.lte import Agw, UeNas
from repro.lte.serving_base import ServingNodeBase
from repro.lte.ue_base import NasUeBase
from repro.core.btelco_core import SapServingCore
from repro.core.messages import ScopeAttachAck
from repro.core.mobility import build_cellbricks_network
from repro.core.ue_agent import SapUeAgent
from repro.emulation.chaos import ChaosMonkey, ChaosSchedule, outage
from repro.net import Simulator

RATS = ("lte", "5g")
SERVED = ("ATTACHED", "REGISTERED")


def auth_rpcs(brokerd):
    return brokerd.requests_approved + brokerd.requests_denied


class Lifecycle:
    """The script.  Each phase records what it observed in ``seen``;
    the tests below assert on it per RAT and across RATs."""

    def __init__(self, rat):
        self.sim = Simulator()
        self.net = build_cellbricks_network(self.sim, rat=rat)
        self.brokerd = self.net.brokerd
        self.a = self.net.sites["btelco-a"].agw
        self.b = self.net.sites["btelco-b"].agw
        self.ue = self.net.ue_class(
            self.net.ue_host, self.net.sites["btelco-a"].enb_address,
            self.net.credentials, "btelco-a")
        self.results = []
        self.ue.on_attach_done = self.results.append
        self.monkey = ChaosMonkey(self.sim, self.net.links)
        self.seen = {}
        for phase in (self.attach, self.retransmitted_request,
                      self.broker_dark, self.revoked_mid_attach,
                      self.grant_expiry, self.scoped_attach,
                      self.replayed_counter, self.terminal_nack):
            phase()
        self.seen["counters"] = {
            name: {**site._grant_stats(), **site._scope_stats()}
            for name, site in (("a", self.a), ("b", self.b))}

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def holding(self, site):
        """Contexts at ``site`` still holding a session (LTE's baseline
        AGW also keeps session-less contexts around; the AMF does not)."""
        return sum(c.sap_session is not None for c in site.contexts.values())

    def leave(self):
        self.ue.detach_and_forget()
        self.run(0.5)

    def attach_and_wait(self, seconds=2.0):
        self.ue.attach()
        self.run(seconds)
        return self.results[-1]

    # -- phases -------------------------------------------------------------------
    def attach(self):
        result = self.attach_and_wait()
        self.seen["attach"] = dict(
            success=result.success, served=self.ue.state in SERVED,
            sessions=len(self.a.sessions), rpcs=auth_rpcs(self.brokerd),
            pseudonymous=all(s.id_u_opaque != "alice"
                             for s in self.a.sessions.values()))
        self.leave()

    def retransmitted_request(self):
        """The challenge + SMC downlinks die on the radio; the UE's
        retransmitted request must make the site replay both without a
        second broker RPC."""
        rpcs = auth_rpcs(self.brokerd)
        self.monkey.arm(ChaosSchedule().add(
            outage(self.sim.now + 0.010, 0.150, "btelco-a-sig-radio")))
        result = self.attach_and_wait(3.0)
        self.seen["retransmit"] = dict(
            success=result.success, dups=self.a.dup_attach_requests,
            new_rpcs=auth_rpcs(self.brokerd) - rpcs,
            ue_retx=self.ue.nas_retransmissions)
        self.leave()

    def broker_dark(self):
        self.monkey.arm(ChaosSchedule().add(
            outage(self.sim.now, 30.0, "btelco-a-broker")))
        result = self.attach_and_wait(31.0)
        self.seen["dark"] = dict(
            success=result.success, timeouts=self.a.broker_timeouts,
            pending=len(self.a._pending_sap),
            outstanding=self.a.stats()["requests_outstanding"],
            sessions=len(self.a.sessions))

    def revoked_mid_attach(self):
        """The broker approves, then revokes while its approval is still
        being processed at the site."""
        states = []
        approved = self.brokerd.requests_approved

        def revoke():
            states.extend(c.state for c in self.a.contexts.values())
            self.brokerd.revoke_subscriber("alice")

        self.sim.schedule(0.022, revoke)
        self.attach_and_wait()
        self.seen["revoked"] = dict(
            approved=self.brokerd.requests_approved - approved,
            states_at_revoke=states, served=self.ue.state in SERVED,
            sessions=len(self.a.sessions), holding=self.holding(self.a),
            acks=self.a.revocation_acks_sent)
        self.brokerd.sap.subscriber("alice").suspended = False

    def grant_expiry(self):
        self.brokerd.sap.session_ttl = 5.0
        result = self.attach_and_wait()
        served_before = self.ue.state in SERVED
        self.run(5.0)
        self.seen["expiry"] = dict(
            success=result.success, served_before=served_before,
            served_after=self.ue.state in SERVED,
            expired=self.a.expired_sessions, sessions=len(self.a.sessions),
            holding=self.holding(self.a))
        self.brokerd.sap.session_ttl = 3600.0

    def scoped_attach(self):
        self.ue.scope_request = {"telcos": ["btelco-a", "btelco-b"],
                                 "ttl": 300.0}
        self.attach_and_wait()
        rpcs = auth_rpcs(self.brokerd)
        self.leave()
        self.ue.retarget(self.net.sites["btelco-b"].enb_address, "btelco-b")
        result = self.attach_and_wait()
        self.seen["scoped"] = dict(
            success=result.success, new_rpcs=auth_rpcs(self.brokerd) - rpcs,
            ue_scoped=self.ue.scoped_attaches,
            site_scoped=self.b.scoped_attaches,
            notices_accepted=self.brokerd.scope_notices_accepted,
            notices_pending=len(self.b._scope_notice_pending),
            same_session=self.ue.session_id in self.b.sessions)

    def replayed_counter(self):
        """An eavesdropper replays the scoped request the UE just used,
        from a different RAN association."""
        request = self.ue._initial_request_cache
        served = next(iter(self.b.contexts.values()))
        fresh = type(served)(4242, self.net.sites["btelco-b"].enb_address)
        self.b.contexts[4242] = fresh
        self.b._dispatch_nas(fresh, request)
        self.run(0.5)
        self.seen["replay"] = dict(
            probe=self.b.validate_scope_probe(
                request.token, request.counter, request.mac),
            state=fresh.state, rejects=self.b.scoped_rejects,
            replays=self.b.scope_replays_denied,
            floor=self.b._scope_counters[request.token.session_id],
            victim_served=self.ue.state in SERVED)
        self.b.contexts.pop(4242, None)

    def terminal_nack(self):
        """The broker vetoes the scope-local attach after the fact."""
        sid = self.ue.session_id
        self.b._handle_scope_ack(
            self.net.broker_host.address,
            ScopeAttachAck(session_id=sid, counter=1, accepted=False,
                           cause="revoked"))
        self.run(0.5)
        self.seen["nack"] = dict(
            nacks=self.b.scope_notice_nacks, served=self.ue.state in SERVED,
            sessions=len(self.b.sessions), holding=self.holding(self.b),
            authorized=self.b.sap.session_authorized(sid),
            unauthorized_s=self.b.scope_unauthorized_session_s)


@functools.lru_cache(maxsize=None)
def lifecycle(rat):
    return Lifecycle(rat).seen


@pytest.fixture(params=sorted(RATS))
def seen(request):
    return lifecycle(request.param)


class TestLifecycleOnEachRat:
    def test_attach(self, seen):
        assert seen["attach"] == dict(success=True, served=True, sessions=1,
                                      rpcs=1, pseudonymous=True)

    def test_retransmitted_request_replays_without_broker_rpc(self, seen):
        got = seen["retransmit"]
        assert got["success"] and got["ue_retx"] >= 1
        assert got["dups"] >= 1
        assert got["new_rpcs"] == 1

    def test_dark_broker_yields_clean_reject(self, seen):
        assert seen["dark"] == dict(success=False, timeouts=1, pending=0,
                                    outstanding=0, sessions=0)

    def test_revocation_mid_attach_is_refused_at_completion(self, seen):
        assert seen["revoked"] == dict(
            approved=1, states_at_revoke=["WAIT_BROKER"], served=False,
            sessions=0, holding=0, acks=1)

    def test_grant_expiry_tears_the_session_down(self, seen):
        assert seen["expiry"] == dict(
            success=True, served_before=True, served_after=False,
            expired=1, sessions=0, holding=0)

    def test_scoped_attach_skips_the_broker(self, seen):
        assert seen["scoped"] == dict(
            success=True, new_rpcs=0, ue_scoped=1, site_scoped=1,
            notices_accepted=1, notices_pending=0, same_session=True)

    def test_replayed_counter_denied(self, seen):
        assert seen["replay"] == dict(
            probe="replay", state="REJECTED", rejects=1, replays=1, floor=1,
            victim_served=True)

    def test_terminal_nack_withdraws_the_session(self, seen):
        got = seen["nack"]
        assert got["nacks"] == 1 and not got["served"]
        assert got["sessions"] == 0 and got["holding"] == 0
        assert not got["authorized"]
        assert got["unauthorized_s"] > 0.0


def test_shared_counters_agree_across_rats():
    # Attach legs cost different sim time per generation, so the one
    # float (seconds of vetoed service) is compared by sign only.
    lte, nr = (
        {site: {name: value > 0 if isinstance(value, float) else value
                for name, value in counters.items()}
         for site, counters in lifecycle(rat)["counters"].items()}
        for rat in ("lte", "5g"))
    assert lte == nr
    assert lte["b"]["scope_unauthorized_session_s"] is True


#: what an adapter may define for itself: the documented hooks plus the
#: overrides that extend (``super()``) rather than replace.
SITE_HOOKS = {"__init__", "reject_sap", "_install_identity",
              "_forget_session"}
UE_HOOKS = {"__init__"}
#: the substrate's per-RAT legs: the cheatsheet rows and nothing else.
NAS_UE_HOOKS = {"__init__", "initial_request", "_authenticate",
                "_send_switch_off", "_clear_mm_state", "_deliver"}
SERVING_HOOKS = {"__init__", "reject", "after_security_established",
                 "_send_accept", "_abandon_attach", "_free_resources"}
#: the handlers every feature since PR 4 had landed twice.
SITE_SHARED = {"_handle_broker_response", "_broker_gave_up",
               "_handle_scope_ack", "_notify_scope_attach",
               "validate_scope_probe", "_handle_revocation_batch",
               "_apply_revocation", "_expire_session", "trust_broker",
               "broker_endpoint"}
UE_SHARED = {"_grant_covers_target", "_on_sap_challenge", "_on_reject",
             "initial_request", "attach", "retarget", "_on_attach_give_up"}
NAS_UE_SHARED = {"attach", "_send_initial_request", "_supervise",
                 "_arm", "_cancel", "_stop",
                 "_timer_fired", "_on_auth_request", "_on_smc",
                 "_send_smc_complete", "_on_reject", "_retry_after_reject",
                 "_fail", "detach_and_forget", "retarget",
                 "_obs_begin_attach", "_obs_end_attach",
                 "_obs_degraded_retry"}
SERVING_SHARED = {"span_name", "processing_cost", "_handle_uplink",
                  "downlink", "send_smc", "_on_smc_complete",
                  "_send_supervised_accept", "_check_accept",
                  "_arm_deadline", "_attempt_deadline", "_release_ue",
                  "context_released"}


@pytest.mark.parametrize("core, adapters, hooks, must_share", [
    (SapServingCore, (CellBricksAgw, CellBricksAmf), SITE_HOOKS,
     SITE_SHARED),
    (SapUeAgent, (CellBricksUe, CellBricksUe5G), UE_HOOKS, UE_SHARED),
    (NasUeBase, (UeNas, Ue5G), NAS_UE_HOOKS, NAS_UE_SHARED),
    (ServingNodeBase, (Agw, Amf), SERVING_HOOKS, SERVING_SHARED),
])
def test_adapters_share_one_implementation(core, adapters, hooks,
                                           must_share):
    """Every non-hook method of the shared class resolves to the *same
    function object* on both adapters."""
    shared = {name for name, member in vars(core).items()
              if inspect.isfunction(member)} - hooks
    assert must_share <= shared
    for name in sorted(shared):
        resolved = {getattr(adapter, name) for adapter in adapters}
        assert resolved == {vars(core)[name]}, \
            f"{name} is shadowed by an adapter: {resolved}"
