"""One NAS substrate under two radios.

The attach skeleton lives once per side — :class:`repro.lte.ue_base.
NasUeBase` under both UEs, :class:`repro.lte.serving_base.
ServingNodeBase` under the AGW and the AMF — so behaviour that used to
drift between the LTE and 5G copies is checked here once, parametrised
over both RATs: the attempt-deadline GC (LTE never had one), the
supervised PDU-session leg (5G never had one), one assertion per closed
twin drift, and the AST guards that keep the twins from regrowing.
"""

import ast
from pathlib import Path

import pytest

from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.emulation.chaos import ChaosMonkey, ChaosSchedule, outage
from repro.fivegc import nas5g
from repro.lte.aka import UsimState
from repro.net import Simulator
from repro.testbed.attach_bench import (
    ARCH_BASELINE,
    ARCH_CELLBRICKS,
    _BenchHarness,
)

RATS = ("lte", "5g")
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def attach(harness, seconds=2.0):
    """Run one attach on a Fig 7 harness; returns its result."""
    results = []
    harness.ue.on_attach_done = results.append
    harness.ue.attach()
    harness.sim.run(until=harness.sim.now + seconds)
    return results[0]


def drop_first(node, message_type):
    """Make ``node`` lose the first ``message_type`` it tries to send."""
    original, dropped = node.send, []

    def send(dst_ip, message, **kwargs):
        if isinstance(message, message_type) and not dropped:
            dropped.append(message)
            return
        original(dst_ip, message, **kwargs)

    node.send = send
    return dropped


# ---------------------------------------------------------------------------
# Attempt-deadline GC (serving base)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rat", RATS)
def test_half_open_attach_is_garbage_collected(rat):
    """A UE that goes silent after the broker approved must not pin its
    context, SAP session and RAN association forever: the serving base's
    deadline releases all three through the RAT's terminal path."""
    sim = Simulator()
    net = build_cellbricks_network(sim, rat=rat)
    site = net.sites["btelco-a"]
    ue = net.ue_class(net.ue_host, site.enb_address, net.credentials,
                      "btelco-a")
    # The request gets out, then the radio goes dark for good.
    ChaosMonkey(sim, net.links).arm(ChaosSchedule().add(
        outage(0.004, 10_000.0, "btelco-a-sig-radio")))
    ue.attach()
    sim.run(until=20.0)
    assert [c.state for c in site.agw.contexts.values()] \
        == ["WAIT_SMC_COMPLETE"]
    assert len(site.agw.sessions) == 1
    assert site.enb.connected_ues == 1

    sim.run(until=40.0)   # past attempt_ttl, long before the grant TTL
    assert site.agw.attempts_expired == 1
    assert site.agw.contexts == {}
    assert site.agw.sessions == {}
    assert site.agw._pending_sap == {}
    assert site.enb.connected_ues == 0
    assert net.brokerd.requests_approved == 1


@pytest.mark.parametrize("rat", RATS)
def test_deadline_spares_a_served_ue(rat):
    harness = _BenchHarness(ARCH_CELLBRICKS, "local", rat)
    assert attach(harness).success
    harness.sim.run(until=harness.agw.attempt_ttl + 5.0)
    assert harness.agw.attempts_expired == 0
    assert [c.state in harness.agw.live_states
            for c in harness.agw.contexts.values()] == [True]


# ---------------------------------------------------------------------------
# Supervised PDU-session leg (5G)
# ---------------------------------------------------------------------------

class Drive5G:
    """A mobility manager on a two-site 5G network, outcomes recorded."""

    def __init__(self):
        self.sim = Simulator()
        self.net = build_cellbricks_network(self.sim, rat="5g")
        self.site = self.net.sites["btelco-a"]
        self.manager = MobilityManager(self.net)
        self.attached, self.failed = [], []
        self.manager.on_attached = \
            lambda site, result: self.attached.append(site.name)
        self.manager.on_failed = \
            lambda site, result: self.failed.append(result.cause)
        self.manager.start("btelco-a")
        self.ue = self.manager.ue

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)


class TestPduSessionLeg:
    def test_lost_request_is_resent(self):
        drive = Drive5G()
        lost = drop_first(drive.ue, nas5g.PduSessionEstablishmentRequest)
        drive.run(3.0)
        assert len(lost) == 1
        assert drive.attached == ["btelco-a"] and not drive.failed
        assert drive.ue.ue_ip is not None
        assert drive.ue.nas_retransmissions == 1
        assert drive.manager.target_site is None

    def test_lost_accept_is_replayed_from_one_smf_session(self):
        drive = Drive5G()
        lost = drop_first(drive.site.enb,
                          nas5g.PduSessionEstablishmentAccept)
        drive.run(3.0)
        assert len(lost) == 1
        assert drive.attached == ["btelco-a"] and not drive.failed
        # The retransmitted request was answered from the context, not
        # by asking the SMF for a second session (a leaked address).
        assert drive.site.smf.sessions_created == 1
        assert len(drive.site.smf.upf.bearers) == 1
        assert drive.ue.ue_ip == lost[0].ue_ip

    def test_permanent_loss_fails_the_attach_and_recovers(self):
        drive = Drive5G()
        radio = drive.net.links["btelco-a-sig-radio"]

        def go_dark(_result):
            radio.a_to_b.interrupt(20.0)
            radio.b_to_a.interrupt(20.0)

        drive.ue.on_registration_done = go_dark
        drive.run(12.0)
        assert drive.failed == ["PDU session timed out after 5 attempts"]
        assert not drive.attached
        assert drive.manager.detached
        assert drive.manager.target_site is None
        assert drive.ue.state == "DEREGISTERED"
        assert drive.ue.attach_timeouts == 1
        # Not wedged: once the radio heals the drive re-attaches.
        drive.ue.on_registration_done = None
        drive.run(10.0)
        drive.manager.reattach()
        drive.run(3.0)
        assert drive.attached == ["btelco-a"]
        assert not drive.manager.detached

    def test_network_deregistration_ends_the_pending_leg(self):
        harness = _BenchHarness(ARCH_CELLBRICKS, "local", "5g")
        assert attach(harness).success
        sessions = []
        harness.ue.on_session_done = sessions.append
        drop_first(harness.ue, nas5g.PduSessionEstablishmentRequest)
        harness.ue.establish_session()
        context = next(iter(harness.agw.contexts.values()))
        harness.agw._teardown_session(context,
                                      context.sap_session.session_id)
        harness.sim.run(until=harness.sim.now + 1.0)
        assert harness.ue.state == "DEREGISTERED"
        assert [(s.success, s.cause) for s in sessions] \
            == [(False, "deregistered by the network")]


# ---------------------------------------------------------------------------
# Twin drift, closed by inheritance: one behaviour each, from the base
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rat", RATS)
class TestTwinDrift:
    def test_wrong_sim_key_fails_network_authentication(self, rat):
        harness = _BenchHarness(ARCH_BASELINE, "local", rat)
        harness.ue.usim = UsimState(k=bytes(16))  # SIM with a different K
        result = attach(harness)
        assert not result.success
        assert result.cause.startswith("network authentication failed: ")
        assert harness.ue.state == "REJECTED"

    def test_causeless_reject_reads_rejected(self, rat):
        harness = _BenchHarness(ARCH_BASELINE, "local", rat)
        results = []
        harness.ue.on_attach_done = results.append
        harness.ue.attach()
        harness.ue._on_reject(harness.ue.ran_ip, object())
        assert [r.cause for r in results] == ["rejected"]

    def test_retarget_repoints_radio_network_and_btelco(self, rat):
        ue = _BenchHarness(ARCH_CELLBRICKS, "local", rat).ue
        ue.retarget("10.9.9.1", "other-telco")
        assert (ue.ran_ip, ue.serving_network, ue.target_id_t) \
            == ("10.9.9.1", "other-telco", "other-telco")

    def test_fresh_attach_forgets_the_last_challenge(self, rat):
        ue = _BenchHarness(ARCH_CELLBRICKS, "local", rat).ue
        ue._last_auth_rand, ue._auth_response = b"stale", object()
        ue.session_id = "stale"
        ue.attach()
        assert ue._last_auth_rand is None and ue._auth_response is None
        assert ue.session_id is None and ue.security is None


# ---------------------------------------------------------------------------
# AST guards: the twins cannot quietly regrow
# ---------------------------------------------------------------------------

def _parse(relative):
    return ast.parse((SRC / relative).read_text())


def test_cellbricks_serving_nodes_are_built_in_two_places_only():
    """``CellBricksAgw(`` / ``CellBricksAmf(`` appear only in the site
    factory's per-RAT builders and the Fig 7 bench's node table."""
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id in ("CellBricksAgw",
                                             "CellBricksAmf"):
                    sites.add((str(path.relative_to(SRC)), function.name))
    assert sites == {
        ("core/mobility.py", "_lte_core"),
        ("core/mobility.py", "_5g_core"),
        ("testbed/attach_bench.py", "_lte_cellbricks"),
        ("testbed/attach_bench.py", "_5g_cellbricks"),
    }


@pytest.mark.parametrize("module", ["lte/ue_base.py",
                                    "lte/serving_base.py"])
def test_substrate_bases_never_ask_which_rat(module):
    """No ``"lte"``/``"5g"`` string tests, no ``hasattr`` probing, and
    ``isinstance`` only on the RAN relay envelope or on class data the
    RAT supplied (``self.<table>``)."""
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.Constant):
            assert node.value not in ("lte", "5g"), \
                f"{module}:{node.lineno} names a RAT"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "hasattr", \
                f"{module}:{node.lineno} probes with hasattr"
            if node.func.id == "isinstance":
                kind = node.args[1]
                on_class_data = isinstance(kind, ast.Attribute) \
                    and isinstance(kind.value, ast.Name) \
                    and kind.value.id == "self"
                on_relay = isinstance(kind, ast.Name) \
                    and kind.id == "S1UplinkNas"
                assert on_class_data or on_relay, \
                    f"{module}:{node.lineno} isinstance on a RAT class"
