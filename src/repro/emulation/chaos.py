"""Fault injection for the CellBricks control plane.

The reliability claims of the control plane (retransmission with
backoff, idempotent SAP, ack'd revocation fan-out) are only worth
anything under faults, so this module provides a declarative way to
script them against a :func:`repro.core.mobility.build_cellbricks_network`
network:

* :class:`ChaosEvent` / :class:`ChaosSchedule` — "at t=2.0, 5% loss on
  every ``*-broker`` link for 3 s", written as data.
* :class:`ChaosMonkey` — arms a schedule on the simulator and drives
  the existing :class:`~repro.net.link.Link` knobs (``loss_rate``,
  ``interrupt``, per-half ``set_up``) plus broker brown-outs (inflated
  ``processing_costs``).
* :func:`run_chaos` — an attach/revoke churn under a schedule,
  reporting attach success rate, p50/p99 attach latency,
  retransmission counts, and **unauthorized-session-seconds** (time a
  revoked session kept being served; the invariant is that this is
  exactly zero).

Faults are all finite: every event restores the state it perturbed, so
the event queue drains and ``sim.run()`` terminates.  Loss draws come
from each link's own seeded RNG and the schedule itself is data, so a
fixed seed reproduces a run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Callable, Optional

from repro.analysis import percentile
from repro.analysis.gates import gate
from repro.net import Link, Simulator
from repro.obs import CounterAttr, MetricsRegistry, Obs
from repro.obs import install as install_obs

from .routes import ARCH_CELLBRICKS

# Fault kinds understood by the monkey.
KIND_LOSS = "loss"            # set loss_rate on both halves for a while
KIND_OUTAGE = "outage"        # link fully down for a while
KIND_BROWNOUT = "brownout"    # brokerd processing costs inflated
KIND_PARTITION = "partition"  # one simplex half down (asymmetric fault)
KIND_NODE_CRASH = "node_crash"      # a registered node loses all state

# Partition directions: which simplex half goes dark.  ``a_to_b`` is the
# first-constructor-argument side's transmit direction (UE→eNB on radio
# links, AGW→broker on broker links — see build_cellbricks_network).
DIR_A_TO_B = "a_to_b"
DIR_B_TO_A = "b_to_a"
DIR_BOTH = "both"


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault.

    ``target`` is an ``fnmatch`` glob over link names (``*-broker``,
    ``btelco-a-sig-radio``, ``*``); it is ignored for brown-outs, which
    always hit the broker daemon.  ``value`` is the loss rate for
    ``loss`` events and the cost multiplier for ``brownout`` events.
    """

    at: float
    kind: str
    target: str = "*"
    duration: float = 1.0
    value: float = 0.0
    direction: str = DIR_BOTH


def loss_burst(at: float, duration: float, rate: float,
               target: str = "*") -> ChaosEvent:
    """``rate`` loss on every link matching ``target`` for ``duration``."""
    return ChaosEvent(at=at, kind=KIND_LOSS, target=target,
                      duration=duration, value=rate)


def outage(at: float, duration: float, target: str = "*") -> ChaosEvent:
    """Links matching ``target`` go fully dark for ``duration``."""
    return ChaosEvent(at=at, kind=KIND_OUTAGE, target=target,
                      duration=duration)


def brownout(at: float, duration: float,
             factor: float = 10.0) -> ChaosEvent:
    """Broker processing costs inflated by ``factor`` for ``duration``."""
    return ChaosEvent(at=at, kind=KIND_BROWNOUT, duration=duration,
                      value=factor)


def partition(at: float, duration: float, target: str,
              direction: str = DIR_A_TO_B) -> ChaosEvent:
    """One-way fault: only the ``direction`` half of matched links drops."""
    return ChaosEvent(at=at, kind=KIND_PARTITION, target=target,
                      duration=duration, direction=direction)


def node_crash(at: float, target: str,
               duration: float = 0.0) -> ChaosEvent:
    """Crash every registered node matching ``target`` (fail-stop: state
    lost, no more replies).  ``duration > 0`` restarts it after that
    long (it rejoins empty); ``0`` leaves it down for good."""
    return ChaosEvent(at=at, kind=KIND_NODE_CRASH, target=target,
                      duration=duration)


@dataclass
class ChaosSchedule:
    """An ordered fault script (order only matters for readability —
    every event carries its own absolute start time)."""

    events: list = field(default_factory=list)

    def add(self, event: ChaosEvent) -> "ChaosSchedule":
        self.events.append(event)
        return self

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class ChaosMonkey:
    """Arms a :class:`ChaosSchedule` against a set of links + a broker.

    Steady-state loss (a permanently lossy radio) is modelled by simply
    constructing the links with a nonzero ``loss_rate`` — the monkey is
    for *transient* faults layered on top.
    """

    faults_injected = CounterAttr("chaos.faults_injected")

    def __init__(self, sim: Simulator, links: dict,
                 brokerd=None, nodes: Optional[dict] = None):
        self.sim = sim
        self.links = links
        self.brokerd = brokerd
        #: name -> object exposing ``crash()``/``restart()`` (shard
        #: hosts register here via ``network.chaos_nodes``)
        self.nodes = nodes or {}
        self.metrics = MetricsRegistry(node="chaos")
        self.faults_injected = 0
        #: per-kind fault tally (registry-backed; ``dict(...)`` works)
        self.faults_by_kind = self.metrics.counter_vec(
            "chaos.faults", "kind")
        #: (time, kind, target) log of every fault begun
        self.log: list = []
        # Active-fault bookkeeping so overlapping events restore
        # correctly: each entry tracks the pre-fault baseline plus the
        # multiset of currently-applied fault values.  Restoring one
        # event recomputes the surviving maximum instead of blindly
        # writing back a snapshot that may itself be mid-fault state.
        self._loss_active: dict[int, list] = {}      # id(half) -> [half, base, [rates]]
        self._brownout_active: Optional[list] = None  # [daemon, prev, base, [factors]]

    # -- wiring ---------------------------------------------------------
    def arm(self, schedule: ChaosSchedule) -> None:
        for event in schedule:
            self.sim.schedule_at(event.at, self._begin, event)

    def _matched(self, pattern: str) -> list:
        return [link for name, link in sorted(self.links.items())
                if fnmatchcase(name, pattern)]

    def _begin(self, event: ChaosEvent) -> None:
        begin = {KIND_LOSS: self._begin_loss,
                 KIND_OUTAGE: self._begin_outage,
                 KIND_BROWNOUT: self._begin_brownout,
                 KIND_PARTITION: self._begin_partition,
                 KIND_NODE_CRASH: self._begin_node_crash}.get(event.kind)
        if begin is None:
            raise ValueError(f"unknown chaos kind {event.kind!r}")
        begin(event)
        self.faults_injected += 1
        self.faults_by_kind[event.kind] += 1
        self.log.append((self.sim.now, event.kind, event.target))
        obs = self.sim.obs
        if obs is not None and obs.tracing:
            obs.tracer.instant(
                f"chaos.{event.kind}", "chaos-monkey", self.sim.now,
                category="chaos",
                data={"target": event.target,
                      "duration": round(event.duration, 9),
                      "value": round(event.value, 9)})

    # -- fault kinds ----------------------------------------------------
    def _begin_loss(self, event: ChaosEvent) -> None:
        for link in self._matched(event.target):
            for half in (link.a_to_b, link.b_to_a):
                entry = self._loss_active.get(id(half))
                if entry is None:
                    entry = [half, half.loss_rate, []]
                    self._loss_active[id(half)] = entry
                entry[2].append(event.value)
                half.loss_rate = max([entry[1]] + entry[2])
                self.sim.schedule(event.duration, self._restore_loss,
                                  half, event.value)

    def _restore_loss(self, half, rate: float) -> None:
        entry = self._loss_active.get(id(half))
        if entry is None:
            return
        entry[2].remove(rate)
        if entry[2]:
            half.loss_rate = max([entry[1]] + entry[2])
        else:
            half.loss_rate = entry[1]
            del self._loss_active[id(half)]

    def _begin_outage(self, event: ChaosEvent) -> None:
        for link in self._matched(event.target):
            link.interrupt(event.duration)

    def _begin_partition(self, event: ChaosEvent) -> None:
        for link in self._matched(event.target):
            halves = {DIR_A_TO_B: (link.a_to_b,),
                      DIR_B_TO_A: (link.b_to_a,),
                      DIR_BOTH: (link.a_to_b, link.b_to_a)}[event.direction]
            for half in halves:
                half.interrupt(event.duration)

    def _matched_nodes(self, pattern: str) -> list:
        return [node for name, node in sorted(self.nodes.items())
                if fnmatchcase(name, pattern)]

    def _begin_node_crash(self, event: ChaosEvent) -> None:
        matched = self._matched_nodes(event.target)
        if not matched:
            raise ValueError(
                f"node_crash target {event.target!r} matched no "
                f"registered nodes (have: {sorted(self.nodes)})")
        for node in matched:
            node.crash()
            if event.duration > 0:
                self.sim.schedule(event.duration, node.restart)

    def _begin_brownout(self, event: ChaosEvent) -> None:
        if self.brokerd is None:
            raise ValueError("brownout event but no brokerd attached")
        daemon = self.brokerd
        # processing_costs is a class attribute; shadow it with an
        # inflated instance copy and restore whatever the instance had
        # before (never mutate the class dict — other brokers share it).
        # Overlapping brownouts compose as max(active factors) over the
        # pre-fault baseline, not as a stack of stale snapshots.
        if self._brownout_active is None:
            self._brownout_active = [
                daemon, daemon.__dict__.get("processing_costs"),
                dict(daemon.processing_costs), []]
        entry = self._brownout_active
        entry[3].append(event.value)
        factor = max(entry[3])
        daemon.processing_costs = {
            message: cost * factor for message, cost in entry[2].items()}
        self.sim.schedule(event.duration, self._restore_brownout,
                          event.value)

    def _restore_brownout(self, factor: float) -> None:
        entry = self._brownout_active
        if entry is None:
            return
        daemon, previous, base, factors = entry
        factors.remove(factor)
        if factors:
            live = max(factors)
            daemon.processing_costs = {
                message: cost * live for message, cost in base.items()}
            return
        if previous is None:
            daemon.__dict__.pop("processing_costs", None)
        else:
            daemon.processing_costs = previous
        self._brownout_active = None


@dataclass
class ChaosReport:
    """What :func:`run_chaos` measured."""

    arch: str
    rat: str
    attaches_requested: int
    attempts: int
    successes: int
    failures: int
    success_rate: float
    attach_p50_ms: float
    attach_p99_ms: float
    #: UE NAS-layer resends + AGW AttachAccept resends + every
    #: reliable-request retransmission at the AGWs and the broker
    retransmissions: int
    nas_retransmissions: int
    accept_retransmissions: int
    signaling_retransmissions: int
    revocations: int
    #: Σ over revoked sessions still served at end of run of
    #: (end − revoked_at); the safety invariant is that this is 0.0
    unauthorized_session_seconds: float
    faults_injected: int
    duration_s: float
    failure_causes: dict
    broker_stats: dict
    site_stats: dict
    #: bucketed attach-latency summary straight from the UE's
    #: MetricsRegistry (count/sum/min/max/mean/p50/p99, milliseconds).
    latency_histogram: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "rat": self.rat,
            "attaches_requested": self.attaches_requested,
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "success_rate": self.success_rate,
            "attach_p50_ms": self.attach_p50_ms,
            "attach_p99_ms": self.attach_p99_ms,
            "retransmissions": self.retransmissions,
            "nas_retransmissions": self.nas_retransmissions,
            "accept_retransmissions": self.accept_retransmissions,
            "signaling_retransmissions": self.signaling_retransmissions,
            "revocations": self.revocations,
            "unauthorized_session_seconds":
                self.unauthorized_session_seconds,
            "faults_injected": self.faults_injected,
            "duration_s": self.duration_s,
            "failure_causes": self.failure_causes,
            "broker_stats": self.broker_stats,
            "site_stats": self.site_stats,
            "latency_histogram": self.latency_histogram,
        }


class _AttachChurn:
    """Drives one UE through repeated attach/detach cycles, optionally
    revoking the subscriber mid-run so the ack'd fan-out is exercised
    while faults are live."""

    def __init__(self, network, ue, think_time: float,
                 attaches: int, revoke_every: int, revoke_hold: float,
                 rotate_sites: bool):
        self.network = network
        self.sim = network.sim
        self.ue = ue
        self.think_time = think_time
        self.attaches = attaches
        self.revoke_every = revoke_every
        self.revoke_hold = revoke_hold
        self.site_names = list(network.sites)
        self.rotate_sites = rotate_sites
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.latencies: list = []
        self.failure_causes: dict = {}
        #: (session_id, revoked_at) for every grant the broker withdrew
        self.revoked: list = []
        ue.on_attach_done = self._attach_done

    def start(self) -> None:
        self._start_next()

    def _start_next(self) -> None:
        if self.attempts >= self.attaches:
            return
        self.attempts += 1
        if self.rotate_sites:
            site = self.network.sites[
                self.site_names[self.attempts % len(self.site_names)]]
            self.ue.retarget(site.enb_address, site.name)
        self.ue.attach()

    def _attach_done(self, result) -> None:
        if result.success:
            self.successes += 1
            self.latencies.append(result.latency)
            if self.revoke_every \
                    and self.successes % self.revoke_every == 0:
                self._revoke_current()
                return
            self.sim.schedule(self.think_time, self._detach_and_continue)
        else:
            self.failures += 1
            cause = result.cause or "unknown"
            self.failure_causes[cause] = \
                self.failure_causes.get(cause, 0) + 1
            self.sim.schedule(self.think_time, self._start_next)

    def _revoke_current(self) -> None:
        """Withdraw the subscriber while the session is live, re-enroll
        (a real broker would rotate to a fresh identity), and give the
        revocation ``revoke_hold`` seconds to fan out before churning
        on.  The UE does NOT courtesy-detach first: tearing the session
        down is the revocation's job."""
        brokerd = self.network.brokerd
        credentials = self.network.credentials
        now = self.sim.now
        for grant in brokerd.revoke_subscriber(credentials.id_u):
            self.revoked.append((grant.session_id, now))
        brokerd.enroll_subscriber(credentials.id_u,
                                  credentials.ue_key.public_key)
        self.sim.schedule(self.revoke_hold, self._detach_and_continue)

    def _detach_and_continue(self) -> None:
        # After a revocation the bTelco normally network-detaches the UE
        # (state already DEREGISTERED); if that signal was lost, the UE
        # side still has to move on.  "ATTACHED" is the LTE UE's serving
        # state, "REGISTERED" the 5G one — the churn drives both RATs.
        if self.ue.state in ("ATTACHED", "REGISTERED"):
            self.ue.detach_and_forget()
        self._start_next()

    def unauthorized_session_seconds(self) -> float:
        """Revoked sessions still being served at end of run."""
        now = self.sim.now
        total = 0.0
        for session_id, revoked_at in self.revoked:
            for site in self.network.sites.values():
                if session_id in site.agw.sessions:
                    total += now - revoked_at
        return total


def run_chaos(attaches: int = 200,
              schedule: Optional[ChaosSchedule] = None,
              revoke_every: int = 0,
              seed: int = 7,
              site_names: tuple = ("btelco-a", "btelco-b"),
              base_loss: float = 0.0,
              think_time: float = 0.05,
              revoke_hold: float = 1.0,
              rotate_sites: bool = True,
              on_network_built: Optional[Callable] = None,
              obs: Optional[Obs] = None,
              rat: str = "lte") -> ChaosReport:
    """Attach/revoke churn under a fault script; returns the metrics the
    reliability acceptance criteria are written against.

    ``base_loss`` applies a steady loss rate to every signaling link
    before the run starts (the "lossy radio" baseline); ``schedule``
    layers transient faults on top.  ``on_network_built`` (network →
    None) lets tests tweak the world before the churn starts.  Passing
    ``obs`` installs sim-clock tracing for the whole run (spans for
    every control-plane leg, instants for faults/retransmissions) —
    tracing records into virtual time only, so a traced seeded run stays
    bit-identical to an untraced one.

    ``rat`` selects the control plane under test: ``"lte"`` builds the
    eNodeB/AGW network, ``"5g"`` the gNB/AMF one.  Everything else —
    schedule, fault surface (link names match), churn driver, report —
    is RAT-agnostic.
    """
    sim = Simulator()
    if obs is not None:
        install_obs(sim, obs)
    from repro.core.mobility import build_cellbricks_network

    network = build_cellbricks_network(sim, site_names=site_names,
                                       seed=seed, rat=rat)
    if base_loss:
        for link in network.links.values():
            link.a_to_b.loss_rate = base_loss
            link.b_to_a.loss_rate = base_loss
    if on_network_built is not None:
        on_network_built(network)

    first = network.sites[site_names[0]]
    ue = network.ue_class(network.ue_host, first.enb_address,
                          network.credentials, target_id_t=first.name)
    churn = _AttachChurn(network, ue, think_time=think_time,
                         attaches=attaches, revoke_every=revoke_every,
                         revoke_hold=revoke_hold,
                         rotate_sites=rotate_sites)

    monkey = ChaosMonkey(sim, network.links, brokerd=network.brokerd,
                         nodes=getattr(network, "chaos_nodes", None))
    if schedule is not None:
        monkey.arm(schedule)

    churn.start()
    sim.run()

    latencies_ms = sorted(latency * 1000.0 for latency in churn.latencies)
    nas_retx = ue.nas_retransmissions
    accept_retx = 0
    signaling_retx = network.brokerd.reliable_stats()["retransmissions"]
    site_stats = {}
    for name, site in network.sites.items():
        accept_retx += site.agw.accept_retransmissions
        signaling_retx += site.agw.reliable_stats()["retransmissions"]
        site_stats[name] = site.agw.stats()
    latency_hist = ue.metrics.find_histogram("attach.latency_ms")
    if obs is not None:
        # Fold every node's registry into the run's fleet-wide snapshot.
        obs.metrics.merge_from(ue.metrics)
        obs.metrics.merge_from(network.brokerd.metrics)
        obs.metrics.merge_from(monkey.metrics)
        for site in network.sites.values():
            obs.metrics.merge_from(site.agw.metrics)
            obs.metrics.merge_from(site.enb.metrics)

    return ChaosReport(
        arch=ARCH_CELLBRICKS,
        rat=rat,
        attaches_requested=attaches,
        attempts=churn.attempts,
        successes=churn.successes,
        failures=churn.failures,
        success_rate=(churn.successes / churn.attempts
                      if churn.attempts else 0.0),
        attach_p50_ms=(percentile(latencies_ms, 50.0)
                       if latencies_ms else 0.0),
        attach_p99_ms=(percentile(latencies_ms, 99.0)
                       if latencies_ms else 0.0),
        retransmissions=nas_retx + accept_retx + signaling_retx,
        nas_retransmissions=nas_retx,
        accept_retransmissions=accept_retx,
        signaling_retransmissions=signaling_retx,
        revocations=len(churn.revoked),
        unauthorized_session_seconds=churn.unauthorized_session_seconds(),
        faults_injected=monkey.faults_injected,
        duration_s=sim.now,
        failure_causes=dict(churn.failure_causes),
        broker_stats=network.brokerd.stats(),
        site_stats=site_stats,
        latency_histogram=(latency_hist.snapshot()
                           if latency_hist is not None else {}),
    )


# ---------------------------------------------------------------------------
# --smoke: the one seeded churn CI runs (also what `repro trace|metrics
# --scenario chaos` record) and what its report must show.
# ---------------------------------------------------------------------------

SMOKE = dict(attaches=150, revoke_every=10, seed=7, base_loss=0.05)
#: attach success the smoke must hold under its fault script; the 5G
#: parity port holds a tighter bar than the LTE original.
SMOKE_SUCCESS_RATE = {"lte": 0.95, "5g": 0.99}


def smoke_schedule() -> ChaosSchedule:
    """The smoke's fault script: a broker-link outage, then a broker
    brown-out, on top of :data:`SMOKE`'s steady loss."""
    return ChaosSchedule([outage(2.0, 2.0, target="*-broker"),
                          brownout(8.0, 2.0)])


def gates(report: dict, smoke: bool = False) -> list:
    """What a ``ChaosReport.to_dict()`` must show: no run ever serves a
    revoked session; the ``smoke`` run also holds its RAT's success bar."""
    out = [gate("unauthorized_session_seconds",
                report["unauthorized_session_seconds"], 0.0,
                report["unauthorized_session_seconds"] == 0.0)]
    if smoke:
        bar = SMOKE_SUCCESS_RATE[report["rat"]]
        out.append(gate("success_rate", report["success_rate"], bar,
                        report["success_rate"] >= bar))
    return out
