"""§6.1 attachment-latency benchmark (reproduces Fig 7), on either RAT.

Runs repeated attach requests through the full signaling stack — baseline
(unmodified-Magma-style EPS-AKA + S6a; with ``rat="5g"`` 5G-AKA with the
AUSF and UDM behind the placement link, two visited↔home round trips) vs
CellBricks (SAP to brokerd, one) — with the home side placed locally or
in an emulated EC2 region, and reports the per-module latency breakdown
exactly as the figure plots it: "AGW + Brokerd Proc." / "eNB Proc." /
"UE Proc." / "Other" (network).  The "AGW + Brokerd Proc." column folds
in the serving node plus whichever home-side functions the architecture
uses (SubscriberDB or AUSF + UDM for the baseline, brokerd for
CellBricks), so the columns stay comparable across generations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import mean
from typing import Optional

from repro.core import (
    Brokerd,
    CellBricksAgw,
    CellBricksAmf,
    CellBricksUe,
    CellBricksUe5G,
    UeSapCredentials,
)
from repro.core.qos import QosCapabilities
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair
# Imported as a module, read at call time: topology5g pulls placement
# constants from this package, so its names may not exist yet when this
# module loads.
from repro.fivegc import Amf, Ausf, Smf, Udm, Ue5G, make_supi, topology5g
from repro.lte import (
    Agw,
    ENodeB,
    ImsiGenerator,
    SubscriberDb,
    TEST_PLMN,
    UeNas,
    UsimState,
)
from repro.net import Simulator
from repro.obs import Obs, install as install_obs

from .placement import (
    AGW_ADDRESS,
    CLOUD_DB_ADDRESS,
    ENB_ADDRESS,
    PLACEMENTS,
    TestbedTopology,
)

ARCH_BASELINE = "BL"
ARCH_CELLBRICKS = "CB"
_USIM_K = bytes(range(16))
#: sim-time an attach may take before a trial counts as stuck.
ATTACH_SETTLE_S = 0.5


@dataclass
class AttachSample:
    """One attach trial's measurements (milliseconds)."""

    total_ms: float
    agw_brokerd_ms: float
    enb_ms: float
    ue_ms: float

    @property
    def other_ms(self) -> float:
        return max(0.0,
                   self.total_ms - self.agw_brokerd_ms - self.enb_ms
                   - self.ue_ms)


@dataclass
class AttachBenchmarkResult:
    """Aggregated Fig 7 cell: one (architecture, placement) pair."""

    arch: str
    placement: str
    samples: list = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return mean(s.total_ms for s in self.samples)

    @property
    def agw_brokerd_ms(self) -> float:
        return mean(s.agw_brokerd_ms for s in self.samples)

    @property
    def enb_ms(self) -> float:
        return mean(s.enb_ms for s in self.samples)

    @property
    def ue_ms(self) -> float:
        return mean(s.ue_ms for s in self.samples)

    @property
    def other_ms(self) -> float:
        return mean(s.other_ms for s in self.samples)


def _sap_parties(broker_host, slot: int, tag: str):
    """A CA, a brokerd on ``broker_host``, a certified bTelco identity
    and an enrolled UE, keyed from pool slots ``slot``..``slot + 3``.
    Returns ``(brokerd, serving-node SAP arguments, UE credentials)``."""
    ca = CertificateAuthority(key=pooled_keypair(slot))
    brokerd = Brokerd(broker_host, id_b=f"brokerd.bench{tag}",
                      ca_public_key=ca.public_key,
                      key=pooled_keypair(slot + 1))
    telco_key = pooled_keypair(slot + 2)
    id_t = f"bench-telco{tag}"
    site = dict(id_t=id_t, key=telco_key,
                certificate=ca.issue(id_t, "btelco", telco_key.public_key),
                ca_public_key=ca.public_key,
                qos_capabilities=QosCapabilities(supported_qcis=(8, 9)))
    ue_key = pooled_keypair(slot + 3)
    credentials = UeSapCredentials(
        id_u=f"bench-ue{tag}", id_b=brokerd.id_b, ue_key=ue_key,
        broker_public_key=brokerd.public_key)
    brokerd.enroll_subscriber(credentials.id_u, ue_key.public_key)
    return brokerd, site, credentials


# Each builder wires one architecture onto its testbed topology and
# returns ``(ue, base station, serving node, home-side nodes)``.

def _lte_baseline(sim: Simulator, placement: str, seed: int):
    topology = TestbedTopology.build(sim, placement)
    db = SubscriberDb(topology.db_host, rng=random.Random(seed))
    agw = Agw(topology.agw_host, subscriber_db_ip=CLOUD_DB_ADDRESS)
    enb = ENodeB(topology.enb_host, agw_ip=AGW_ADDRESS)
    imsi = ImsiGenerator().next()
    record = db.provision(imsi)
    ue = UeNas(topology.ue_host, ENB_ADDRESS, imsi, UsimState(k=record.k),
               str(TEST_PLMN))
    return ue, enb, agw, (db,)


def _lte_cellbricks(sim: Simulator, placement: str, seed: int):
    topology = TestbedTopology.build(sim, placement)
    brokerd, site, credentials = _sap_parties(topology.db_host, 0, "")
    agw = CellBricksAgw(topology.agw_host, broker_ip=CLOUD_DB_ADDRESS,
                        **site)
    agw.trust_broker(brokerd.id_b, brokerd.public_key)
    enb = ENodeB(topology.enb_host, agw_ip=AGW_ADDRESS)
    ue = CellBricksUe(topology.ue_host, ENB_ADDRESS, credentials,
                      target_id_t=site["id_t"])
    return ue, enb, agw, (brokerd,)


def _5g_baseline(sim: Simulator, placement: str, seed: int):
    topology = topology5g.Topology5G.build(sim, placement)
    home_key = pooled_keypair(820)
    udm = Udm(topology.udm_host, home_network_key=home_key)
    ausf = Ausf(topology.ausf_host, udm_ip=topology5g.UDM_ADDRESS)
    Smf(topology.smf_host)
    amf = Amf(topology.amf_host, ausf_ip=topology5g.AUSF_ADDRESS,
              smf_ip=topology5g.SMF_ADDRESS)
    gnb = ENodeB(topology.gnb_host, agw_ip=topology5g.AMF_ADDRESS)
    supi = make_supi(7 + seed)
    udm.provision(supi, _USIM_K)
    ue = Ue5G(topology.ue_host, topology5g.GNB_ADDRESS, supi,
              UsimState(k=_USIM_K), home_key.public_key,
              serving_network=amf.serving_network)
    return ue, gnb, amf, (ausf, udm)


def _5g_cellbricks(sim: Simulator, placement: str, seed: int):
    topology = topology5g.Topology5G.build(sim, placement)
    brokerd, site, credentials = _sap_parties(topology.broker_host, 821,
                                              "5g")
    Smf(topology.smf_host)
    amf = CellBricksAmf(topology.amf_host,
                        broker_ip=topology5g.BROKER_ADDRESS,
                        smf_ip=topology5g.SMF_ADDRESS, **site)
    amf.trust_broker(brokerd.id_b, brokerd.public_key)
    gnb = ENodeB(topology.gnb_host, agw_ip=topology5g.AMF_ADDRESS)
    ue = CellBricksUe5G(topology.ue_host, topology5g.GNB_ADDRESS,
                        credentials, target_id_t=site["id_t"])
    return ue, gnb, amf, (brokerd,)


#: rat -> (architecture -> node builder, the UE method that ends a trial:
#: an acknowledged detach on LTE, a switch-off deregistration on 5G).
_RATS = {
    "lte": ({ARCH_BASELINE: _lte_baseline,
             ARCH_CELLBRICKS: _lte_cellbricks}, "detach"),
    "5g": ({ARCH_BASELINE: _5g_baseline,
            ARCH_CELLBRICKS: _5g_cellbricks}, "detach_and_forget"),
}


class _BenchHarness:
    """One simulator instance running repeated attach/detach cycles."""

    def __init__(self, arch: str, placement: str, rat: str = "lte",
                 seed: int = 0, obs: Optional[Obs] = None):
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        if rat not in _RATS:
            raise ValueError(f"unknown rat {rat!r}")
        builders, self._leave = _RATS[rat]
        if arch not in builders:
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.placement = placement
        self.sim = Simulator()
        if obs is not None:
            install_obs(self.sim, obs)
        self.ue, self.enb, self.agw, self.cloud_nodes = \
            builders[arch](self.sim, placement, seed)
        self._results: list = []
        self.ue.on_attach_done = self._record_result

    def _record_result(self, result) -> None:
        # Snapshot module times at the instant the attach completes, so
        # post-accept processing (the complete, the detach) stays out.
        self._results.append((result, self._module_snapshot()))

    def _module_snapshot(self) -> tuple[float, float, float]:
        agw_brokerd = self.agw.module_time + sum(
            node.module_time for node in self.cloud_nodes)
        return agw_brokerd, self.enb.module_time, self.ue.module_time

    def run_trials(self, trials: int) -> AttachBenchmarkResult:
        """Run ``trials`` attach/detach cycles; return their samples."""
        settle = ATTACH_SETTLE_S
        samples = []
        for _ in range(trials):
            before = self._module_snapshot()
            before_count = len(self._results)
            self.ue.attach()
            deadline = self.sim.now + settle
            while len(self._results) == before_count \
                    and self.sim.now < deadline:
                self.sim.run(until=self.sim.now + 0.01)
            if len(self._results) == before_count:
                raise RuntimeError(
                    f"attach did not complete within {settle}s "
                    f"({self.arch}/{self.placement})")
            result, after = self._results[-1]
            if not result.success:
                raise RuntimeError(f"attach failed: {result.cause}")
            samples.append(AttachSample(
                total_ms=result.latency * 1000,
                agw_brokerd_ms=(after[0] - before[0]) * 1000,
                enb_ms=(after[1] - before[1]) * 1000,
                ue_ms=(after[2] - before[2]) * 1000))
            # Detach and settle before the next trial.
            getattr(self.ue, self._leave)()
            self.sim.run(until=self.sim.now + 0.1)
        return AttachBenchmarkResult(self.arch, self.placement, samples)


def run_attach_benchmark(arch: str, placement: str, trials: int = 100,
                         rat: str = "lte") -> AttachBenchmarkResult:
    """Run one Fig 7 cell and return the averaged breakdown."""
    return _BenchHarness(arch, placement, rat).run_trials(trials)


def run_traced_attach(arch: str = ARCH_CELLBRICKS,
                      placement: str = "us-west-1", trials: int = 20,
                      seed: int = 0, obs: Optional[Obs] = None,
                      rat: str = "lte"):
    """One Fig 7 cell with tracing installed.

    Returns ``(result, obs, harness)``: the averaged module breakdown,
    the telemetry handle holding the span tree of every attach, and the
    harness (whose nodes expose their metric registries).
    """
    if obs is None:
        obs = Obs()
    harness = _BenchHarness(arch, placement, rat, seed=seed, obs=obs)
    result = harness.run_trials(trials)
    # Fold the nodes' registries into the run's fleet-wide snapshot.
    for node in (harness.ue, harness.enb, harness.agw) + harness.cloud_nodes:
        obs.metrics.merge_from(node.metrics)
    return result, obs, harness


def run_figure7(trials: int = 100, rat: str = "lte") -> list:
    """All six Fig 7 cells: {BL, CB} x {local, us-west-1, us-east-1}."""
    results = []
    for placement in ("local", "us-west-1", "us-east-1"):
        for arch in (ARCH_BASELINE, ARCH_CELLBRICKS):
            results.append(run_attach_benchmark(
                arch, placement, trials=trials, rat=rat))
    return results
