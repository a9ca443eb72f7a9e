"""Host-driven mobility orchestration (§4.2) and full-network scenarios.

CellBricks "essentially eliminates the concept of a handover: a user
simply detaches from one cell tower and independently attaches to a new
tower via the SAP protocol".  :class:`MobilityManager` implements that
loop end to end:

1. detach from the current bTelco (radio bearer torn down, IP
   invalidated — which wakes the MPTCP path manager),
2. run SAP against the new bTelco's AGW through its eNodeB,
3. install the PGW-assigned address on the data plane (MPTCP then opens
   the replacement subflow).

:func:`build_cellbricks_network` assembles a complete multi-bTelco
network — CA, broker, N bTelco sites, one UE — on either RAT, used by the
integration tests, the chaos / fleet / traced drives and the marketplace
example.  Sites come from :func:`build_btelco_site`, the one place a
CellBricks serving node is constructed outside the Fig 7 bench; what
differs between the generations there is the :data:`RATS` table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from repro.crypto import CertificateAuthority, PrivateKey
from repro.crypto.keypool import pooled_keypair, warm
from repro.fivegc.nf import Smf
from repro.lte import ENodeB
from repro.net import CellularPath, Host, Link, Simulator

from .broker import Brokerd
from .btelco import CellBricksAgw
from .btelco5g import CellBricksAmf, CellBricksUe5G
from .btelco_core import SapServingCore
from .qos import QosCapabilities
from .sap import UeSapCredentials
from .ue_agent import CellBricksUe

SIGNALING_BANDWIDTH = 1e9


@dataclass
class BtelcoSite:
    """One bTelco deployment: base station + serving node (+ the local
    SMF a 5G site runs), their hosts and address pool.  The LTE names
    are the neutral ones: ``enb`` is the gNB and ``agw`` the AMF on a
    5G site."""

    name: str
    enb_host: Host
    agw_host: Host
    enb: ENodeB
    agw: SapServingCore
    pool_prefix: str
    smf_host: Optional[Host] = None
    smf: Optional[Smf] = None

    @property
    def enb_address(self) -> str:
        return self.enb_host.address


def signaling_link(sim: Simulator, name: str, a: Host, b: Host,
                   delay_s: float) -> Link:
    """A control-plane link with each end routed to the other's /24."""
    link = Link(sim, name, a, b, bandwidth_bps=SIGNALING_BANDWIDTH,
                delay_s=delay_s)
    a.add_route(b.address.rsplit(".", 1)[0], link)
    b.add_route(a.address.rsplit(".", 1)[0], link)
    return link


def _lte_core(site: BtelcoSite, smf_address: str, **sap) -> None:
    site.agw = CellBricksAgw(site.agw_host, ue_pool_prefix=site.pool_prefix,
                             **sap)


def _5g_core(site: BtelcoSite, smf_address: str, **sap) -> None:
    sim = site.agw_host.sim
    site.smf_host = Host(sim, f"{site.name}-smf", address=smf_address)
    site.smf = Smf(site.smf_host, name=f"{site.name}-smf",
                   ue_pool_prefix=site.pool_prefix)
    site.agw = CellBricksAmf(site.agw_host, smf_ip=smf_address, **sap)
    signaling_link(sim, f"{site.name}-smf", site.agw_host, site.smf_host,
                   0.0002)


class Rat(NamedTuple):
    """What building a bTelco site and its UE needs to know about a
    generation."""

    ue_class: type
    ue_name: str        # UE node-name stem
    ran: str            # base-station name suffix
    core: str           # serving-node name suffix
    build_core: Callable


RATS = {
    "lte": Rat(CellBricksUe, "cb-ue", "enb", "agw", _lte_core),
    "5g": Rat(CellBricksUe5G, "cb-ue5g", "gnb", "amf", _5g_core),
}


def rat_profile(rat: str) -> Rat:
    if rat not in RATS:
        raise ValueError(f"unknown rat {rat!r} (expected 'lte' or '5g')")
    return RATS[rat]


def build_btelco_site(sim: Simulator, rat: str, name: str, *,
                      ca: CertificateAuthority, key: PrivateKey,
                      brokerd: Brokerd, addresses: tuple, pool_prefix: str,
                      id_t: Optional[str] = None,
                      broker_delay: float = 0.0025) -> BtelcoSite:
    """One bTelco site of generation ``rat``, wired to ``brokerd``.

    ``name`` prefixes every host, node and link (``<name>-enb`` /
    ``-agw`` on LTE, ``-gnb`` / ``-amf`` / ``-smf`` on 5G; links
    ``<name>-backhaul`` / ``-smf`` / ``-broker``); ``addresses`` are the
    base-station, serving-node and SMF hosts' (the last unused on LTE);
    ``id_t`` is the identity the CA certifies (default ``name``).  The
    serving node trusts ``brokerd``; radio links are the caller's.
    """
    profile = rat_profile(rat)
    ran_address, core_address, smf_address = addresses
    id_t = id_t or name
    enb_host = Host(sim, f"{name}-{profile.ran}", address=ran_address)
    agw_host = Host(sim, f"{name}-{profile.core}", address=core_address)
    site = BtelcoSite(
        name=name, enb_host=enb_host, agw_host=agw_host,
        enb=ENodeB(enb_host, agw_ip=core_address,
                   name=f"{name}-{profile.ran}"),
        agw=None, pool_prefix=pool_prefix)
    signaling_link(sim, f"{name}-backhaul", enb_host, agw_host, 0.00015)
    profile.build_core(
        site, smf_address, broker_ip=brokerd.host.address, id_t=id_t,
        key=key, certificate=ca.issue(id_t, "btelco", key.public_key),
        ca_public_key=ca.public_key,
        qos_capabilities=QosCapabilities(supported_qcis=(1, 8, 9)),
        name=f"{name}-{profile.core}")
    site.agw.trust_broker(brokerd.id_b, brokerd.public_key)
    signaling_link(sim, f"{name}-broker", agw_host, brokerd.host,
                   broker_delay)
    return site


@dataclass
class CellBricksNetwork:
    """Everything :func:`build_cellbricks_network` wires together."""

    sim: Simulator
    ca: CertificateAuthority
    broker_host: Host
    brokerd: Brokerd
    sites: dict[str, BtelcoSite]
    ue_host: Host
    credentials: UeSapCredentials
    data_path: Optional[CellularPath] = None
    #: every signaling link by name (``<site>-sig-radio``,
    #: ``<site>-backhaul``, ``<site>-broker``, on 5G ``<site>-smf``) —
    #: the fault-injection surface the chaos harness drives.  Defaults
    #: to an empty dict (a bare ``None`` here used to crash
    #: chaos-harness callers iterating a hand-constructed network's
    #: links).
    links: dict[str, Link] = field(default_factory=dict)
    rat: str = "lte"

    @property
    def ue_class(self) -> type:
        """The CellBricks UE that attaches to this network's sites."""
        return RATS[self.rat].ue_class


def build_cellbricks_network(
        sim: Simulator, site_names: tuple = ("btelco-a", "btelco-b"),
        subscriber_id: str = "alice",
        broker_id: str = "brokerd.example",
        with_data_path: bool = False,
        broker_link_delay: float = 0.0025,
        seed: int = 7, rat: str = "lte") -> CellBricksNetwork:
    """Assemble a CA, a broker, N bTelco sites, and one enrolled UE.

    Every bTelco gets a CA-signed certificate and its own UE address pool
    (``10.<128+i>.0/24``); none of them knows the subscriber — only the
    broker does.  The UE host is connected to every site's base station
    (as if all towers were in radio range) so tests can switch at will.
    The same brokerd serves 4G and 5G bTelcos — SAP is RAT-agnostic, so
    nothing broker-side knows which NAS dialect a site speaks.
    """
    # CA, broker, UE, then one slot per site.
    warm(range(seed * 100, seed * 100 + 3 + len(site_names)))
    ca = CertificateAuthority(key=pooled_keypair(seed * 100))

    broker_host = Host(sim, "broker-host", address="52.20.0.1")
    brokerd = Brokerd(broker_host, id_b=broker_id,
                      ca_public_key=ca.public_key,
                      key=pooled_keypair(seed * 100 + 1))

    ue_key = pooled_keypair(seed * 100 + 2)
    credentials = UeSapCredentials(
        id_u=subscriber_id, id_b=broker_id, ue_key=ue_key,
        broker_public_key=brokerd.public_key)
    brokerd.enroll_subscriber(subscriber_id, ue_key.public_key)

    ue_host = Host(sim, "ue-host", address="10.250.0.2")

    sites: dict[str, BtelcoSite] = {}
    links: dict[str, Link] = {}
    for index, name in enumerate(site_names):
        site = build_btelco_site(
            sim, rat, name, ca=ca, key=pooled_keypair(seed * 100 + 3 + index),
            brokerd=brokerd, pool_prefix=f"10.{128 + index}.0",
            addresses=(f"10.25{index}.0.1", f"10.24{index}.0.1",
                       f"10.23{index}.0.1"),
            broker_delay=broker_link_delay)
        # Pre-register the site in the broker's bTelco directory so a
        # UE can request a mobility scope covering it before ever
        # attaching there (§4.2 scoped grants).
        brokerd.register_btelco(site.agw.sap.config.certificate, 0.0)
        radio = signaling_link(sim, f"{name}-sig-radio", ue_host,
                               site.enb_host, 0.0001)
        # The radio, then the serving node's own links in the order the
        # site factory wired them (backhaul, SMF, broker).
        for link in (radio, *site.agw_host.links):
            links[link.name] = link
        sites[name] = site

    data_path = None
    if with_data_path:
        data_path = CellularPath(sim, name="data", seed=seed)

    return CellBricksNetwork(sim=sim, ca=ca, broker_host=broker_host,
                             brokerd=brokerd, sites=sites, ue_host=ue_host,
                             credentials=credentials, data_path=data_path,
                             links=links, rat=rat)


class MobilityManager:
    """Drives the detach -> SAP attach -> address install loop for one UE.

    The signaling UE host and the data-plane UE host may be the same host
    or distinct ones (the paper's emulation separates them: real control
    plane measured on the testbed, data plane emulated over T-Mobile).
    """

    def __init__(self, network: CellBricksNetwork,
                 data_path: Optional[CellularPath] = None,
                 detach_interruption: float = 0.05,
                 enforce_qos: bool = False):
        self.network = network
        self.sim = network.sim
        self.data_path = data_path or network.data_path
        #: UE agent class: the network's RAT decides (both classes share
        #: the attach()/retarget()/detach_and_forget()/on_attach_done
        #: surface).
        self.ue_class = network.ue_class
        self.detach_interruption = detach_interruption
        #: when True, the serving bTelco's PGW polices the UE's downlink
        #: to the broker-assigned AMBR (the qosInfo enforcement of §4.1).
        self.enforce_qos = enforce_qos
        self.current_site: Optional[BtelcoSite] = None
        #: the site an in-flight switch is attaching to.  ``current_site``
        #: commits to it only when the attach fully succeeds (5G: PDU
        #: session included) — a *failed* switch must not leave
        #: ``current_site`` pointing at a bTelco the UE never attached to
        #: (the next migration span would misreport ``from_site`` and
        #: ``on_failed`` would receive the wrong site).
        self.target_site: Optional[BtelcoSite] = None
        #: True between a failed switch and the next successful attach:
        #: the UE is attached nowhere, and ``current_site`` still names
        #: the last site it *was* attached to so a drive can
        #: :meth:`reattach` there.
        self.detached = False
        self.ue: Optional[CellBricksUe] = None
        self.attach_latencies: list[float] = []
        self.switches = 0
        #: attaches that came back unsuccessful — without this counter a
        #: megaload/chaos drive silently under-reported (``switches`` was
        #: already incremented, the failure vanished).
        self.attach_failures = 0
        #: failure cause -> count, for drive-level diagnosis.
        self.failure_causes: dict[str, int] = {}
        #: fired with (site, result) after each successful attach
        self.on_attached: Optional[Callable] = None
        #: fired with (site, result) after each *failed* attach
        self.on_failed: Optional[Callable] = None
        #: open ``migration`` root span for the in-flight switch (closed
        #: by the app layer when the first post-switch byte is delivered,
        #: or superseded by the next switch).
        self._migration_span = None

    # -- observability ----------------------------------------------------
    def _obs_begin_migration(self, site_name: str) -> None:
        """Open the handover stall's root span and register it so the
        transport (MPTCP/QUIC) and app layers can parent under / close
        it.  The signaling UE's re-attach is parented here too."""
        obs = self.sim.obs
        if obs is None or not obs.tracing:
            return
        key = self.data_path.ue.name if self.data_path is not None \
            else self.network.ue_host.name
        prior = obs.active_migrations.pop(key, None)
        if prior is not None and prior.end is None:
            obs.tracer.finish(prior, self.sim.now, status="superseded")
        root = obs.tracer.start_trace("migration", "mobility", "mobility",
                                      start=self.sim.now)
        root.data = {"from_site": self.current_site.name,
                     "to_site": site_name}
        obs.active_migrations[key] = root
        self._migration_span = root
        self.ue._obs_parent_ctx = root.context
        obs.tracer.instant(
            "migration.detach", "mobility", self.sim.now,
            trace_id=root.trace_id, parent_id=root.span_id,
            category="mobility",
            data={"interruption_s": self.detach_interruption})

    def _obs_end_reauth(self, status: str) -> None:
        """Record the broker re-auth leg (switch start -> attach done)
        under the open migration root; on failure the root itself closes
        with an error status (no data will flow to close it)."""
        root = self._migration_span
        if root is None:
            return
        self.ue._obs_parent_ctx = None
        obs = self.sim.obs
        if obs is None or not obs.tracing:
            return
        if root.end is not None:
            self._migration_span = None
            return
        leg = obs.tracer.begin(
            "migration.reauth", "mobility", "mobility",
            start=root.start, end=self.sim.now,
            trace_id=root.trace_id, parent_id=root.span_id)
        leg.status = status
        if status != "ok":
            obs.tracer.finish(root, self.sim.now, status=status)
            self._migration_span = None

    def start(self, site_name: str) -> None:
        """Initial attach (no prior detach)."""
        site = self.network.sites[site_name]
        self.ue = self.ue_class(self.network.ue_host, site.enb_address,
                                self.network.credentials,
                                target_id_t=site.name)
        self.ue.on_attach_done = self._attach_done
        self.current_site = site
        self.target_site = site
        self.ue.attach()

    def switch_to(self, site_name: str) -> None:
        """Host-driven 'handover': detach, SAP-attach to the new bTelco."""
        if self.ue is None:
            raise RuntimeError("call start() first")
        site = self.network.sites[site_name]
        self.switches += 1
        self._obs_begin_migration(site_name)
        if self.data_path is not None:
            self.data_path.detach(interruption_s=self.detach_interruption)
        # Courtesy switch-off detach towards the old bTelco (it frees the
        # bearer immediately instead of waiting for session expiry).
        self.ue.detach_and_forget()
        self.ue.retarget(site.enb_address, site.name)
        self.target_site = site
        self.ue.attach()

    def reattach(self) -> None:
        """Re-attach to the last successfully-attached site after a
        failed switch (the UE is attached nowhere; ``current_site``
        still names where it last held a bearer)."""
        if self.ue is None or self.current_site is None:
            raise RuntimeError("nothing to re-attach to")
        site = self.current_site
        self.ue.retarget(site.enb_address, site.name)
        self.target_site = site
        self.ue.attach()

    def _commit_site(self, site) -> None:
        """The attach fully succeeded: only now does the UE *hold* a
        bearer at ``site``."""
        self.current_site = site
        self.target_site = None
        self.detached = False

    def _attach_failed(self, site, result,
                       default_cause: str = "unspecified") -> None:
        self.attach_failures += 1
        cause = getattr(result, "cause", "") or default_cause
        self.failure_causes[cause] = self.failure_causes.get(cause, 0) + 1
        self.detached = True
        self.target_site = None
        self._obs_end_reauth("error")
        if self.on_failed is not None:
            self.on_failed(site, result)

    def _attach_done(self, result) -> None:
        site = self.target_site or self.current_site
        if not result.success:
            self._attach_failed(site, result)
            return
        ue_ip = getattr(result, "ue_ip", None)
        if ue_ip is None and hasattr(self.ue, "establish_session"):
            # 5G: registration grants no bearer IP — that comes from the
            # PDU session.  The re-auth leg of a switch isn't over until
            # the session is up, so the span closes — and the switch's
            # latency is recorded — in _session_done.
            self.ue.on_session_done = lambda sres: \
                self._session_done(result, sres)
            self.ue.establish_session()
            return
        self.attach_latencies.append(result.latency)
        self._commit_site(site)
        self._obs_end_reauth("ok")
        self._install_and_notify(result, ue_ip)

    def _session_done(self, reg_result, session_result) -> None:
        """5G PDU-session completion: the point the bearer is usable."""
        site = self.target_site or self.current_site
        if not session_result.success:
            # Registered but bearer-less is attached nowhere: leave the
            # AMF cleanly so the drive can reattach() or switch on.
            self.ue.detach_and_forget()
            self._attach_failed(site, session_result,
                                default_cause="session")
            return
        # Full re-auth time: registration plus the PDU-session leg, the
        # same interval the reauth span covers.  Recording it here (not
        # in _attach_done) keeps a switch whose session later fails out
        # of the success-latency series.
        self.attach_latencies.append(
            reg_result.latency + session_result.latency)
        self._commit_site(site)
        self._obs_end_reauth("ok")
        self._install_and_notify(reg_result, session_result.ue_ip)

    def _install_and_notify(self, result, ue_ip: Optional[str]) -> None:
        if self.data_path is not None and ue_ip is not None:
            self.data_path.install_ue_address(ue_ip)
            if self.enforce_qos:
                self._apply_ambr(ue_ip)
        if self.on_attached is not None:
            self.on_attached(self.current_site, result)

    def _apply_ambr(self, ue_ip: str) -> None:
        """Install the bearer's AMBR as a PGW policer on the data plane.

        O(1) via the SPGW's ``ue_ip`` index — the previous full-bearer
        scan was O(bearers) on every attach, quadratic over a fleet.
        """
        bearer = self.current_site.agw.spgw.bearer_by_ip(ue_ip)
        if bearer is not None:
            self.data_path.set_shaper_rate(bearer.ambr_dl_bps)
