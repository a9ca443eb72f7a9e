"""Multi-site CellBricks 5G network assembly.

The 5G twin of :func:`repro.core.mobility.build_cellbricks_network`: a
CA, one broker, N bTelco sites (gNB + CellBricks AMF + local SMF), and
one enrolled UE host in radio range of every site.  Every signaling link
is published by name (``<site>-sig-radio``, ``<site>-backhaul``,
``<site>-smf``, ``<site>-broker``) so the chaos harness can drive the
same loss/outage/brownout fault surface it drives for LTE — the
``*-broker`` glob hits the 5G broker legs unchanged.

Site objects expose ``agw``/``enb`` aliases for their AMF/gNB so
RAT-generic harnesses (attach churn, revocation accounting) traverse
LTE and 5G topologies with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.broker import Brokerd
from repro.core.btelco5g import CellBricksAmf
from repro.core.qos import QosCapabilities
from repro.core.sap import UeSapCredentials
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair, warm
from repro.lte.enodeb import ENodeB as Gnb
from repro.net import Host, Link, Simulator

from .nf import Smf

SIGNALING_BANDWIDTH = 1e9


@dataclass
class Btelco5GSite:
    """One 5G bTelco deployment: gNB + AMF + local SMF."""

    name: str
    gnb_host: Host
    amf_host: Host
    smf_host: Host
    gnb: Gnb
    amf: CellBricksAmf
    smf: Smf
    pool_prefix: str

    @property
    def enb_address(self) -> str:
        return self.gnb_host.address

    # RAT-generic aliases: harnesses written against the LTE site shape
    # (site.enb / site.agw) work on 5G sites unchanged.
    @property
    def enb(self) -> Gnb:
        return self.gnb

    @property
    def agw(self) -> CellBricksAmf:
        return self.amf


@dataclass
class CellBricks5GNetwork:
    """Everything :func:`build_cellbricks_network_5g` wires together."""

    sim: Simulator
    ca: CertificateAuthority
    broker_host: Host
    brokerd: Brokerd
    sites: dict[str, Btelco5GSite]
    ue_host: Host
    credentials: UeSapCredentials
    links: dict[str, Link] = field(default_factory=dict)


def build_cellbricks_network_5g(
        sim: Simulator, site_names: tuple = ("btelco-a", "btelco-b"),
        subscriber_id: str = "alice",
        broker_id: str = "brokerd.example",
        broker_link_delay: float = 0.0025,
        seed: int = 7) -> CellBricks5GNetwork:
    """Assemble a CA, a broker, N 5G bTelco sites, and one enrolled UE.

    The same brokerd serves 4G and 5G bTelcos — SAP is RAT-agnostic, so
    nothing broker-side knows these sites speak NAS-5G behind the AMF.
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

    sites: dict[str, Btelco5GSite] = {}
    links: dict[str, Link] = {}
    for index, name in enumerate(site_names):
        gnb_host = Host(sim, f"{name}-gnb", address=f"10.25{index}.0.1")
        amf_host = Host(sim, f"{name}-amf", address=f"10.24{index}.0.1")
        smf_host = Host(sim, f"{name}-smf", address=f"10.23{index}.0.1")
        key = pooled_keypair(seed * 100 + 3 + index)
        certificate = ca.issue(name, "btelco", key.public_key)
        smf = Smf(smf_host, name=f"{name}-smf",
                  ue_pool_prefix=f"10.{128 + index}.0")
        amf = CellBricksAmf(
            amf_host, broker_ip=broker_host.address,
            smf_ip=smf_host.address, id_t=name, key=key,
            certificate=certificate, ca_public_key=ca.public_key,
            qos_capabilities=QosCapabilities(supported_qcis=(1, 8, 9)),
            name=f"{name}-amf")
        amf.trust_broker(broker_id, brokerd.public_key)
        # Directory entry for mobility-scope minting (§4.2): scopes may
        # cover this site before the UE ever attaches to it.
        brokerd.register_btelco(certificate, 0.0)
        gnb = Gnb(gnb_host, agw_ip=amf_host.address, name=f"{name}-gnb")

        # Signaling links: UE <-> gNB, gNB <-> AMF, AMF <-> SMF/broker.
        radio = Link(sim, f"{name}-sig-radio", ue_host, gnb_host,
                     bandwidth_bps=SIGNALING_BANDWIDTH, delay_s=0.0001)
        backhaul = Link(sim, f"{name}-backhaul", gnb_host, amf_host,
                        bandwidth_bps=SIGNALING_BANDWIDTH, delay_s=0.00015)
        smf_link = Link(sim, f"{name}-smf", amf_host, smf_host,
                        bandwidth_bps=SIGNALING_BANDWIDTH, delay_s=0.0002)
        broker_link = Link(sim, f"{name}-broker", amf_host, broker_host,
                           bandwidth_bps=SIGNALING_BANDWIDTH,
                           delay_s=broker_link_delay)
        ue_host.add_route(gnb_host.address.rsplit(".", 1)[0], radio)
        gnb_host.add_route(ue_host.address.rsplit(".", 1)[0], radio)
        gnb_host.add_route(amf_host.address.rsplit(".", 1)[0], backhaul)
        amf_host.add_route(gnb_host.address.rsplit(".", 1)[0], backhaul)
        amf_host.add_route(smf_host.address.rsplit(".", 1)[0], smf_link)
        smf_host.add_route(amf_host.address.rsplit(".", 1)[0], smf_link)
        amf_host.add_route(broker_host.address.rsplit(".", 1)[0],
                           broker_link)
        broker_host.add_route(amf_host.address.rsplit(".", 1)[0],
                              broker_link)

        links[radio.name] = radio
        links[backhaul.name] = backhaul
        links[smf_link.name] = smf_link
        links[broker_link.name] = broker_link

        sites[name] = Btelco5GSite(
            name=name, gnb_host=gnb_host, amf_host=amf_host,
            smf_host=smf_host, gnb=gnb, amf=amf, smf=smf,
            pool_prefix=f"10.{128 + index}.0")

    return CellBricks5GNetwork(sim=sim, ca=ca, broker_host=broker_host,
                               brokerd=brokerd, sites=sites,
                               ue_host=ue_host, credentials=credentials,
                               links=links)
