"""Testbed topology for the 5G benchmarks.

Visited network: UE — gNB — AMF — SMF (all local).  Home side: AUSF and
UDM on a cloud LAN behind the placement link (or brokerd there instead,
for the CellBricks variant).  Same placement latencies as the 4G testbed
so the generations are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import Host, Link, Simulator
from repro.testbed.placement import PLACEMENTS, SIGNALING_BANDWIDTH

UE_ADDRESS = "10.200.0.2"
GNB_ADDRESS = "10.200.0.1"
AMF_ADDRESS = "10.201.0.1"
SMF_ADDRESS = "10.202.0.1"
AUSF_ADDRESS = "52.10.0.1"
UDM_ADDRESS = "52.11.0.1"
BROKER_ADDRESS = "52.12.0.1"

RADIO_DELAY = 0.0001
BACKHAUL_DELAY = 0.00015
SMF_DELAY = 0.0002
DC_LAN_DELAY = 0.0002        # AUSF <-> UDM inside the home DC


@dataclass
class Topology5G:
    sim: Simulator
    ue_host: Host
    gnb_host: Host
    amf_host: Host
    smf_host: Host
    ausf_host: Host
    udm_host: Host
    broker_host: Host
    placement: str

    @classmethod
    def build(cls, sim: Simulator, placement: str = "local"
              ) -> "Topology5G":
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        delay = PLACEMENTS[placement]

        ue = Host(sim, "5g-ue", address=UE_ADDRESS)
        gnb = Host(sim, "5g-gnb", address=GNB_ADDRESS)
        amf = Host(sim, "5g-amf", address=AMF_ADDRESS)
        smf = Host(sim, "5g-smf", address=SMF_ADDRESS)
        ausf = Host(sim, "5g-ausf", address=AUSF_ADDRESS)
        udm = Host(sim, "5g-udm", address=UDM_ADDRESS)
        broker = Host(sim, "5g-broker", address=BROKER_ADDRESS)

        def wire(a, b, delay_s, prefix_a, prefix_b):
            link = Link(sim, f"5g-{a.name}-{b.name}", a, b,
                        bandwidth_bps=SIGNALING_BANDWIDTH, delay_s=delay_s)
            a.add_route(prefix_b, link)
            b.add_route(prefix_a, link)
            return link

        wire(ue, gnb, RADIO_DELAY, "10.200.0", "10.200.0")
        wire(gnb, amf, BACKHAUL_DELAY, "10.200.0", "10.201.0")
        wire(amf, smf, SMF_DELAY, "10.201.0", "10.202.0")
        amf_ausf = wire(amf, ausf, delay, "10.201.0", "52.10.0")
        wire(ausf, udm, DC_LAN_DELAY, "52.10.0", "52.11.0")
        amf_broker = wire(amf, broker, delay, "10.201.0", "52.12.0")

        # The gNB must reach the UE's /24 and the AMF's.
        gnb.add_route("10.200.0", gnb.links[0])
        return cls(sim=sim, ue_host=ue, gnb_host=gnb, amf_host=amf,
                   smf_host=smf, ausf_host=ausf, udm_host=udm,
                   broker_host=broker, placement=placement)
