"""The §6.1 prototype testbed: UE + eNodeB + AGW, with the SubscriberDB /
brokerd placed locally or in a cloud region.

Latency calibration (see DESIGN.md §6): the AGW-to-cloud round-trip times
are solved from the paper's Fig 7 pairs — the baseline pays the RTT twice
(AIR + ULR), CellBricks once (SAP), which is what makes CB *faster* than
BL for remote placements despite its ~identical processing cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import Host, Link, Simulator

# One-way AGW <-> SubscriberDB/brokerd delays per placement (seconds).
PLACEMENTS = {
    "local": 0.0002,
    "us-west-1": 0.0025,
    "us-east-1": 0.0355,
}

UE_ADDRESS = "10.200.0.2"
ENB_ADDRESS = "10.200.0.1"
AGW_ADDRESS = "10.201.0.1"
CLOUD_DB_ADDRESS = "52.10.0.1"

RADIO_SIGNALING_DELAY = 0.0001   # UE <-> eNB NAS transport (RRC excluded)
BACKHAUL_DELAY = 0.00015         # eNB <-> AGW (same rack in the testbed)
SIGNALING_BANDWIDTH = 1e9        # control-plane links are never the bottleneck


@dataclass
class TestbedTopology:
    """Hosts and links of the Fig 6 testbed."""

    __test__ = False  # not a pytest class, despite the name

    sim: Simulator
    ue_host: Host
    enb_host: Host
    agw_host: Host
    db_host: Host
    placement: str

    @classmethod
    def build(cls, sim: Simulator, placement: str = "local"
              ) -> "TestbedTopology":
        """Wire up the testbed with the SubscriberDB/brokerd at ``placement``."""
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; "
                             f"choose from {sorted(PLACEMENTS)}")
        ue = Host(sim, "testbed-ue", address=UE_ADDRESS)
        enb = Host(sim, "testbed-enb", address=ENB_ADDRESS)
        agw = Host(sim, "testbed-agw", address=AGW_ADDRESS)
        db = Host(sim, "testbed-db", address=CLOUD_DB_ADDRESS)

        radio = Link(sim, "testbed-radio", ue, enb,
                     bandwidth_bps=SIGNALING_BANDWIDTH,
                     delay_s=RADIO_SIGNALING_DELAY)
        backhaul = Link(sim, "testbed-backhaul", enb, agw,
                        bandwidth_bps=SIGNALING_BANDWIDTH,
                        delay_s=BACKHAUL_DELAY)
        cloud = Link(sim, "testbed-cloud", agw, db,
                     bandwidth_bps=SIGNALING_BANDWIDTH,
                     delay_s=PLACEMENTS[placement])

        # Multihomed signaling routes.
        enb.add_route(AGW_ADDRESS.rsplit(".", 1)[0], backhaul)
        enb.add_route(UE_ADDRESS.rsplit(".", 1)[0], radio)
        agw.add_route(UE_ADDRESS.rsplit(".", 1)[0], backhaul)
        agw.add_route(CLOUD_DB_ADDRESS.rsplit(".", 1)[0], cloud)
        return cls(sim=sim, ue_host=ue, enb_host=enb, agw_host=agw,
                   db_host=db, placement=placement)
