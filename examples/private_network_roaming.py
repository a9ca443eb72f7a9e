#!/usr/bin/env python3
"""Seamless private-network integration (the paper's benefit (v)).

An employee's UE moves between a public macro bTelco and her employer's
private campus network.  Under CellBricks both are just bTelcos: the same
SAP attach works against both, the broker applies a different QoS plan on
the enterprise cell (higher AMBR, premium QCI 8), and a video stream over
MPTCP keeps playing across the transitions.

Run:  python examples/private_network_roaming.py
"""

from repro.apps import HlsPlayer, HlsServer, KIND_MPTCP
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.core.qos import QosInfo
from repro.net import Simulator

PUBLIC = "public-macro"
PRIVATE = "enterprise-campus"


def main() -> None:
    sim = Simulator()
    network = build_cellbricks_network(
        sim, site_names=(PUBLIC, PRIVATE), subscriber_id="employee-7",
        with_data_path=True)
    # The broker provisions a premium plan used when capacity allows.
    network.brokerd.sap.subscriber("employee-7").qos_plan = QosInfo(
        qci=8, ambr_dl_bps=50e6, ambr_ul_bps=20e6)

    path = network.data_path
    manager = MobilityManager(network, data_path=path)

    # A video session that must survive the public <-> private moves.
    HlsServer(KIND_MPTCP, path.server)
    player = HlsPlayer(KIND_MPTCP, path.ue, path.server.address)

    manager.start(PUBLIC)
    sim.run(until=1.0)
    print(f"[t={sim.now:5.2f}s] on {PUBLIC}: ip={manager.ue.ue_ip}")
    player.start(duration=60)
    sim.run(until=20.0)

    manager.switch_to(PRIVATE)  # walking into the office
    sim.run(until=22.0)
    bearer = next(iter(network.sites[PRIVATE].agw.contexts.values())).bearer
    print(f"[t={sim.now:5.2f}s] on {PRIVATE}: ip={manager.ue.ue_ip}, "
          f"QCI {bearer.qci}, AMBR {bearer.ambr_dl_bps / 1e6:.0f} Mbps")
    sim.run(until=40.0)

    manager.switch_to(PUBLIC)   # heading home
    sim.run(until=42.0)
    print(f"[t={sim.now:5.2f}s] back on {PUBLIC}: ip={manager.ue.ue_ip}")
    sim.run(until=62.0)

    stats = player.stats
    print(f"\nvideo across 2 network transitions: "
          f"{stats.segments_downloaded} segments, "
          f"avg level {stats.average_level:.2f}, "
          f"rebuffers {stats.rebuffer_events}")
    print(f"attach latencies: "
          f"{['%.1f ms' % (v * 1000) for v in manager.attach_latencies]}")
    print("Same protocol, same UE stack, zero roaming agreements.")


if __name__ == "__main__":
    main()
