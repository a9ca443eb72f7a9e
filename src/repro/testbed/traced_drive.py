"""Traced mobility drive: one bTelco switch, fully decomposed.

The Fig 7 invariant — per-leg span sums equal the end-to-end total
exactly — extended to the data path.  A UE runs a bulk download (iperf)
over the emulated cellular path, switches bTelcos mid-stream via
:class:`~repro.core.mobility.MobilityManager`, and the recorded span
tree decomposes the resulting throughput stall into sequential legs:

* ``reauth_ms`` — detach until the SAP re-attach granted a bearer (the
  broker round-trip, nested ``attach`` tree included);
* ``transport_ms`` — until the transport re-established (MPTCP MP_JOIN
  subflow on LTE, QUIC PATH_CHALLENGE validation on 5G);
* ``drain_ms`` — until the first payload byte is delivered again.

The three legs sum exactly to the migration root's duration, and that
duration equals the app-measured delivery gap — both checked in the
returned report (``pass``).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.iperf import IperfClient, IperfServer
from repro.apps.transport import KIND_MPTCP, KIND_QUIC
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.net import Simulator
from repro.obs import Obs, install, migration_leg_breakdown

IPERF_RATE = 20e6  # emulated radio bottleneck (bps)
#: the multipath transport each generation's drive rides.
TRANSPORT = {"lte": KIND_MPTCP, "5g": KIND_QUIC}


def run_traced_drive(rat: str = "lte", *, switch_at: float = 2.0,
                     duration: float = 6.0, seed: int = 7,
                     address_wait: float = 0.5,
                     obs: Optional[Obs] = None) -> dict:
    """One switch under trace: LTE rides MPTCP, 5G rides QUIC.

    Returns a report whose ``legs`` entry is the migration breakdown and
    whose ``pass`` asserts the two exactness gates (legs sum to the root
    span, root span equals the app-measured stall).
    """
    sim = Simulator()
    obs = install(sim, obs)

    network = build_cellbricks_network(sim, with_data_path=True, seed=seed,
                                       rat=rat)
    data_path = network.data_path
    manager = MobilityManager(network)
    kind = TRANSPORT[rat]

    data_path.set_radio_bandwidth(IPERF_RATE)
    server = IperfServer(kind, data_path.server)
    client_box: list = []

    def on_attached(site, result) -> None:
        if not client_box:
            client = IperfClient(kind, data_path.ue,
                                 data_path.server.address,
                                 address_wait=address_wait)
            client_box.append(client)
            client.start()

    manager.on_attached = on_attached
    manager.start(next(iter(network.sites)))
    site_names = list(network.sites)
    sim.schedule(switch_at, manager.switch_to, site_names[1])
    sim.run(until=duration)

    client = client_box[0] if client_box else None
    deliveries = client.stats.deliveries if client is not None else []
    before = [t for t, _ in deliveries if t <= switch_at]
    after = [t for t, _ in deliveries if t > switch_at]
    stall_ms = (after[0] - switch_at) * 1000.0 if after else None

    spans = obs.tracer.spans()
    legs = migration_leg_breakdown(spans)
    breakdown = legs[0] if legs else None

    leg_sum_exact = bool(breakdown) and abs(
        breakdown["reauth_ms"] + breakdown["transport_ms"]
        + breakdown["drain_ms"] - breakdown["total_ms"]) < 1e-9
    stall_matches = bool(breakdown) and stall_ms is not None \
        and abs(breakdown["total_ms"] - stall_ms) < 1e-6

    inner = client.client.inner if client is not None else None
    report = {
        "rat": rat,
        "transport": kind,
        "seed": seed,
        "switch_at_s": switch_at,
        "duration_s": duration,
        "switches": manager.switches,
        "attach_latencies_ms": [round(l * 1000.0, 6)
                                for l in manager.attach_latencies],
        "deliveries_before_switch": len(before),
        "deliveries_after_switch": len(after),
        "bytes_delivered": client.stats.total_bytes if client else 0,
        "stall_ms": round(stall_ms, 6) if stall_ms is not None else None,
        "legs": breakdown,
        "spans_recorded": obs.tracer.spans_recorded,
        "handovers": getattr(inner, "handover_count",
                             getattr(inner, "migrations", 0)),
        "gates": {
            "attached_after_switch": bool(after),
            "leg_sum_exact": leg_sum_exact,
            "stall_matches_total": stall_matches,
        },
    }
    report["pass"] = all(report["gates"].values())
    return report
