#!/usr/bin/env python3
"""A small cellular access marketplace with verifiable billing (§4.3).

Three independent bTelcos serve the same broker's subscriber over time.
One of them pads its usage reports by 40%.  The demo shows the full
billing pipeline:

* UE and bTelco meters independently measure each session,
* both upload signed, encrypted traffic reports to the broker,
* the broker cross-checks them (Fig 5), accumulates mismatches into the
  dishonest bTelco's reputation, and starts *denying its attach
  requests* once the score crosses the threshold,
* honest sessions settle into invoices from the trusted UE measurements.

Run:  python examples/marketplace.py
"""

from repro.core.billing import REPORTER_BTELCO, REPORTER_UE, Meter
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.net import Simulator

SITES = ("metro-cell", "mall-cell", "shady-cell")
FRAUD = {"shady-cell": 1.4}   # shady-cell overcounts DL by 40%
SESSION_TRAFFIC = [           # (dl_bytes, ul_bytes) per reporting interval
    (4_000_000, 400_000),
    (6_500_000, 500_000),
    (2_500_000, 300_000),
]


def main() -> None:
    sim = Simulator()
    network = build_cellbricks_network(sim, site_names=SITES,
                                       subscriber_id="alice")
    brokerd = network.brokerd
    manager = MobilityManager(network)

    print("Marketplace: 3 bTelcos, 1 broker, subscriber 'alice'")
    print(f"(shady-cell inflates its reports by "
          f"{(FRAUD['shady-cell'] - 1) * 100:.0f}%)\n")

    for round_number in range(2):
        for site_name in SITES:
            score = brokerd.reputation.btelco_score(site_name)
            if manager.ue is None:
                manager.start(site_name)
            else:
                manager.switch_to(site_name)
            sim.run(until=sim.now + 1.0)
            ue = manager.ue
            if ue.state != "ATTACHED":
                print(f"  {site_name:11s} DENIED "
                      f"(reputation {score:.2f})")
                continue
            session_id = ue.session_id
            grant = brokerd.sap.shard_of("alice").grants[session_id]

            # Simulate a usage session: both meters observe the traffic,
            # the dishonest bTelco scales what it reports.
            fraud = FRAUD.get(site_name, 1.0)
            ue_meter = ue.meter
            telco_meter = Meter(
                session_id=session_id, reporter=REPORTER_BTELCO,
                key=network.sites[site_name].agw.key,
                broker_public_key=brokerd.public_key,
                fraud_factor=fraud,
                session_started_at=sim.now)
            for dl, ul in SESSION_TRAFFIC:
                ue_meter.record_dl(dl)
                ue_meter.record_ul(ul)
                telco_meter.record_dl(dl)
                telco_meter.record_ul(ul)
                now = sim.now
                brokerd.billing.ingest(ue_meter.emit(now), now)
                brokerd.billing.ingest(telco_meter.emit(now), now)

            invoice = brokerd.billing.settle(session_id)
            mismatches = brokerd.billing.sessions[session_id].mismatches
            print(f"  {site_name:11s} session {session_id.split(':')[1]}: "
                  f"{invoice.dl_bytes / 1e6:5.1f} MB billed, "
                  f"${invoice.amount:.4f}, "
                  f"mismatches={mismatches}, "
                  f"reputation now "
                  f"{brokerd.reputation.btelco_score(site_name):.2f}"
                  f"{'  <- DISPUTED' if invoice.disputed else ''}")
        print()

    print("Final reputations:")
    for site_name in SITES:
        score = brokerd.reputation.btelco_score(site_name)
        verdict = ("admitted" if brokerd.reputation.btelco_acceptable(site_name)
                   else "BLOCKED from future attachments")
        print(f"  {site_name:11s} {score:.3f}  ({verdict})")


if __name__ == "__main__":
    main()
