"""Fleet drives over the geometric RAN with mobility-scoped grants.

The §4.2 measurement for scoped authorization: a fleet of UEs drives a
road corridor whose cells are randomly assigned to N bTelco operators.
Each UE runs the A3 cell-selection state machine
(:class:`repro.ran.selection.CellSelector`); every *emergent*
cross-operator handover feeds :meth:`MobilityManager.switch_to`, so the
re-attach load on the broker is produced by radio geometry, not by a
scripted schedule.

Two cells per RAT, same seed:

* **scoped** — each UE requests a mobility scope covering every site at
  initial attach; every subsequent cross-operator handover re-attaches
  with the broker-signed grant (zero broker auth round-trips; the
  async scope notice is off the critical path and is not an auth RPC).
* **scopes disabled** — every handover is a full ``authReqU`` broker
  round-trip: the baseline the grant is supposed to beat.

Mid-drive one operator's towers lose 60 dB of TX power (site outage):
every UE camped there reselects away within a TTT, producing the
attach-storm-after-outage scenario.  With scopes the storm never
touches the broker.

Reported per cell: MTTHO (per-UE and fleet), broker auth-RPCs per
operator handover, the handover stall distribution, storm metrics,
denial probes (replay / bad MAC / out-of-scope / expired), and
unauthorized-session-seconds.  Everything is deterministic for a given
seed; the report carries a digest the CI gate compares across runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.analysis.gates import gate
from repro.core.mobility import (
    MobilityManager,
    build_cellbricks_network,
    signaling_link,
)
from repro.core.sap import UeSapCredentials
from repro.core.messages import DenialCause, scope_attach_mac
from repro.crypto.keypool import pooled_keypair, warm
from repro.net import Host, Simulator
from repro.ran.cells import corridor_deployment
from repro.ran.geometry import Point, Trajectory, Waypoint
from repro.ran.selection import (DEFAULT_SAMPLE_INTERVAL_S, CellSelector,
                                 DriveLog, HandoverRecord)

from .netaddr import HostPrefixAllocator

#: stationary warm-up before the drive starts: initial attaches (full
#: authReqU for everyone, scoped or not) complete here, then the broker
#: RPC baseline is snapshotted so the drive only counts *handover* load.
SETTLE_S = 1.5
#: the tower outage lands this far into the drive.
OUTAGE_FRAC = 0.6
#: post-drive grace for in-flight attaches and async scope notices.
DRAIN_S = 3.0
#: the fleet's base speed (each UE rides 0.9-1.05x of it) and the
#: corridor's site spacing.
SPEED_MPS = 14.0
INTER_SITE_DISTANCE_M = 120.0


# ---------------------------------------------------------------------------
# Fleet construction
# ---------------------------------------------------------------------------

@dataclass
class FleetUe:
    """One drive participant: RAN state machine + SAP mobility manager."""

    index: int
    mm: MobilityManager
    selector: CellSelector
    trajectory: object
    log: DriveLog
    #: operator the UE most recently asked to be attached to.
    want_operator: Optional[str] = None
    #: an attach (initial / switch / recovery) is in flight.
    inflight: bool = False
    #: cross-operator target that arrived while ``inflight``.
    pending_target: Optional[str] = None
    recoveries: int = 0


def _fleet_ue_host(sim: Simulator, net, slot: int, seed: int):
    """A dedicated UE host + radio links to every site + credentials.

    Addresses come from the fleet's :class:`HostPrefixAllocator` block
    (``10.64.0`` – ``10.71.255``) — disjoint from the site prefixes
    (``10.23x``/``10.24x``/``10.25x``), the UE pools (``10.12{8+i}``)
    and the default UE host (``10.250``), so per-UE routes never shadow
    infrastructure routes.  The historical single-octet concatenation
    (``10.22{slot}``) capped the fleet at 10 hosts; the allocator
    spreads slots across a /16-style block instead.
    """
    allocator = HostPrefixAllocator(base_octet=64)
    host = Host(sim, f"fleet-ue{slot}", address=allocator.address(slot))
    for name, site in net.sites.items():
        signaling_link(sim, f"fleet-ue{slot}-{name}-radio", host,
                       site.enb_host, 0.0001)
    id_u = f"fleet-ue{slot}"
    key = pooled_keypair(seed * 100 + 20 + slot)
    creds = UeSapCredentials(id_u=id_u, id_b=net.brokerd.id_b, ue_key=key,
                             broker_public_key=net.brokerd.public_key)
    net.brokerd.enroll_subscriber(id_u, key.public_key)
    return dataclasses.replace(net, ue_host=host, credentials=creds)


# ---------------------------------------------------------------------------
# The drive
# ---------------------------------------------------------------------------

class _FleetDriver:
    """Ticks every UE's selector and routes emergent handovers into
    SAP attaches, queueing targets while an attach is in flight."""

    def __init__(self, sim: Simulator, net, fleet: list, deployment,
                 site_names: tuple, scoped: bool, scope_ttl: float):
        self.sim = sim
        self.net = net
        self.fleet = fleet
        self.deployment = deployment
        self.site_names = site_names
        self.scoped = scoped
        self.scope_ttl = scope_ttl
        self.tick = DEFAULT_SAMPLE_INTERVAL_S
        self.end_at = 0.0

    # -- RAN tick ---------------------------------------------------------
    def run_ticks(self, end_at: float) -> None:
        self.end_at = end_at
        self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        t_rel = max(0.0, now - SETTLE_S)
        for ue in self.fleet:
            pos = ue.trajectory.position_at(t_rel)
            prev = ue.selector.serving
            _, switched = ue.selector.step(now, pos)
            if switched is None:
                continue
            if prev is None:
                self._initial_attach(ue, switched)
                continue
            ue.log.handovers.append(HandoverRecord(
                at=now, from_pci=prev.pci, to_pci=switched.pci,
                from_operator=prev.operator,
                to_operator=switched.operator))
            if switched.operator != ue.want_operator:
                self._request_switch(ue, switched.operator)
        if now + self.tick <= self.end_at:
            self.sim.schedule(self.tick, self._tick)

    # -- SAP glue ---------------------------------------------------------
    def _initial_attach(self, ue: FleetUe, cell) -> None:
        ue.want_operator = cell.operator
        ue.inflight = True
        mm = ue.mm
        mm.on_attached = lambda site, result, u=ue: \
            self._attach_done(u, site, True)
        mm.on_failed = lambda site, result, u=ue: \
            self._attach_done(u, site, False)
        mm.start(cell.operator)
        if self.scoped:
            mm.ue.scope_request = {"telcos": list(self.site_names),
                                   "ttl": self.scope_ttl}

    def _request_switch(self, ue: FleetUe, operator: str) -> None:
        ue.want_operator = operator
        if ue.inflight:
            ue.pending_target = operator
            return
        ue.inflight = True
        ue.mm.switch_to(operator)

    def _attach_done(self, ue: FleetUe, site, ok: bool) -> None:
        ue.inflight = False
        if not ok:
            ue.recoveries += 1
            if ue.pending_target is not None:
                target, ue.pending_target = ue.pending_target, None
                ue.inflight = True
                ue.mm.switch_to(target)
            else:
                # Re-attach where the UE last held a bearer (satellite
                # fix: current_site still names it after a failed
                # switch).
                ue.inflight = True
                ue.mm.reattach()
            return
        if ue.pending_target is not None and ue.pending_target != site.name:
            target, ue.pending_target = ue.pending_target, None
            ue.inflight = True
            ue.mm.switch_to(target)
        else:
            ue.pending_target = None


# ---------------------------------------------------------------------------
# Denial probes
# ---------------------------------------------------------------------------

def _run_denial_probes(sim: Simulator, net, site_names: tuple,
                       seed: int, fleet: list) -> dict:
    """Attach two stationary probe UEs and dry-run each denial class
    against live bTelco state via ``validate_scope_probe`` — read-only,
    so no counters burn and the drive's accounting is untouched."""
    probes: dict = {}
    home, away = site_names[0], site_names[1]

    # Probe hosts take the two slots right after the fleet's, so they
    # never collide with a drive UE at any fleet size.
    probe_slot = len(fleet)
    # probe A: scope restricted to its serving site (out-of-scope case).
    view_a = _fleet_ue_host(sim, net, probe_slot, seed)
    mm_a = MobilityManager(view_a)
    mm_a.start(home)
    mm_a.ue.scope_request = {"telcos": [home], "ttl": 300.0}
    # probe B: a tiny TTL so the grant expires before we probe it.
    view_b = _fleet_ue_host(sim, net, probe_slot + 1, seed)
    mm_b = MobilityManager(view_b)
    mm_b.start(home)
    mm_b.ue.scope_request = {"telcos": list(site_names), "ttl": 0.5}
    sim.run(until=sim.now + 1.0)

    def record(name: str, cause, expected: DenialCause) -> None:
        probes[name] = {"cause": cause, "denied": cause is not None,
                        "expected": expected.value,
                        "ok": cause == expected.value}

    agw_home = net.sites[home].agw
    agw_away = net.sites[away].agw

    grant_a = mm_a.ue.mobility_grant
    if grant_a is not None:
        tok = grant_a.token
        # Out of scope: the token only covers ``home``.
        mac = scope_attach_mac(grant_a.ss, grant_a.session_id,
                               grant_a.next_counter, away)
        record("out_of_scope",
               agw_away.validate_scope_probe(tok, grant_a.next_counter, mac),
               DenialCause.POLICY)
        # Bad MAC: right counter, garbage proof-of-possession.
        record("bad_mac",
               agw_home.validate_scope_probe(tok, grant_a.next_counter,
                                             b"\x00" * 32),
               DenialCause.BAD_SIGNATURE)
    # Replay: a counter at (or below) the committed floor.  Prefer a
    # grant a fleet UE actually re-attached with; fall back to probe A's
    # floor-0 grant (counter 0 ≤ floor 0 is still a replay).
    replayed = False
    for ue in fleet:
        grant = getattr(ue.mm.ue, "mobility_grant", None)
        site = ue.mm.current_site
        if grant is None or site is None:
            continue
        floor = site.agw._scope_counters.get(grant.session_id, 0)
        if floor <= 0:
            continue
        mac = scope_attach_mac(grant.ss, grant.session_id, floor, site.name)
        record("replay",
               site.agw.validate_scope_probe(grant.token, floor, mac),
               DenialCause.REPLAY)
        replayed = True
        break
    if not replayed and grant_a is not None:
        mac = scope_attach_mac(grant_a.ss, grant_a.session_id, 0, home)
        record("replay", agw_home.validate_scope_probe(grant_a.token, 0, mac),
               DenialCause.REPLAY)

    grant_b = mm_b.ue.mobility_grant
    if grant_b is not None:
        # Expired: 0.5 s TTL minted > 1 s ago.
        mac = scope_attach_mac(grant_b.ss, grant_b.session_id,
                               grant_b.next_counter, home)
        record("expired",
               agw_home.validate_scope_probe(grant_b.token,
                                             grant_b.next_counter, mac),
               DenialCause.EXPIRED)
    probes["all_denied"] = bool(probes) and all(
        p["ok"] for k, p in probes.items() if k != "all_denied")
    return probes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _percentile(values: list, q: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _finite_or_none(value: float) -> Optional[float]:
    return None if math.isinf(value) else round(value, 6)


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# One cell
# ---------------------------------------------------------------------------

def run_fleet_drive(rat: str = "lte", ues: int = 6, duration: float = 30.0,
                    seed: int = 11, sites: int = 3,
                    scoped: bool = True,
                    scope_ttl: float = 300.0,
                    probes: bool = True) -> dict:
    """Run one fleet-drive cell and return its report dict.

    ``sites`` ≤ 16 (site keypool slots sit directly below the fleet
    UEs' slot range) and ``ues`` ≤ 64 (well inside the host-prefix
    allocator's 2048-slot block; two slots past the fleet are reserved
    for the denial probes).
    """
    if not 2 <= sites <= 16:
        raise ValueError("sites must be between 2 and 16")
    if not 1 <= ues <= 64:
        raise ValueError("ues must be between 1 and 64")
    site_names = tuple(f"site{i}" for i in range(sites))
    sim = Simulator()
    net = build_cellbricks_network(sim, site_names=site_names, seed=seed,
                                   rat=rat)
    # One key per fleet UE, plus the two denial-probe UEs after them.
    warm(range(seed * 100 + 20,
               seed * 100 + 20 + ues + (2 if probes else 0)))

    speed_mps, inter_site_distance_m = SPEED_MPS, INTER_SITE_DISTANCE_M
    length_m = duration * speed_mps + 2 * inter_site_distance_m
    rng = random.Random(seed)
    deployment = corridor_deployment(
        length_m, inter_site_distance_m, operators=site_names,
        offset_m=30.0, rng=rng)

    fleet: list = []
    for u in range(ues):
        view = _fleet_ue_host(sim, net, u, seed)
        mm = MobilityManager(view)
        # Stagger starting positions and speeds so the fleet spreads
        # over the corridor instead of handing over in lockstep.
        drive_span = duration * speed_mps
        start_x = (u / max(1, ues)) * max(0.0, length_m - drive_span)
        speed = speed_mps * (0.9 + 0.03 * u)
        traj = Trajectory(Point(start_x, 0.0),
                          [Waypoint(Point(length_m, 0.0), speed)])
        fleet.append(FleetUe(
            index=u, mm=mm,
            selector=CellSelector(deployment, ue_id=u, seed=seed),
            trajectory=traj, log=DriveLog(duration=duration)))

    driver = _FleetDriver(sim, net, fleet, deployment, site_names,
                          scoped, scope_ttl)
    driver.run_ticks(end_at=SETTLE_S + duration)

    # Warm-up: initial attaches complete while the fleet sits still.
    sim.run(until=SETTLE_S)
    broker = net.brokerd
    rpc_baseline = broker.requests_approved + broker.requests_denied
    switch_baseline = sum(u.mm.switches for u in fleet)

    # Mid-drive tower outage: one operator's cells drop 60 dB.
    storm: dict = {}
    outage_operator = site_names[-1]
    outage_at = SETTLE_S + duration * OUTAGE_FRAC

    def _trigger_outage() -> None:
        for cell in deployment.cells:
            if cell.operator == outage_operator:
                cell.tx_power_dbm -= 60.0
        storm["at_s"] = round(sim.now - SETTLE_S, 3)
        storm["rpc_before"] = (broker.requests_approved
                               + broker.requests_denied)
        storm["switches_before"] = sum(u.mm.switches for u in fleet)
        storm["camped_on_outage"] = sum(
            1 for u in fleet if u.want_operator == outage_operator)

    sim.schedule_at(outage_at, _trigger_outage)

    sim.run(until=SETTLE_S + duration + DRAIN_S)

    if storm:
        storm["operator"] = outage_operator
        storm["handovers"] = (sum(u.mm.switches for u in fleet)
                              - storm.pop("switches_before"))
        storm["broker_auth_rpcs"] = (broker.requests_approved
                                     + broker.requests_denied
                                     - storm.pop("rpc_before"))

    # Snapshot drive-phase auth RPCs *before* the probes attach their
    # own UEs (each probe's initial attach is a legitimate full auth).
    auth_rpcs = (broker.requests_approved + broker.requests_denied
                 - rpc_baseline)

    probe_report: dict = {}
    if scoped and probes:
        probe_report = _run_denial_probes(sim, net, site_names, seed,
                                          fleet)

    # -- aggregate --------------------------------------------------------
    op_handovers = sum(u.mm.switches for u in fleet) - switch_baseline
    ran_handovers = sum(u.log.handover_count for u in fleet)
    stalls_ms = sorted(
        round(lat * 1000.0, 6)
        for u in fleet for lat in u.mm.attach_latencies[1:])
    mtthos = [u.log.mttho for u in fleet]
    finite = [m for m in mtthos if not math.isinf(m)]
    scoped_attaches = sum(
        getattr(site.agw, "scoped_attaches", 0)
        for site in net.sites.values())
    unauthorized_s = sum(
        getattr(site.agw, "scope_unauthorized_session_s", 0.0)
        for site in net.sites.values())
    failures = sum(u.mm.attach_failures for u in fleet)
    causes: dict = {}
    for u in fleet:
        for cause, count in u.mm.failure_causes.items():
            causes[cause] = causes.get(cause, 0) + count

    digest_payload = {
        "handover_times": [[round(h.at, 6) for h in u.log.handovers]
                           for u in fleet],
        "switches": [u.mm.switches for u in fleet],
        "mttho": [_finite_or_none(m) for m in mtthos],
        "auth_rpcs": auth_rpcs,
        "scoped_attaches": scoped_attaches,
        "stalls_ms": [round(s, 3) for s in stalls_ms],
    }

    return {
        "rat": rat, "scoped": scoped, "ues": ues, "sites": sites,
        "seed": seed, "duration_s": duration,
        "ran_handovers": ran_handovers,
        "operator_handovers": op_handovers,
        "broker_auth_rpcs": auth_rpcs,
        "rpcs_per_handover": (round(auth_rpcs / op_handovers, 6)
                              if op_handovers else None),
        "scoped_attaches": scoped_attaches,
        "scope_notices": {"accepted": broker.scope_notices_accepted,
                          "denied": broker.scope_notices_denied},
        "attach_failures": failures,
        "failure_causes": causes,
        "recoveries": sum(u.recoveries for u in fleet),
        "mttho_s": {
            "per_ue": [_finite_or_none(m) for m in mtthos],
            "fleet_mean_s": (round(sum(finite) / len(finite), 6)
                             if finite else None),
            "finite_ues": len(finite),
        },
        "stall_ms": {
            "count": len(stalls_ms),
            "p50": _percentile(stalls_ms, 0.50),
            "p95": _percentile(stalls_ms, 0.95),
            "max": stalls_ms[-1] if stalls_ms else None,
        },
        "storm": storm,
        "probes": probe_report,
        "unauthorized_session_s": round(unauthorized_s, 9),
        "digest": _digest(digest_payload),
    }


# ---------------------------------------------------------------------------
# The suite (scoped vs disabled, per RAT) and its gates
# ---------------------------------------------------------------------------

def run_fleet_suite(rats: tuple = ("lte", "5g"), ues: int = 6,
                    duration: float = 30.0, seed: int = 11,
                    sites: int = 3) -> tuple:
    """Scoped + scopes-disabled cells per RAT and one re-run of the first
    scoped cell.  Returns ``(report, gate records)``; the report keeps
    its historical ``gates`` name -> bool map."""
    cells = []
    for rat in rats:
        cells.append(run_fleet_drive(rat=rat, ues=ues, duration=duration,
                                     seed=seed, sites=sites, scoped=True))
        cells.append(run_fleet_drive(rat=rat, ues=ues, duration=duration,
                                     seed=seed, sites=sites, scoped=False,
                                     probes=False))
    rerun = run_fleet_drive(rat=rats[0], ues=ues, duration=duration,
                            seed=seed, sites=sites, scoped=True)
    report = {"bench": "fleet_drive", "seed": seed, "ues": ues,
              "duration_s": duration, "sites": sites, "cells": cells}
    records = gates(report, rerun["digest"])
    report["gates"] = {entry["gate"]: entry["pass"] for entry in records}
    report["pass"] = all(report["gates"].values())
    return report, records


#: the seeded --smoke drives (`run_fleet_suite(**SMOKE)`).
SMOKE = dict(ues=4, duration=20.0, seed=11, sites=3)


def gates(report: dict, rerun_digest: str) -> list:
    """What a :func:`run_fleet_suite` report must show.  ``rerun_digest``
    is the digest of an identically-seeded second run of the first
    scoped cell — the one fact the report itself does not carry."""
    cells = {(c["rat"], c["scoped"]): c for c in report["cells"]}
    first = report["cells"][0]
    out = [gate("deterministic_digest", rerun_digest, first["digest"],
                rerun_digest == first["digest"])]
    for rat in dict.fromkeys(c["rat"] for c in report["cells"]):
        scoped, plain = cells[rat, True], cells[rat, False]
        unauthorized = (scoped["unauthorized_session_s"]
                        + plain["unauthorized_session_s"])
        accepted = scoped["scope_notices"]["accepted"]
        probes = [probe["ok"] for name, probe in scoped["probes"].items()
                  if name != "all_denied"]
        out += [
            gate(f"{rat}_handovers_happened", scoped["operator_handovers"],
                 1, scoped["operator_handovers"] > 0),
            gate(f"{rat}_scoped_zero_auth_rpcs", scoped["broker_auth_rpcs"],
                 0, scoped["broker_auth_rpcs"] == 0),
            gate(f"{rat}_scoped_beats_baseline", scoped["broker_auth_rpcs"],
                 plain["broker_auth_rpcs"],
                 plain["broker_auth_rpcs"] > scoped["broker_auth_rpcs"]),
            gate(f"{rat}_probes_denied", sum(probes), len(probes),
                 bool(probes) and all(probes)),
            gate(f"{rat}_zero_unauthorized_seconds", unauthorized, 0.0,
                 unauthorized == 0.0),
            gate(f"{rat}_scope_notices_flow", accepted,
                 scoped["scoped_attaches"],
                 accepted >= scoped["scoped_attaches"] > 0),
        ]
    return out
