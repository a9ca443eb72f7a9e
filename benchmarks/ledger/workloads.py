"""The five ledger workloads.

Each workload is two functions over the program's **public** testbed
entry points: ``prime(size, seed)`` — the same entry at minimal size,
which fills the process-wide keypool and every lazy import, and whose
cost is what ``setup_s`` reports — and ``run(size, seed, rec)`` — one
measured rep.  The program only ever receives the sizes from
``ledger.json`` and the seed; ``rec`` (a :class:`trace.Recorder`, or
None in the untraced pass) is used here only to draw the spans this
file itself owns: the megaload constructor and its per-action dispatch.

A rep returns an *outcome*: successful/attempted/failed op counts,
the sim-clock KPIs (exact, two-clock rule), a digest of everything
deterministic, named output checks, and the per-RAT wall split.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from pathlib import Path
from time import perf_counter

LEDGER = json.loads(
    (Path(__file__).with_name("ledger.json")).read_text())
RATS = ("lte", "5g")
#: layer name of each RAT (the package that implements it).
RAT_LAYER = {"lte": "lte", "5g": "fivegc"}


def sizes(workload: str, quick: bool = False) -> dict:
    return dict(LEDGER["quick_sizes" if quick else "sizes"][workload])


def resolve_seed(workload: str, seed: int | None) -> int | None:
    """``--seed`` overrides the testbed's own default for every seeded
    workload (``attach_storm`` takes no seed: its inputs are fixed)."""
    default = LEDGER["default_seeds"][workload]
    return default if seed is None or default is None else seed


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _per_rat(call) -> tuple[dict, dict]:
    """Run ``call(rat)`` for LTE then 5G, timing each half."""
    reports, walls = {}, {}
    for rat in RATS:
        start = perf_counter()
        reports[rat] = call(rat)
        walls[RAT_LAYER[rat]] = perf_counter() - start
    return reports, walls


# ---------------------------------------------------------------------------
# attach_storm — open loop: every UE fires its attach at sim t=0 (burst)
# ---------------------------------------------------------------------------

def _storm_cell(size: dict, rat: str, attaches: int):
    from repro.testbed import broker_scale
    return broker_scale.run_cell(attaches, size["shards"], rat=rat,
                                 pipeline=True, sites=size["sites"])


def prime_attach_storm(size: dict, seed) -> None:
    for rat in RATS:
        _storm_cell(size, rat, 1)


def run_attach_storm(size: dict, seed, rec) -> dict:
    n = size["attaches_per_rat"]
    cells, walls = _per_rat(lambda rat: _storm_cell(size, rat, n))
    attached = sum(c.attached for c in cells.values())
    attempted = n * len(RATS)
    kpis = {rat: {k: v for k, v in c.to_dict().items() if k != "broker"}
            for rat, c in cells.items()}
    return {
        "ops": attached, "attempted": attempted,
        "failed": attempted - attached,
        "sim": {
            "sim_attach_p50_ms": max(c.p50_ms for c in cells.values()),
            "sim_attach_p99_ms": max(c.p99_ms for c in cells.values()),
            "sim_attach_per_s":
                min(c.attaches_per_sec for c in cells.values()),
        },
        "rat": {RAT_LAYER[rat]: {"attach_p50_ms": c.p50_ms,
                                 "attach_p99_ms": c.p99_ms}
                for rat, c in cells.items()},
        "digest": _digest(kpis),
        "checks": {"attach_success_ge_99pct": attached >= 0.99 * attempted},
        "rat_wall_s": walls,
        "reports": {},
    }


# ---------------------------------------------------------------------------
# broker_failover — closed loop: one UE, next attach 20 ms after the last
# ---------------------------------------------------------------------------

def _failover_cell(size: dict, rat: str, attaches: int, seed: int,
                   stores: dict | None = None) -> dict:
    from repro.obs import Obs
    from repro.obs.fleet import FleetKpiStore
    from repro.testbed import broker_ha
    obs, store = Obs(), FleetKpiStore()
    if stores is not None:
        stores[rat] = (obs, store)
    return broker_ha.run_cell(
        rat, attaches=attaches, seed=seed,
        revoke_every=size["revoke_every"], think_time=size["think_time"],
        obs=obs, kpi_store=store)


def prime_broker_failover(size: dict, seed: int) -> None:
    for rat in RATS:
        _failover_cell(size, rat, 1, seed)


def run_broker_failover(size: dict, seed: int, rec) -> dict:
    from repro.testbed.broker_ha import GATE_SUCCESS_RATE, RECOVERY_BOUND_S
    stores: dict = {}
    cells, walls = _per_rat(lambda rat: _failover_cell(
        size, rat, size["attaches_per_rat"], seed, stores))
    attempts = sum(c["attempts"] for c in cells.values())
    successes = sum(c["successes"] for c in cells.values())
    recoveries = [r for c in cells.values() for r in c["recovery_s"]]
    unauthorized = sum(c["unauthorized_session_seconds"]
                       for c in cells.values())
    return {
        "ops": successes, "attempted": attempts,
        "failed": attempts - successes,
        "sim": {
            "sim_attach_p50_ms":
                max(c["attach_p50_ms"] for c in cells.values()),
            "sim_attach_p99_ms":
                max(c["attach_p99_ms"] for c in cells.values()),
            "sim_unauthorized_s": unauthorized,
            "sim_recovery_s": max(recoveries, default=0.0),
        },
        "rat": {RAT_LAYER[rat]: {"attach_p50_ms": c["attach_p50_ms"],
                                 "attach_p99_ms": c["attach_p99_ms"]}
                for rat, c in cells.items()},
        "digest": _digest(cells),
        "checks": {
            "attach_success_ge_99pct":
                successes >= GATE_SUCCESS_RATE * attempts,
            "replay_denied_across_failover": all(
                c["replay_denied_across_failover"]
                for c in cells.values()),
            "failovers_ge_2": all(c["failovers_total"] >= 2
                                  for c in cells.values()),
            "recovery_within_bound": bool(recoveries)
                and max(recoveries) <= RECOVERY_BOUND_S,
            "zero_unauthorized_seconds": unauthorized == 0.0,
        },
        "rat_wall_s": walls,
        "reports": {
            "obs_spans": sum(len(obs.tracer.spans())
                             for obs, _ in stores.values()),
            "kpi_windows": sum(len(store.rows)
                               for _, store in stores.values()),
        },
    }


# ---------------------------------------------------------------------------
# fleet_handover — closed loop per UE: a handover waits for the attach
# in flight; the RAN tick itself is open (fixed 100 ms sampling)
# ---------------------------------------------------------------------------

def _fleet_cell(size: dict, rat: str, duration: float, seed: int) -> dict:
    from repro.testbed import fleet_drive
    return fleet_drive.run_fleet_drive(
        rat, ues=size["ues"], duration=duration, seed=seed,
        sites=size["sites"], scope_ttl=size["scope_ttl"])


def prime_fleet_handover(size: dict, seed: int) -> None:
    for rat in RATS:
        _fleet_cell(size, rat, 5.0, seed)


def run_fleet_handover(size: dict, seed: int, rec) -> dict:
    cells, walls = _per_rat(lambda rat: _fleet_cell(
        size, rat, size["duration"], seed))
    handovers = sum(c["operator_handovers"] for c in cells.values())
    failures = sum(c["attach_failures"] for c in cells.values())
    rpcs = sum(c["broker_auth_rpcs"] for c in cells.values())
    unauthorized = sum(c["unauthorized_session_s"] for c in cells.values())
    return {
        # op = one simulated UE-second of driving, both RATs: fixed by
        # the sizes, where the handover count swings +-20 % with the
        # seed's operator map while most of the cost (RAN sampling) does
        # not.  Handovers are what is attempted and what can fail.
        "ops": size["ues"] * size["duration"] * len(RATS),
        "attempted": handovers + failures, "failed": failures,
        "sim": {
            "sim_stall_p50_ms":
                max(c["stall_ms"]["p50"] or 0.0 for c in cells.values()),
            "sim_stall_p95_ms":
                max(c["stall_ms"]["p95"] or 0.0 for c in cells.values()),
            "sim_rpcs_per_handover": rpcs / handovers if handovers else 0.0,
            "sim_unauthorized_s": unauthorized,
        },
        "rat": {RAT_LAYER[rat]: {"stall_p50_ms": c["stall_ms"]["p50"] or 0.0}
                for rat, c in cells.items()},
        "digest": _digest({rat: c["digest"] for rat, c in cells.items()}),
        "checks": {
            "handovers_happened": all(c["operator_handovers"] > 0
                                      for c in cells.values()),
            "denial_probes_all_denied": all(
                c["probes"].get("all_denied") for c in cells.values()),
            "zero_unauthorized_seconds": unauthorized == 0.0,
        },
        "rat_wall_s": walls,
        "reports": {
            "scoped_attaches":
                sum(c["scoped_attaches"] for c in cells.values()),
            "notices_sent": sum(
                c["scope_notices"]["accepted"] + c["scope_notices"]["denied"]
                for c in cells.values()),
        },
    }


# ---------------------------------------------------------------------------
# app_transport — closed loop (window/ACK-clocked senders), zero crypto
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _count_events():
    """Sum ``Simulator.run``'s return values while active — the only way
    to count heap events of the simulators the Table 1 driver creates
    internally.  A dozen calls per rep, so it is on in both passes."""
    from repro.net import sim as engine
    original = engine.Simulator.run
    counted = [0]

    def run(self, *args, **kwargs):
        processed = original(self, *args, **kwargs)
        counted[0] += processed
        return processed

    engine.Simulator.run = run
    try:
        yield counted
    finally:
        engine.Simulator.run = original


TABLE1_CELL = ("downtown", "night")
HANDOVER_GAP_S = 0.08
#: handover instants as fractions of the drive.
HANDOVER_AT = (0.25, 0.6)


def _handover_drive(kind: str, seconds: float, shaper_bps: float,
                    seed: int) -> dict:
    """One iperf download across two bTelco switches (detach, radio gap,
    attach latency *d*, new prefix) — the host-driven mobility the
    transport must survive."""
    from repro.apps import IperfClient, IperfServer
    from repro.emulation import DEFAULT_ATTACH_LATENCY
    from repro.net import CellularPath, Simulator
    sim = Simulator()
    path = CellularPath(sim, shaper_rate=shaper_bps, seed=seed)
    path.assign_ue_address()
    IperfServer(kind, path.server)
    client = IperfClient(kind, path.ue, path.server.address)
    client.start()

    def switch(prefix: str) -> None:
        path.detach(interruption_s=HANDOVER_GAP_S)
        sim.schedule(HANDOVER_GAP_S + DEFAULT_ATTACH_LATENCY,
                     path.attach, prefix)

    times = [seconds * frac for frac in HANDOVER_AT]
    for index, at in enumerate(times):
        sim.schedule_at(at, switch, f"10.{130 + index}.0")
    sim.run(until=seconds)
    deliveries = client.stats.deliveries
    windows = zip(times, times[1:] + [seconds])
    return {
        "bytes": client.stats.total_bytes,
        "resumed_after_each_handover": all(
            any(lo < t <= hi for t, _ in deliveries)
            for lo, hi in windows),
    }


def _app_rep(size: dict, seed: int, scale: float, seconds: float) -> dict:
    from repro.apps import KIND_MPTCP, KIND_QUIC
    from repro.emulation.driver import APP_DURATIONS, run_cell_result
    with _count_events() as events:
        cell = run_cell_result(*TABLE1_CELL, seed=seed,
                               duration_scale=scale)
        drives = {kind: _handover_drive(kind, seconds, size["shaper_bps"],
                                        seed)
                  for kind in (KIND_MPTCP, KIND_QUIC)}
    return {"cell": dataclasses.asdict(cell), "drives": drives,
            "events": events[0],
            "sessions": len(APP_DURATIONS) + len(drives)}


def prime_app_transport(size: dict, seed: int) -> None:
    _app_rep(size, seed, scale=0.002, seconds=0.5)


def run_app_transport(size: dict, seed: int, rec) -> dict:
    rep = _app_rep(size, seed, size["duration_scale"],
                   size["drive_seconds"])
    cell, drives = rep["cell"], rep["drives"]
    checks = {f"{kind}_resumed_after_each_handover":
              d["resumed_after_each_handover"] for kind, d in drives.items()}
    checks["cell_delivered"] = cell["iperf_mbps"]["cellbricks"] > 0 \
        and cell["web_load_s"]["cellbricks"] > 0
    return {
        # op = one heap event.  Simulated seconds would be fixed by the
        # sizes, but at these durations the bytes a seed's loss pattern
        # lets through swing the work +-30 %; cost per event does not.
        "ops": rep["events"], "attempted": rep["sessions"],
        "failed": sum(1 for ok in checks.values() if not ok),
        "sim": {
            "sim_goodput_mbps": cell["iperf_mbps"]["cellbricks"],
            "sim_web_load_s": cell["web_load_s"]["cellbricks"],
        },
        "rat": {},
        "digest": _digest({"cell": cell, "drives": drives,
                           "events": rep["events"]}),
        "checks": checks,
        "rat_wall_s": {},
        "reports": {},
    }


# ---------------------------------------------------------------------------
# megaload_day — open loop: a scripted arrival/mobility/activity schedule
# ---------------------------------------------------------------------------

def _megaload(size: dict, seed: int, ues: int):
    from repro.testbed.megaload import MegaloadWorkload
    return MegaloadWorkload(
        ues=ues, sites=size["sites"], duration=size["duration"],
        tick=0.05, seed=seed, engine="optimized", adaptive=True,
        compaction=True)


def prime_megaload_day(size: dict, seed: int) -> None:
    _megaload(size, seed, 1000).run()


def run_megaload_day(size: dict, seed: int, rec) -> dict:
    build_start = perf_counter()
    if rec is None:
        workload = _megaload(size, seed, size["ues"])
    else:
        from . import trace
        span = rec.open(rec.name_id("MegaloadWorkload()",
                                    "testbed.megaload"))
        try:
            workload = _megaload(size, seed, size["ues"])
        finally:
            rec.close(span)
        # One span per UE action would cost more than the action; the
        # calendar's public dispatch hook is timed by accumulation.
        workload.engine.dispatch = trace.accumulate(
            rec, "MegaloadWorkload.dispatch", "testbed.megaload",
            workload.engine.dispatch)
    build_s = perf_counter() - build_start
    cell = workload.run()
    load = cell["workload"]
    failed = load["attach_failures"] + load["gave_up"]
    return {
        "ops": load["actions"], "attempted": load["actions"] + failed,
        "failed": failed,
        "sim": {
            "sim_attach_p50_ms": load["attach_ms_p50"],
            "sim_attach_p99_ms": load["attach_ms_p99"],
            "sim_attach_per_s": load["attach_ok"] / load["duration_s"],
        },
        "rat": {},
        "digest": cell["digest"],
        "checks": {"no_attach_failures": load["attach_failures"] == 0,
                   "nobody_gave_up": load["gave_up"] == 0},
        "rat_wall_s": {},
        "reports": {
            "build_s": build_s, "actions": load["actions"],
            "broker_batches": load["broker_batches"],
        },
    }


#: name -> (prime, run, why) in ledger order; ``why`` is the one line
#: BENCHMARK.json carries.
WORKLOADS = {
    "attach_storm": (
        prime_attach_storm, run_attach_storm,
        "burst of full SAP attaches through the sharded batching broker,"
        " LTE then 5G; ~90% RSA, so crypto/core.sap/core.broker work"
        " shows here and transport work must not"),
    "broker_failover": (
        prime_broker_failover, run_broker_failover,
        "closed-loop attach/revoke churn over the replicated shard hosts"
        " with two crashes, a rebalance and obs on; the other broker,"
        " where a pipeline gain that costs the distributed path shows"),
    "fleet_handover": (
        prime_fleet_handover, run_fleet_handover,
        "host-driven mobility over the geometric RAN with scoped"
        " re-attach and a tower outage; ran sampling and crypto share"
        " the wall, and key generation makes setup_s the story"),
    "app_transport": (
        prime_app_transport, run_app_transport,
        "Table 1 data path (ping/iperf/VoIP/video/web, TCP vs MPTCP)"
        " plus MPTCP and QUIC handover drives; heap-path net.sim, link"
        " and transports, zero crypto: the control for crypto PRs"),
    "megaload_day": (
        prime_megaload_day, run_megaload_day,
        "100k scripted UEs on the TickCalendar path of the same net.sim"
        " plus the scripted broker; a heap win that hurts the calendar"
        " path or RSS per UE shows here; zero crypto, zero transport"),
}
