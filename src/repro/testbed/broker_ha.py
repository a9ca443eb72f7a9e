"""BROKER-HA — shard-host failures under attach churn, on both RATs.

The distributed broker (``repro.core.shardhost``) claims that losing a
shard host mid-storm costs bounded time and no correctness: attaches
keep succeeding (the UE retries retryable degraded denials), replayed
nonces stay denied *across* the failover (the replica carried the replay
window), and a revoked subscriber never accrues unauthorized session
seconds.  This drill kills shard hosts mid-attach-storm and
mid-rebalance and gates on exactly those properties; CI runs it with
``repro.cli broker-ha --smoke``.

Timeline per cell (times scale with the churn length):

1. attach/revoke churn starts across two bTelco sites;
2. the primary host of the shard owning the churned subscriber is
   crashed (fail-stop) and restarted a little later — failover promotes
   the replica, the restarted host rejoins empty and is resynced;
3. a spare shard is activated (``add_shard``) so a live rebalance runs,
   and a second crash lands right after it begins;
4. after the churn drains, a probe replays an ``authReqU`` that was
   served by the crashed shard *before* the first crash — the promoted
   replica must still deny it.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.gates import gate
from repro.core.messages import BrokerAuthRequest, BrokerAuthResponse
from repro.core.shardhost import ShardFrontend, deploy_shard_hosts
from repro.emulation.chaos import ChaosSchedule, node_crash, run_chaos
from repro.lte.signaling import SignalingNode
from repro.net import Host, Link

#: promoted-and-serving deadline after a crash: one missed-heartbeat
#: window, one extra probe period, plus promotion round trips.
RECOVERY_BOUND_S = (ShardFrontend.detection_timeout
                    + 2 * ShardFrontend.heartbeat_interval + 0.5)

GATE_SUCCESS_RATE = 0.99


def run_cell(rat: str = "lte", *, attaches: int = 150, shards: int = 2,
             spares: int = 1, seed: int = 11, revoke_every: int = 25,
             think_time: float = 0.02, obs=None, kpi_store=None,
             kpi_interval: float = 0.5) -> dict:
    """One RAT's drill: churn + two crashes + rebalance + replay probe.

    With ``kpi_store`` a read-only collector samples the frontend's
    routing counters plus every shard host's replication backlog/lag
    into windowed KPI rows on the sim clock."""
    schedule = ChaosSchedule()
    captured: dict = {}
    replay: dict = {"denied": False, "cause": "probe never fired"}
    crash_1 = 0.8
    restart_after = 1.5
    rebalance_at = 3.0
    crash_2 = 3.1
    # Probe after both failovers settled but well inside the replay
    # window (the chaos sim drains session-TTL cleanup events, so a
    # post-run probe would arrive after the window legitimately closed).
    probe_at = 5.5

    def on_network_built(network):
        frontend = deploy_shard_hosts(
            network, num_shards=shards, spares=spares)
        victim = frontend.ring.shard_for(network.credentials.id_u)
        captured.update(network=network, frontend=frontend,
                        victim=victim)
        # Background subscribers (never attached) so the scale-out
        # rebalance has a population to re-shard: roughly a third of
        # them move, exercising begin/chunk/commit over real links.
        for index in range(12):
            network.brokerd.enroll_subscriber(
                f"ha-filler-{index:02d}",
                network.credentials.ue_key.public_key)
        # Crash the victim's primary mid-storm; it restarts empty and
        # must be re-provisioned + resynced.  The second crash takes out
        # the promoted replica right after the rebalance starts, so the
        # resynced original must carry the shard through the handoff.
        schedule.add(node_crash(crash_1, f"shard{victim}",
                                duration=restart_after))
        schedule.add(node_crash(crash_2, f"shard{victim}r"))
        network.sim.schedule(rebalance_at, frontend.add_shard)
        network.sim.schedule(
            probe_at, _replay_probe, network, frontend, victim,
            crash_1, replay)
        if kpi_store is not None:
            captured["collector"] = _attach_kpi_collector(
                network, frontend, kpi_store, kpi_interval,
                horizon=probe_at + 2.0)

    report = run_chaos(
        attaches=attaches, schedule=schedule, revoke_every=revoke_every,
        seed=seed, think_time=think_time,
        on_network_built=on_network_built, obs=obs, rat=rat)
    collector = captured.get("collector")
    if collector is not None:
        collector.stop()

    frontend = captured["frontend"]
    victim = captured["victim"]
    distributed = report.broker_stats["distributed"]
    recoveries = _recovery_times(distributed["failover_log"],
                                 crashes=(crash_1, crash_2))
    return {
        "rat": rat,
        "attaches": attaches,
        "attempts": report.attempts,
        "successes": report.successes,
        "failures": report.failures,
        "success_rate": round(report.success_rate, 4),
        "failure_causes": report.failure_causes,
        "attach_p50_ms": round(report.attach_p50_ms, 3),
        "attach_p99_ms": round(report.attach_p99_ms, 3),
        "revocations": report.revocations,
        "unauthorized_session_seconds":
            report.unauthorized_session_seconds,
        "victim_shard": victim,
        "failovers_total": distributed["failovers_total"],
        "failover_log": distributed["failover_log"],
        "recovery_s": recoveries,
        "recovery_bound_s": RECOVERY_BOUND_S,
        "resyncs_total": distributed["resyncs_total"],
        "rebalances_total": distributed["rebalances_total"],
        "rebalance_log": distributed["rebalance_log"],
        "degraded_denials": distributed["degraded_denials"],
        "parked_attaches": distributed["parked_attaches"],
        "forward_giveups": distributed["forward_giveups"],
        "handoff_chunks_retried": distributed["handoff_chunks_retried"],
        "replay_denied_across_failover": replay["denied"],
        "replay_cause": replay["cause"],
        "active_shards": distributed["active_shards"],
        "shard_status": distributed["shard_status"],
    }


def _attach_kpi_collector(network, frontend, store, interval: float,
                          horizon: Optional[float] = None):
    """Probe the distributed broker: frontend routing counters, attach
    outcomes, per-shard replication backlog/lag and degraded denials."""
    from repro.obs.fleet import KpiCollector

    collector = KpiCollector(network.sim, store, interval=interval,
                             horizon=horizon)
    collector.add_counter_probe("frontend", lambda: {
        "failovers": frontend.failovers_total.value,
        "resyncs": frontend.resyncs_total.value,
        "rebalances": frontend.rebalances_total.value,
        "degraded_denials": frontend.degraded_denials.value,
        "parked_attaches": frontend.parked_attaches.value,
        "forward_giveups": frontend.forward_giveups.value,
        "handoff_chunks_retried": frontend.handoff_chunks_retried.value,
    })
    collector.add_counter_probe("brokerd", lambda: {
        "approved": network.brokerd.requests_approved,
        "denied": network.brokerd.requests_denied,
    })

    def shard_gauges() -> dict:
        out = {"pending_forwards": len(frontend._pending)}
        for sid, st in sorted(frontend.states.items()):
            out[f"s{sid}.health"] = \
                1 if st.status == "healthy" else 0
            for addr in (st.primary_addr, st.standby_addr):
                host = st.hosts[addr]
                role = "primary" if addr == st.primary_addr \
                    else "standby"
                out[f"s{sid}.{role}.repl_backlog_ops"] = \
                    host.repl_backlog_ops
                out[f"s{sid}.{role}.repl_lag_s"] = \
                    round(host.repl_lag_s, 9)
        return out

    def shard_counters() -> dict:
        out: dict = {}
        for sid, st in sorted(frontend.states.items()):
            served = denied = degraded = 0
            for host in st.hosts.values():
                served += host.auths_served
                denied += host.auths_denied
                degraded += host.degraded_denials
            out[f"s{sid}.auths_served"] = served
            out[f"s{sid}.auths_denied"] = denied
            out[f"s{sid}.degraded_denials"] = degraded
        return out

    collector.add_gauge_probe("shards", shard_gauges)
    collector.add_counter_probe("shards", shard_counters)
    collector.start()
    return collector


def _recovery_times(failover_log: list, crashes: tuple) -> list:
    """Crash-to-promoted seconds, pairing each failover with the most
    recent crash before its detection."""
    out = []
    for entry in failover_log:
        prior = [at for at in crashes if at <= entry["detected_at"]]
        if prior:
            out.append(round(entry["promoted_at"] - max(prior), 6))
    return out


def _replay_probe(network, frontend, victim: int, crash_at: float,
                  outcome: dict) -> None:
    """Re-submit an ``authReqU`` the victim shard approved before it
    crashed (re-signed by the same bTelco, as a stolen-request attacker
    would) and record whether the promoted replica denies it.  Fires as
    a scheduled event mid-run; writes into ``outcome``."""
    # Only auths old enough to have been replicated before the crash
    # prove anything about the replica's replay window.
    replicated_by = crash_at - 0.15
    candidates = [entry for entry in frontend.recent_auths
                  if entry["at"] < replicated_by
                  and entry["shard_id"] == victim]
    if not candidates:
        outcome["cause"] = "no pre-crash auth captured"
        return
    entry = candidates[-1]
    site = network.sites[entry["id_t"]]
    # Re-sign with a flipped LI flag: a *different* request envelope
    # (so the idempotency cache cannot legitimately re-serve the cached
    # response) carrying the *same* single-use nonce — exactly what a
    # stolen authReqU replayed through a colluding bTelco looks like.
    auth_req_t = site.agw.sap.augment_request(entry["auth_req_u"],
                                              lawful_intercept=True)

    sim = network.sim
    probe_host = Host(sim, "replay-probe", address="52.23.0.2")
    probe = SignalingNode(probe_host, name="replay-probe")
    link = Link(sim, "probe-broker", probe_host, network.broker_host,
                bandwidth_bps=1e9, delay_s=0.001)
    probe_host.add_route(
        network.broker_host.address.rsplit(".", 1)[0], link)
    network.broker_host.add_route(
        probe_host.address.rsplit(".", 1)[0], link)
    outcome["cause"] = "no response"

    def _on_response(src_ip, response):
        outcome["denied"] = not response.approved
        outcome["cause"] = response.cause or "approved"

    probe.on(BrokerAuthResponse, _on_response)
    probe.send_request(
        network.broker_host.address,
        BrokerAuthRequest(auth_req_t=auth_req_t, reply_token=0),
        size=auth_req_t.wire_size, timeout=0.5, max_attempts=5)


def run_suite(*, rats=("lte", "5g"), attaches: int = 150,
              shards: int = 2, spares: int = 1, seed: int = 11,
              revoke_every: int = 25, obs=None) -> dict:
    """Both RATs' cells plus the pass/fail gates CI enforces."""
    report = {
        "bench": "broker_ha",
        "shards": shards,
        "spares": spares,
        "attaches": attaches,
        "seed": seed,
        "heartbeat_interval_s": ShardFrontend.heartbeat_interval,
        "detection_timeout_s": ShardFrontend.detection_timeout,
        "cells": [run_cell(rat, attaches=attaches, shards=shards,
                           spares=spares, seed=seed,
                           revoke_every=revoke_every, obs=obs)
                  for rat in rats],
    }
    report["gates"] = gates(report)
    report["pass"] = all(entry["pass"] for entry in report["gates"])
    return report


#: the seeded --smoke drill (`run_suite(**SMOKE)`); `observe --bench
#: broker-ha --smoke` watches the same drill on the observatory's seed.
SMOKE = dict(attaches=80, seed=11)
OBSERVE_SMOKE = dict(SMOKE, seed=7)


def gates(report: dict) -> list:
    """What every cell of a :func:`run_suite` report must show."""
    out = []
    for cell in report["cells"]:
        rat, recovery = cell["rat"], cell["recovery_s"]
        out += [
            gate(f"{rat}:attach_success_rate", cell["success_rate"],
                 GATE_SUCCESS_RATE,
                 cell["success_rate"] >= GATE_SUCCESS_RATE),
            gate(f"{rat}:unauthorized_session_seconds",
                 cell["unauthorized_session_seconds"], 0.0,
                 cell["unauthorized_session_seconds"] == 0.0),
            gate(f"{rat}:replay_denied_across_failover",
                 cell["replay_denied_across_failover"], True,
                 cell["replay_denied_across_failover"]),
            gate(f"{rat}:failovers_exercised", cell["failovers_total"], 2,
                 cell["failovers_total"] >= 2),
            gate(f"{rat}:recovery_time", max(recovery, default=0.0),
                 RECOVERY_BOUND_S,
                 bool(recovery) and max(recovery) <= RECOVERY_BOUND_S),
        ]
    return out


def observe(rats=("lte", "5g"), *, smoke: bool = False,
            attaches: int = 150, seed: int = 7,
            interval: float = 0.5) -> dict:
    """Each RAT's cell under the fleet observatory's read-only KPI
    collector.  ``smoke`` runs :data:`OBSERVE_SMOKE` and adds what
    :func:`observe_gates` compares: a second run's KPI JSON per RAT."""
    from repro.obs.fleet import FleetKpiStore

    if smoke:
        attaches, seed = OBSERVE_SMOKE["attaches"], OBSERVE_SMOKE["seed"]

    def collected(rat):
        store = FleetKpiStore(f"broker-ha-{rat}")
        return store, run_cell(rat, attaches=attaches, seed=seed,
                               kpi_store=store, kpi_interval=interval)

    seen = {"config": {"attaches": attaches, "seed": seed,
                       "kpi_interval_s": interval, "rats": list(rats)},
            "runs": [collected(rat) for rat in rats]}
    if smoke:
        seen["rerun_kpi_json"] = [collected(rat)[0].to_json()
                                  for rat in rats]
    return seen


def observe_gates(seen: dict) -> list:
    """What a ``smoke`` :func:`observe` must show: identically-seeded
    runs emit byte-identical KPI JSON."""
    out = []
    for (store, cell), rerun in zip(seen["runs"], seen["rerun_kpi_json"]):
        same = store.to_json() == rerun
        out.append(gate(f"{cell['rat']}:kpi_json_identical_across_runs",
                        same, True, same))
    return out
