"""Metric catalogue: every name the ledger reports, with unit and
direction, and how the per-layer ones are read off a traced rep.

``BENCHMARK.json`` repeats :data:`END_TO_END` and :data:`PER_LAYER`
verbatim (``test_ledger.py`` keeps the two in step).  Two clocks, never
mixed: ``sim_*`` values are model outputs on the simulator clock and
must repeat exactly; everything else is host cost.
"""

from __future__ import annotations

#: (name, unit, better, bound) — host-clock metrics defined on every
#: workload and never zero; ``bound`` is the share of the parent's
#: median by which a later PR may worsen them.  Seconds here are
#: reference-host seconds (``calibrate.py``); per-layer seconds are raw,
#: with ``host.slowdown`` beside them.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: reported and compared by the ledger, but not in ``BENCHMARK.json``:
#: the seconds of one rep depend on how much work the seed deals (the
#: driver spreads its runs over seeds), work per second does not.
LEDGER_ONLY = (
    ("wall_s", "s", "lower", 0.2),
)

#: sim-clock KPIs (exact: any movement is a behaviour change); each is 0
#: on the workloads that do not define it (README, end-to-end table).
SIM = (
    ("sim_attach_p50_ms", "ms", "lower"),
    ("sim_attach_p99_ms", "ms", "lower"),
    ("sim_attach_per_s", "1/s", "higher"),
    ("sim_stall_p50_ms", "ms", "lower"),
    ("sim_stall_p95_ms", "ms", "lower"),
    ("sim_rpcs_per_handover", "ratio", "lower"),
    ("sim_unauthorized_s", "s", "lower"),
    ("sim_recovery_s", "s", "lower"),
    ("sim_goodput_mbps", "Mb/s", "higher"),
    ("sim_web_load_s", "s", "lower"),
)

_SELF_LAYERS = (
    "crypto", "net.sim", "net.link", "net.tcp", "net.mptcp", "net.quic",
    "net", "apps", "emulation", "lte.signaling", "lte", "fivegc",
    "core.sap", "core.broker", "core.shardhost", "core.btelco",
    "core.mobility", "core.billing", "core.ue", "ran", "obs", "testbed",
    "testbed.megaload",
)

_COUNTS = (
    ("crypto.calls", "count", "lower"),
    ("crypto.sign_calls", "count", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.decrypt_calls", "count", "lower"),
    ("crypto.encrypt_calls", "count", "lower"),
    ("crypto.keygen_calls", "count", "lower"),
    ("crypto.keygen_s", "s", "lower"),
    ("crypto.verify_cache_hit_ratio", "ratio", "higher"),
    ("crypto.ms_per_attach", "ms", "lower"),
    ("net.sim.events", "count", "lower"),
    ("net.sim.events_per_s", "1/s", "higher"),
    ("net.sim.peak_queue", "count", "lower"),
    ("net.sim.compactions", "count", "lower"),
    ("net.sim.tick_wakes", "count", "lower"),
    ("net.link.packets", "count", "lower"),
    ("net.link.drops", "count", "lower"),
    ("net.tcp.segments", "count", "lower"),
    ("net.tcp.retransmits", "count", "lower"),
    ("net.mptcp.subflows", "count", "lower"),
    ("net.mptcp.handovers", "count", "higher"),
    ("net.quic.segments", "count", "lower"),
    ("net.quic.retransmits", "count", "lower"),
    ("net.quic.migrations", "count", "higher"),
    ("emulation.handovers", "count", "higher"),
    ("lte.signaling.messages", "count", "lower"),
    ("lte.signaling.requests", "count", "lower"),
    ("lte.signaling.retransmits", "count", "lower"),
    ("lte.signaling.dedup_replays", "count", "lower"),
    ("lte.signaling.giveups", "count", "lower"),
    ("lte.wall_s", "s", "lower"),
    ("lte.attach_p50_ms", "ms", "lower"),
    ("lte.attach_p99_ms", "ms", "lower"),
    ("lte.stall_p50_ms", "ms", "lower"),
    ("fivegc.wall_s", "s", "lower"),
    ("fivegc.attach_p50_ms", "ms", "lower"),
    ("fivegc.attach_p99_ms", "ms", "lower"),
    ("fivegc.stall_p50_ms", "ms", "lower"),
    ("core.sap.requests", "count", "lower"),
    ("core.sap.replay_hits", "count", "lower"),
    ("core.sap.dup_served", "count", "lower"),
    ("core.sap.scoped_validations", "count", "higher"),
    ("core.broker.pipeline_batches", "count", "lower"),
    ("core.broker.pipeline_requests", "count", "higher"),
    ("core.broker.batch_fill", "ratio", "higher"),
    ("core.broker.cert_cache_hit_ratio", "ratio", "higher"),
    ("core.shardhost.forwarded", "count", "lower"),
    ("core.shardhost.failovers", "count", "lower"),
    ("core.shardhost.resyncs", "count", "lower"),
    ("core.shardhost.rebalances", "count", "lower"),
    ("core.shardhost.repl_ops", "count", "lower"),
    ("core.shardhost.degraded_denials", "count", "lower"),
    ("core.shardhost.parked_attaches", "count", "lower"),
    ("core.shardhost.handoff_chunks_retried", "count", "lower"),
    ("core.btelco.scoped_attaches", "count", "higher"),
    ("core.btelco.notices_sent", "count", "lower"),
    ("core.mobility.switches", "count", "higher"),
    ("core.billing.reports_ingested", "count", "lower"),
    ("ran.selector_steps", "count", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("obs.kpi_windows", "count", "lower"),
    ("testbed.megaload.build_s", "s", "lower"),
    ("testbed.megaload.actions", "count", "lower"),
    ("testbed.megaload.actions_per_s", "1/s", "higher"),
    ("testbed.megaload.broker_batches", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.prime_s", "s", "lower"),
    ("setup.keys_generated", "count", "lower"),
    ("setup.keygen_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.rss_growth_mb", "MB", "lower"),
    ("host.gc_collections", "count", "lower"),
    ("host.unattributed_frac", "ratio", "lower"),
    ("host.trace_overhead_frac", "ratio", "lower"),
)

#: (name, unit, better) for every per-layer metric, ``sim_*`` included
#: (the driver's schema has no exact bound, so they ride here and are
#: gated by digest checks and ``run.py compare``).
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in _SELF_LAYERS]
    + list(_COUNTS) + list(SIM))

BETTER = {name: better for name, _, better, *_
          in END_TO_END + LEDGER_ONLY + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _attr_sum(instances, attr: str) -> int:
    return sum(getattr(obj, attr) for obj in instances)


def layer_metrics(summary: dict, seen: dict, outcome: dict,
                  wall_s: float, cache_before: dict,
                  cache_after: dict) -> dict:
    """Per-layer metrics of one traced rep (everything except the
    ``setup.*`` and ``host.*`` rows, which ``run.py`` owns).

    ``summary`` is :meth:`trace.Recorder.summary`; ``seen`` the instances
    captured at patched boundaries, whose **public** counters are read
    here; ``outcome`` the workload's own report.
    """
    self_s, calls, total = \
        summary["self_s"], summary["calls"], summary["total_s"]
    reports = outcome["reports"]
    out = {f"{layer}.self_s": self_s.get(layer, 0.0)
           for layer in _SELF_LAYERS}

    def n(name: str) -> int:
        return calls.get(name, 0)

    def objs(label: str) -> list:
        return list(seen.get(label, {}).values())

    # -- crypto -----------------------------------------------------------
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    out.update({
        "crypto.calls": summary["entries"].get("crypto", 0),
        "crypto.sign_calls": n("PrivateKey.sign"),
        "crypto.verify_calls": n("PublicKey.verify"),
        "crypto.decrypt_calls": n("PrivateKey.decrypt"),
        "crypto.encrypt_calls": n("PublicKey.encrypt"),
        "crypto.keygen_calls": n("generate_keypair"),
        "crypto.keygen_s": total.get("generate_keypair", 0.0),
        "crypto.verify_cache_hit_ratio": _ratio(hits, hits + misses),
        # attempted = attaches (storm, failover) or re-attaches (fleet).
        "crypto.ms_per_attach":
            _ratio(out["crypto.self_s"] * 1000.0, outcome["attempted"]),
    })
    # -- event engine -----------------------------------------------------
    sims = objs("Simulator")
    events = summary["children"].get("Simulator.run", 0)
    out.update({
        "net.sim.events": events,
        "net.sim.events_per_s": _ratio(events, wall_s),
        "net.sim.peak_queue": max((s.peak_queue for s in sims), default=0),
        "net.sim.compactions": _attr_sum(sims, "compactions"),
        "net.sim.tick_wakes": n("TickCalendar._fire"),
        "net.link.packets": n("Link.send_from"),
        "net.link.drops": summary["falsy"].get("Link.send_from", 0),
    })
    # -- transports -------------------------------------------------------
    tcp = [c.stats for c in objs("TcpConnection")]
    mptcp = {id(e): e for label in ("MptcpEndpoint", "MptcpConnection",
                                    "MptcpServerConnection")
             for e in objs(label)}.values()
    quic = {id(e): e for label in ("QuicEndpoint", "QuicServerConnection")
            for e in objs(label)}.values()
    out.update({
        "net.tcp.segments": _attr_sum(tcp, "segments_received"),
        "net.tcp.retransmits": _attr_sum(tcp, "retransmissions"),
        "net.mptcp.subflows": _attr_sum(mptcp, "subflow_count"),
        "net.mptcp.handovers": sum(
            getattr(e, "handover_count", 0) for e in mptcp),
        "net.quic.segments": _attr_sum(quic, "stats_packets_sent"),
        "net.quic.retransmits": _attr_sum(quic, "stats_packets_lost"),
        "net.quic.migrations": _attr_sum(quic, "migrations"),
        "emulation.handovers": n("CellularPath.detach"),
    })
    # -- signaling --------------------------------------------------------
    nodes = objs("SignalingNode")
    out.update({
        "lte.signaling.messages": _attr_sum(nodes, "messages_sent"),
        "lte.signaling.requests": _attr_sum(nodes, "requests_sent"),
        "lte.signaling.retransmits": _attr_sum(nodes, "retransmissions"),
        "lte.signaling.dedup_replays":
            _attr_sum(nodes, "dup_responses_replayed"),
        "lte.signaling.giveups": _attr_sum(nodes, "requests_failed"),
    })
    for rat in ("lte", "fivegc"):
        kpis = outcome["rat"].get(rat, {})
        out[f"{rat}.wall_s"] = outcome["rat_wall_s"].get(rat, 0.0)
        for key in ("attach_p50_ms", "attach_p99_ms", "stall_p50_ms"):
            out[f"{rat}.{key}"] = kpis.get(key, 0.0)
    # -- broker: SAP state machine, pipeline, shard hosts -----------------
    saps = [sap.stats() for sap in objs("BrokerSap")]
    brokers = [node.stats() for node in nodes
               if hasattr(node, "configure_pipeline")]
    batches = sum(b["pipeline_batches"] for b in brokers)
    requests = sum(b["pipeline_requests"] for b in brokers)
    cert_hits = sum(b["cert_cache_hits"] for b in brokers)
    auths = n("BrokerSap.process_request") + n("BrokerSap.prevalidate")
    out.update({
        "core.sap.requests": auths,
        "core.sap.replay_hits": sum(s["replay_hits"] for s in saps),
        "core.sap.dup_served": sum(s["dup_requests_served"] for s in saps),
        "core.sap.scoped_validations": n("BtelcoSap.validate_scoped_attach"),
        "core.broker.pipeline_batches": batches,
        "core.broker.pipeline_requests": requests,
        "core.broker.batch_fill": _ratio(requests, batches),
        "core.broker.cert_cache_hit_ratio": _ratio(cert_hits, auths),
    })
    fronts = [f.stats() for f in objs("ShardFrontend")]
    hosts = [h for f in fronts for h in f["hosts"].values()]
    out.update({
        "core.shardhost.forwarded": n("ShardFrontend.handle_auth"),
        "core.shardhost.failovers":
            sum(f["failovers_total"] for f in fronts),
        "core.shardhost.resyncs": sum(f["resyncs_total"] for f in fronts),
        "core.shardhost.rebalances":
            sum(f["rebalances_total"] for f in fronts),
        "core.shardhost.repl_ops":
            sum(h["repl_ops_applied"] for h in hosts),
        "core.shardhost.degraded_denials":
            sum(f["degraded_denials"] for f in fronts),
        "core.shardhost.parked_attaches":
            sum(f["parked_attaches"] for f in fronts),
        "core.shardhost.handoff_chunks_retried":
            sum(f["handoff_chunks_retried"] for f in fronts),
    })
    # -- mobility, billing, RAN, obs, megaload ----------------------------
    out.update({
        "core.btelco.scoped_attaches": reports.get("scoped_attaches", 0),
        "core.btelco.notices_sent": reports.get("notices_sent", 0),
        "core.mobility.switches": n("MobilityManager.switch_to"),
        "core.billing.reports_ingested": n("BillingVerifier.ingest"),
        "ran.selector_steps": n("CellSelector.step"),
        "obs.spans_recorded": reports.get("obs_spans", 0),
        "obs.kpi_windows": reports.get("kpi_windows", 0),
        "testbed.megaload.build_s": reports.get("build_s", 0.0),
        "testbed.megaload.actions": reports.get("actions", 0),
        "testbed.megaload.actions_per_s":
            _ratio(reports.get("actions", 0), wall_s),
        "testbed.megaload.broker_batches": reports.get("broker_batches", 0),
    })
    out.update({name: outcome["sim"].get(name, 0.0) for name, *_ in SIM})
    return out
