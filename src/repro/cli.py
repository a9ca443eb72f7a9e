"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro fig7 [--trials N] [--rat lte|5g]
    python -m repro table1 [--scale S] [--routes suburb,downtown]
    python -m repro fig8
    python -m repro fig9 [--duration S]
    python -m repro fig10 [--duration S] [--single-drive]
    python -m repro attach [--arch BL|CB] [--placement local|us-west-1|...]
    python -m repro chaos [--smoke] [--rat lte|5g]
    python -m repro trace [--scenario attach|chaos] [--format jsonl|chrome|summary]
    python -m repro metrics [--scenario attach|chaos]
    python -m repro report [--scale S] [--output report.md]
    python -m repro broker-scale|broker-ha|fleet-drive|megaload|observe [--smoke]

Each subcommand prints the same rows/series the corresponding benchmark
produces, without the pytest machinery.  ``--smoke`` runs the seeded
configuration declared beside the bench's testbed and exits non-zero
unless its ``gates(report)`` all hold (:func:`_finish`).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.testbed import run_figure7

    if args.trace:
        return _fig7_traced(args)
    print(f"Fig 7 - attachment latency breakdown ({args.trials} trials, "
          f"{args.rat})")
    print(f"{'placement':11s} {'arch':4s} {'total':>8s} {'agw+brokerd':>12s} "
          f"{'enb':>6s} {'ue':>6s} {'other':>8s}")
    for result in run_figure7(trials=args.trials, rat=args.rat):
        print(f"{result.placement:11s} {result.arch:4s} "
              f"{result.total_ms:8.2f} {result.agw_brokerd_ms:12.2f} "
              f"{result.enb_ms:6.2f} {result.ue_ms:6.2f} "
              f"{result.other_ms:8.2f}")
    return 0


def _fig7_traced(args: argparse.Namespace) -> int:
    """Fig 7 from the *trace*: per-leg breakdown measured out of the
    recorded span trees rather than the module-time accounting.  The four
    legs sum exactly to the end-to-end latency by construction; with
    ``--obs-output`` the per-leg p50/p99 land in ``BENCH_obs.json``."""
    import json

    from repro.analysis import percentile
    from repro.obs.export import LEG_NAMES, attach_leg_breakdown, \
        mean_leg_breakdown
    from repro.testbed import run_traced_attach

    print(f"Fig 7 - traced per-leg breakdown ({args.trials} trials, "
          f"{args.rat})")
    print(f"{'placement':11s} {'arch':4s} {'total':>8s} {'ue':>7s} "
          f"{'transit':>8s} {'btelco':>7s} {'broker':>7s} {'(enb)':>7s}")
    bench: dict = {}
    for placement in ("local", "us-west-1", "us-east-1"):
        for arch in ("BL", "CB"):
            _, obs, _ = run_traced_attach(arch=arch, placement=placement,
                                          trials=args.trials, rat=args.rat)
            breakdowns = attach_leg_breakdown(obs.tracer.spans())
            legs = mean_leg_breakdown(breakdowns)
            if legs is None:
                print(f"{placement:11s} {arch:4s}  (no completed attaches "
                      "in trace)")
                continue
            print(f"{placement:11s} {arch:4s} {legs['total_ms']:8.2f} "
                  f"{legs['ue_crypto_ms']:7.2f} "
                  f"{legs['radio_nas_transit_ms']:8.2f} "
                  f"{legs['btelco_verify_ms']:7.2f} "
                  f"{legs['broker_verify_sign_ms']:7.2f} "
                  f"{legs['enb_ms']:7.2f}")
            cell = {"trials": len(breakdowns), "mean": legs}
            for key in ("total_ms",) + LEG_NAMES:
                values = [b[key] for b in breakdowns]
                cell[key] = {"p50": round(percentile(values, 50), 6),
                             "p99": round(percentile(values, 99), 6)}
            bench[f"{arch}@{placement}"] = cell
    if args.obs_output:
        with open(args.obs_output, "w") as handle:
            handle.write(json.dumps(bench, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.obs_output}")
    return 0


def _chaos_obs_run(args: argparse.Namespace, obs) -> None:
    """One seeded chaos run (the --smoke churn and fault script, resized
    by ``--attaches``/``--loss``) recording into ``obs`` — shared by the
    ``trace`` and ``metrics`` subcommands."""
    from repro.emulation import chaos

    config = dict(chaos.SMOKE, seed=args.seed)
    if args.attaches is not None:
        config["attaches"] = args.attaches
    if args.loss is not None:
        config["base_loss"] = args.loss
    chaos.run_chaos(schedule=chaos.smoke_schedule(), obs=obs, rat=args.rat,
                    **config)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced scenario and export its span tree."""
    import json

    from repro.obs import Obs
    from repro.obs.export import (
        LEG_NAMES,
        attach_leg_breakdown,
        mean_leg_breakdown,
        spans_to_chrome,
        spans_to_jsonl,
        summarize,
    )

    obs = Obs()
    if args.scenario == "attach":
        from repro.testbed import run_traced_attach

        run_traced_attach(arch=args.arch, placement=args.placement,
                          trials=args.trials, seed=args.seed, obs=obs,
                          rat=args.rat)
    else:
        _chaos_obs_run(args, obs)

    spans = obs.tracer.spans()
    if args.format == "jsonl":
        text = spans_to_jsonl(spans)
    elif args.format == "chrome":
        text = json.dumps(spans_to_chrome(spans), sort_keys=True,
                          separators=(",", ":")) + "\n"
    else:
        lines = [summarize(spans)]
        legs = mean_leg_breakdown(attach_leg_breakdown(spans))
        if legs is not None:
            lines.append("")
            lines.append(f"mean attach legs ({args.scenario}): "
                         f"total {legs['total_ms']:.2f} ms")
            for key in LEG_NAMES:
                lines.append(f"  {key:24s} {legs[key]:8.2f} ms")
        if obs.tracer.spans_dropped:
            lines.append(f"({obs.tracer.spans_dropped} oldest spans "
                         "dropped by the ring buffer)")
        text = "\n".join(lines) + "\n"

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(spans)} spans)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a scenario metrics-only and print the fleet-wide registry
    snapshot (counters/gauges as numbers, histograms as summaries)."""
    import json

    from repro.obs import Obs

    obs = Obs(tracing=False)
    if args.scenario == "attach":
        from repro.testbed import run_traced_attach

        run_traced_attach(arch=args.arch, placement=args.placement,
                          trials=args.trials, seed=args.seed, obs=obs,
                          rat=args.rat)
    else:
        _chaos_obs_run(args, obs)
    print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_attach(args: argparse.Namespace) -> int:
    from repro.testbed import run_attach_benchmark

    result = run_attach_benchmark(args.arch, args.placement,
                                  trials=args.trials, rat=args.rat)
    print(f"{args.arch} @ {args.placement} ({args.rat}): "
          f"{result.total_ms:.2f} ms "
          f"(agw+brokerd {result.agw_brokerd_ms:.2f}, enb "
          f"{result.enb_ms:.2f}, ue {result.ue_ms:.2f}, other "
          f"{result.other_ms:.2f})")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.emulation import render_table1, run_table1

    routes = tuple(args.routes.split(",")) if args.routes else \
        ("suburb", "downtown", "highway")
    result = run_table1(seed=args.seed, duration_scale=args.scale,
                        routes=routes)
    print(render_table1(result))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.analysis import timeline
    from repro.emulation import run_figure8

    result = run_figure8()
    print(f"Fig 8 - handover at t={result.handover_at:.1f}s")
    print("\nMNO (TCP):")
    print(timeline(result.mno_mbps, markers=[int(result.handover_at)]))
    print("\nCellBricks (MPTCP):")
    print(timeline(result.cb_mbps, markers=[int(result.handover_at)]))
    print(f"\n{'bin':>9s} {'MNO Mbps':>9s} {'CB Mbps':>9s}")
    for t, mno, cb in zip(result.timestamps, result.mno_mbps,
                          result.cb_mbps):
        print(f"[{t - 1:3.0f},{t:3.0f}) {mno:9.2f} {cb:9.2f}")
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.emulation import run_figure9

    result = run_figure9(duration=args.duration)
    header = "elapsed(s) " + "".join(f"{name:>12s}" for name in result.series)
    print(header)
    for index, window in enumerate(result.windows):
        print(f"{window:>9d}  " + "".join(
            f"{series[index]:>11.1f}%" for series in result.series.values()))
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from repro.analysis import sparkline
    from repro.emulation import run_figure10, run_figure10_single_drive

    if args.single_drive:
        result = run_figure10_single_drive(
            duration=args.duration, switch_at=args.duration / 2)
        print("single drive crossing the ~00:30 policy switch "
              f"at t={args.duration / 2:.0f}s:")
    else:
        result = run_figure10(duration=args.duration)
    top = max(result.night_mbps) if result.night_mbps else 1.0
    print("day   " + sparkline(result.day_mbps[:100], maximum=top))
    print("night " + sparkline(result.night_mbps[:100], maximum=top))
    print(f"{'':8s}{'avg Mbps':>9s} {'std':>7s} {'peak':>7s}")
    print(f"{'day':8s}{result.day_avg:9.2f} {result.day_std:7.2f} "
          f"{result.day_peak:7.2f}")
    print(f"{'night':8s}{result.night_avg:9.2f} {result.night_std:7.2f} "
          f"{result.night_peak:7.2f}")
    return 0


def _rats(args: argparse.Namespace) -> tuple:
    return ("lte", "5g") if args.rat == "both" else (args.rat,)


def _finish(gates: list, output, text: str, out=None) -> int:
    """Where every gated bench ends: print each gate, write the report,
    and let the gates decide the exit code.  What must hold is declared
    beside each testbed (``gates(report)``), never here."""
    for entry in gates:
        print(f"{'ok  ' if entry['pass'] else 'FAIL'} {entry['gate']}: "
              f"{entry['value']} (threshold {entry['threshold']})",
              file=out)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        print(f"wrote {output}", file=out)
    return 0 if all(entry["pass"] for entry in gates) else 1


def _cmd_broker_scale(args: argparse.Namespace) -> int:
    """Sweep concurrent attaches x shard count through one brokerd.

    Each (rat, concurrency) pair runs a serial single-shard baseline
    cell plus pipelined cells at every ``--shards`` value; the report
    (``BENCH_broker_scale.json``) carries every cell and the pipeline
    vs baseline speedups.  ``--smoke`` runs ``broker_scale.SMOKE`` and
    must hold ``broker_scale.gates``."""
    import json

    from repro.testbed import broker_scale

    if args.smoke:
        config = broker_scale.SMOKE
    else:
        config = dict(
            concurrencies=tuple(int(c) for c in args.concurrency.split(",")),
            shard_counts=tuple(int(s) for s in args.shards.split(",")),
            sites=args.sites, adaptive_window=args.adaptive_window)
    report = broker_scale.run_sweep(rats=_rats(args), **config)

    print(f"{'rat':4s} {'N':>4s} {'mode':9s} {'shards':>6s} {'ok':>4s} "
          f"{'p50 ms':>8s} {'p99 ms':>8s} {'att/s':>8s}")
    for cell in report["cells"]:
        mode = "pipeline" if cell["pipeline"] else "serial"
        print(f"{cell['rat']:4s} {cell['concurrency']:4d} {mode:9s} "
              f"{cell['shards']:6d} "
              f"{cell['attached']:4d} {cell['p50_ms']:8.2f} "
              f"{cell['p99_ms']:8.2f} {cell['attaches_per_sec']:8.1f}")
    for row in report["speedups"]:
        print(f"speedup {row['rat']} N={row['concurrency']} "
              f"shards={row['shards']}: {row['speedup']:.2f}x "
              f"({row['baseline_attaches_per_sec']:.1f} -> "
              f"{row['pipeline_attaches_per_sec']:.1f} att/s)")
    return _finish(broker_scale.gates(report) if args.smoke else [],
                   args.output, json.dumps(report, indent=2, sort_keys=True))


def _cmd_broker_ha(args: argparse.Namespace) -> int:
    """High-availability drill for the distributed broker (BROKER-HA).

    Deploys the broker's SAP shards onto network-attached shard hosts
    (primary + warm replica each), runs attach/revoke churn, and kills
    shard hosts mid-storm and mid-rebalance.  Every run must hold
    ``broker_ha.gates``; ``--smoke`` runs ``broker_ha.SMOKE``."""
    import json

    from repro.testbed import broker_ha

    config = broker_ha.SMOKE if args.smoke else dict(
        attaches=args.attaches, shards=args.shards, spares=args.spares,
        seed=args.seed, revoke_every=args.revoke_every)
    report = broker_ha.run_suite(rats=_rats(args), **config)

    for cell in report["cells"]:
        print(f"{cell['rat']}: {cell['successes']}/{cell['attempts']} "
              f"attaches ({cell['success_rate']:.2%}), "
              f"{cell['failovers_total']} failovers "
              f"(recovery {max(cell['recovery_s'], default=0.0):.2f}s), "
              f"{cell['rebalances_total']} rebalances "
              f"(moved {sum(r['moved'] for r in cell['rebalance_log'])}), "
              f"replay denied: {cell['replay_denied_across_failover']}, "
              f"unauthorized s: {cell['unauthorized_session_seconds']}")
    return _finish(report["gates"], args.output,
                   json.dumps(report, indent=2, sort_keys=True))


def _cmd_fleet_drive(args: argparse.Namespace) -> int:
    """Fleet drive over the geometric RAN (FLEET-DRIVE).

    A fleet of UEs drives a corridor of randomly-assigned operator
    cells; emergent A3 handovers feed ``MobilityManager.switch_to``.
    Scoped cells re-attach with broker-signed mobility grants (target:
    zero broker auth RPCs per handover); scopes-disabled cells pay a
    full authReqU per handover.  Mid-drive one operator's towers go
    dark, producing an attach storm.  Every run must hold
    ``fleet_drive.gates``; ``--smoke`` runs ``fleet_drive.SMOKE``."""
    import json

    from repro.testbed import fleet_drive

    config = fleet_drive.SMOKE if args.smoke else dict(
        ues=args.ues, duration=args.duration, seed=args.seed,
        sites=args.sites)
    report, gates = fleet_drive.run_fleet_suite(rats=_rats(args), **config)

    for cell in report["cells"]:
        mode = "scoped" if cell["scoped"] else "plain "
        mttho = cell["mttho_s"]["fleet_mean_s"]
        print(f"{cell['rat']:>3} {mode}: "
              f"{cell['operator_handovers']} op-handovers "
              f"({cell['ran_handovers']} RAN), "
              f"auth RPCs {cell['broker_auth_rpcs']} "
              f"({cell['rpcs_per_handover'] or 0:.2f}/ho), "
              f"MTTHO {mttho if mttho is not None else float('nan'):.1f}s, "
              f"stall p50 {cell['stall_ms']['p50'] or 0:.1f}ms "
              f"p95 {cell['stall_ms']['p95'] or 0:.1f}ms, "
              f"storm ho {cell['storm'].get('handovers', 0)} "
              f"rpcs {cell['storm'].get('broker_auth_rpcs', 0)}, "
              f"unauth {cell['unauthorized_session_s']}s")
    return _finish(gates, args.output,
                   json.dumps(report, indent=2, sort_keys=True))


def _cmd_megaload(args: argparse.Namespace) -> int:
    """Population-scale workload over the event engine (MEGALOAD).

    Drives ``--ues`` scripted UEs across ``--sites`` bTelco sites with
    arrival, mobility, and diurnal models on the tick calendar.  The
    report (``BENCH_megaload.json``) carries the cell's deterministic
    workload digest and its wall-clock figures (reported, never gated).
    ``--real-fraction`` samples that slice of the population into the
    full-fidelity SAP cohort (``--real-rat``/``--real-sites`` shape it)
    and has the scripted broker charge brokerd's calibrated per-attach
    cost.  ``--smoke`` runs ``megaload.smoke`` — the pinned cell plus
    the pinned mixed-fidelity micro-cell — and must hold
    ``megaload.gates``."""
    import json

    from repro.testbed import megaload

    kpi_store = None
    if args.kpi_output:
        from repro.obs.fleet import FleetKpiStore

        kpi_store = FleetKpiStore("megaload-cohorts")
    if args.smoke:
        report = megaload.smoke(kpi_store=kpi_store)
    else:
        report = megaload.run_megaload(
            ues=args.ues, sites=args.sites, duration=args.duration,
            tick=args.tick, seed=args.seed,
            real_fraction=args.real_fraction, real_rat=args.real_rat,
            real_sites=args.real_sites, kpi_store=kpi_store)

    print(f"{'UEs':>9s} {'UEs/s':>10s} {'actions/s':>11s} "
          f"{'wall s':>8s} {'s/sim-s':>9s} {'RSS MB':>8s} "
          f"{'events':>9s} {'compact':>7s}")
    for cell in report["cells"] + ([report["mixed"]] if args.smoke else []):
        perf, workload = cell["perf"], cell["workload"]
        print(f"{workload['ues']:9d} {perf['ues_per_sec']:10.0f} "
              f"{perf['actions_per_sec']:11.0f} {perf['wall_s']:8.2f} "
              f"{perf['wall_per_sim_second']:9.5f} "
              f"{perf['peak_rss_mb']:8.1f} "
              f"{perf['events_processed']:9d} "
              f"{perf['heap_compactions']:7d}")
        print(f"  attach_ok={workload['attach_ok']} "
              f"failures={workload['attach_failures']} "
              f"moves={workload['moves']} "
              f"idle_detaches={workload['idle_detaches']} "
              f"batches={workload['broker_batches']} "
              f"full_flushes={workload['broker_full_flushes']} "
              f"rss/ue={perf['rss_per_ue_bytes']:.0f}B "
              f"digest={cell['digest'][:12]}")
        cohort = workload.get("real_cohort")
        if cohort:
            print(f"  real cohort: {cohort['count']} {cohort['rat']} UEs "
                  f"on {cohort['sites']} sites "
                  f"attach_ok={cohort['attach_ok']} "
                  f"failures={cohort['attach_failures']} "
                  f"attach p50={cohort['attach_ms_p50']:.1f}ms "
                  f"p99={cohort['attach_ms_p99']:.1f}ms")
    if kpi_store is not None:
        kpi_store.write_json(args.kpi_output)
        print(f"wrote {args.kpi_output}")
    return _finish(megaload.gates(report) if args.smoke else [],
                   args.output, json.dumps(report, indent=2, sort_keys=True))


#: curated dashboard rows per observed bench (everything else is still
#: in the KPI JSON; these are the ones worth terminal space).
_OBSERVE_DASH_KEYS = {
    "megaload": ["workload.arrived_per_s", "workload.attach_ok_per_s",
                 "workload.attach_failures_per_s",
                 "workload.idle_detaches_per_s", "broker.requests_per_s",
                 "broker.batches_per_s", "sites.attached_total",
                 "sites.max_load", "sites.loaded_sites"],
    "broker-ha": ["brokerd.approved_per_s", "brokerd.denied_per_s",
                  "frontend.failovers", "frontend.degraded_denials",
                  "frontend.forward_giveups", "shards.pending_forwards"],
}


def _cmd_observe(args: argparse.Namespace) -> int:
    """Fleet observatory: live KPI aggregation over a running bench.

    Attaches a read-only :class:`~repro.obs.fleet.KpiCollector` to the
    chosen bench (``megaload`` or ``broker-ha``), samples windowed KPIs
    on the *sim clock* (attaches/sec, per-shard load, replication lag,
    degraded denials), and renders them as a terminal dashboard plus
    deterministic JSON (and optional HTML) artifacts.  ``--smoke`` runs
    the bench's ``OBSERVE_SMOKE`` and must hold its ``observe_gates``:
    the collector is passive, deterministic, and costs exactly one
    event per window."""
    import json

    window = {"interval": args.interval} if args.interval else {}
    if args.bench == "megaload":
        from repro.testbed import megaload as bench

        config = {} if args.smoke else dict(
            ues=args.ues, sites=args.sites, duration=args.duration,
            seed=args.seed)
        seen = bench.observe(smoke=args.smoke, **window, **config)
        stores = [seen["store"]]
        report = {"bench": "megaload", "config": seen["config"],
                  "digest": seen["cell"]["digest"],
                  "kpis": json.loads(seen["store"].to_json())}
    else:
        from repro.testbed import broker_ha as bench

        seen = bench.observe(_rats(args), smoke=args.smoke, seed=args.seed,
                             **window)
        stores = [store for store, _ in seen["runs"]]
        report = {"bench": "broker-ha", "config": seen["config"],
                  "cells": [{"rat": cell["rat"],
                             "success_rate": cell["success_rate"],
                             "failovers_total": cell["failovers_total"],
                             "degraded_denials": cell["degraded_denials"],
                             "kpis": json.loads(store.to_json())}
                            for store, cell in seen["runs"]]}
        for _, cell in seen["runs"]:
            print(f"{cell['rat']}: {cell['successes']}/{cell['attempts']} "
                  f"attaches, {cell['failovers_total']} failovers, "
                  f"{cell['degraded_denials']} degraded denials")
    for store in stores:
        keys = set(store.keys())
        curated = [key for key in _OBSERVE_DASH_KEYS[args.bench]
                   if key in keys]
        extra = sorted(key for key in keys
                       if key.endswith(("repl_lag_s", "health")))
        print(store.dashboard(keys=curated + extra))
    if args.html:
        with open(args.html, "w") as fh:
            fh.write("\n<hr>\n".join(store.to_html() for store in stores))
        print(f"wrote {args.html}")
    return _finish(
        bench.observe_gates(seen) if args.smoke else [], args.output,
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_churn(args: argparse.Namespace) -> int:
    """Attach-churn the broker and print its lifecycle counters.

    Runs ``--attaches`` full SAP exchanges against one BrokerSap with a
    short session TTL, rotating subscribers and (optionally) revoking
    some mid-run, then reports the counters and peak state sizes — the
    bounded-memory evidence for the session-lifecycle machinery.
    """
    from repro.core.qos import QosCapabilities
    from repro.core.sap import (
        BrokerSap,
        BrokerSubscriber,
        BtelcoSap,
        BtelcoSapConfig,
        SapError,
        UeSap,
        UeSapCredentials,
    )
    from repro.crypto import CertificateAuthority
    from repro.crypto.keypool import pooled_keypair

    ca = CertificateAuthority(key=pooled_keypair(930))
    broker_key = pooled_keypair(931)
    telco_key = pooled_keypair(932)
    ue_key = pooled_keypair(933)
    cert = ca.issue("t.churn", "btelco", telco_key.public_key)
    broker = BrokerSap(id_b="b.churn", key=broker_key,
                       ca_public_key=ca.public_key, session_ttl=args.ttl)
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t.churn", key=telco_key, certificate=cert,
        qos_capabilities=QosCapabilities(), ca_public_key=ca.public_key))
    ues = []
    for index in range(args.subscribers):
        id_u = f"sub-{index}"
        broker.enroll(BrokerSubscriber(id_u=id_u,
                                       public_key=ue_key.public_key))
        ues.append(UeSap(UeSapCredentials(
            id_u=id_u, id_b="b.churn", ue_key=ue_key,
            broker_public_key=broker_key.public_key)))

    peak_nonces = peak_grants = 0
    for attach in range(args.attaches):
        now = attach * args.interval
        index = attach % args.subscribers
        req_t = telco.augment_request(
            ues[index].craft_request("t.churn"))
        try:
            broker.process_request(req_t, now=now)
        except SapError:
            pass
        if args.revoke_every and (attach + 1) % args.revoke_every == 0:
            broker.revoke(f"sub-{index}")
            # A real broker re-enrolls under a fresh identity/key; reuse
            # the slot so the churn keeps exercising the same pool.
            broker.enroll(BrokerSubscriber(id_u=f"sub-{index}",
                                           public_key=ue_key.public_key))
        peak_nonces = max(peak_nonces,
                          broker.stats()["replay_cache_size"])
        peak_grants = max(peak_grants, broker.grants_active)

    stats = broker.stats()
    active_bound = int(args.ttl / args.interval) + 1
    print(f"attach churn: {args.attaches} attaches, ttl {args.ttl:.0f}s, "
          f"{args.interval:.2f}s apart, {args.subscribers} subscribers")
    for key in ("attach_ok", "replay_hits", "grants_active",
                "grants_expired", "grants_revoked", "replay_cache_size"):
        print(f"  {key:18s} {stats[key]}")
    for cause, count in sorted(stats["attach_denied"].items()):
        print(f"  denied[{cause}]    {count}")
    print(f"  peak replay cache  {peak_nonces} (bound {active_bound})")
    print(f"  peak grants        {peak_grants} (bound {active_bound})")
    bounded = peak_nonces <= active_bound and peak_grants <= active_bound
    print("state bounded by active sessions: "
          + ("yes" if bounded else "NO - UNBOUNDED GROWTH"))
    return 0 if bounded else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Attach/revoke churn under a fault script; print (or emit as JSON)
    the reliability metrics.  Every run must hold ``chaos.gates``
    (unauthorized-session-seconds exactly 0).

    ``--smoke`` runs ``chaos.SMOKE`` under ``chaos.smoke_schedule()`` —
    steady loss on every link, a broker-link outage and a broker
    brown-out mid-run, periodic revocations — adds the RAT's attach
    success bar, and writes ``BENCH_chaos.json``.
    """
    import json

    from repro.emulation import chaos

    if args.smoke:
        config, schedule = chaos.SMOKE, chaos.smoke_schedule()
    else:
        config = dict(attaches=args.attaches, seed=args.seed,
                      revoke_every=args.revoke_every, base_loss=args.loss)
        schedule = chaos.ChaosSchedule()
        if args.outage_len > 0.0 and args.outage_at > 0.0:
            schedule.add(chaos.outage(args.outage_at, args.outage_len,
                                      target="*-broker"))
        if args.burst_loss > 0.0 and args.burst_at > 0.0:
            schedule.add(chaos.loss_burst(args.burst_at, args.burst_len,
                                          args.burst_loss))
        if args.brownout_len > 0.0 and args.brownout_at > 0.0:
            schedule.add(chaos.brownout(args.brownout_at, args.brownout_len,
                                        factor=args.brownout_factor))
    if args.rat == "5g" and args.output == "BENCH_chaos.json":
        args.output = "BENCH_5g.json"

    report = chaos.run_chaos(schedule=schedule, rat=args.rat, **config)
    payload = report.to_dict()
    gates = chaos.gates(payload, smoke=args.smoke)
    payload["violations"] = [
        f"{entry['gate']} = {entry['value']} (threshold "
        f"{entry['threshold']})" for entry in gates if not entry["pass"]]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if not args.json:
        print(f"chaos churn: {report.attempts} attaches, "
              f"{len(schedule)} scripted faults, "
              f"steady loss {config['base_loss']:.0%}, "
              f"seed {config['seed']}")
        print(f"  success rate        {report.success_rate:7.2%} "
              f"({report.successes}/{report.attempts})")
        print(f"  attach p50 / p99    {report.attach_p50_ms:.2f} / "
              f"{report.attach_p99_ms:.2f} ms")
        print(f"  retransmissions     {report.retransmissions} "
              f"(nas {report.nas_retransmissions}, accept "
              f"{report.accept_retransmissions}, signaling "
              f"{report.signaling_retransmissions})")
        print(f"  revocations         {report.revocations} "
              f"(batches acked "
              f"{report.broker_stats['revocation_batches_acked']}, "
              f"retried "
              f"{report.broker_stats['revocation_batches_retried']}, "
              f"outstanding "
              f"{report.broker_stats['revocation_batches_outstanding']})")
        hist = report.latency_histogram
        if hist.get("count"):
            print(f"  latency histogram   n={hist['count']}, mean "
                  f"{hist['mean']:.2f} ms, p50/p99 {hist['p50']:.2f}/"
                  f"{hist['p99']:.2f} ms, max {hist['max']:.2f} ms")
        print(f"  unauthorized        "
              f"{report.unauthorized_session_seconds:.3f} session-seconds")
        for cause, count in sorted(report.failure_causes.items()):
            print(f"  failed[{cause}]  {count}")
    elif not args.smoke:
        sys.stdout.write(text)
    # With --json stdout is the report alone; gate lines go to stderr.
    return _finish(gates, args.output if args.smoke else None, text,
                   out=sys.stderr if args.json else None)


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a scaled-down version of every paper experiment and emit one
    self-contained markdown report (the artifact-evaluation one-shot)."""
    from repro.emulation import (
        render_table1,
        run_figure8,
        run_figure10,
        run_table1,
    )
    from repro.testbed import run_figure7

    scale = args.scale
    lines = ["# CellBricks reproduction report", ""]
    lines.append(f"Generated by `python -m repro report --scale {scale}`; "
                 "all runs seeded and deterministic.")
    lines.append("")

    lines.append("## Fig 7 — attachment latency (ms)")
    lines.append("")
    lines.append("| placement | arch | total | agw+brokerd | enb | ue | other |")
    lines.append("|---|---|---|---|---|---|---|")
    for result in run_figure7(trials=max(5, int(100 * scale))):
        lines.append(
            f"| {result.placement} | {result.arch} | {result.total_ms:.2f} "
            f"| {result.agw_brokerd_ms:.2f} | {result.enb_ms:.2f} "
            f"| {result.ue_ms:.2f} | {result.other_ms:.2f} |")
    lines.append("")

    lines.append("## Table 1 — application performance")
    lines.append("")
    lines.append("```")
    lines.append(render_table1(run_table1(duration_scale=scale)))
    lines.append("```")
    lines.append("")

    lines.append("## Fig 8 — throughput around a handover (Mbps/s bins)")
    fig8 = run_figure8()
    window = slice(max(0, int(fig8.handover_at) - 4),
                   int(fig8.handover_at) + 6)
    lines.append("")
    lines.append("| t (s) | MNO | CellBricks |")
    lines.append("|---|---|---|")
    for t, mno, cb in zip(fig8.timestamps[window], fig8.mno_mbps[window],
                          fig8.cb_mbps[window]):
        marker = " ← handover" if t - 1 <= fig8.handover_at < t else ""
        lines.append(f"| {t - 1:.0f}–{t:.0f}{marker} | {mno:.2f} | {cb:.2f} |")
    lines.append("")

    lines.append("## Fig 10 — day vs night (downtown)")
    fig10 = run_figure10(duration=max(120.0, 500.0 * scale))
    lines.append("")
    lines.append("| | avg Mbps | std | peak |")
    lines.append("|---|---|---|---|")
    lines.append(f"| day | {fig10.day_avg:.2f} | {fig10.day_std:.2f} "
                 f"| {fig10.day_peak:.2f} |")
    lines.append(f"| night | {fig10.night_avg:.2f} | {fig10.night_std:.2f} "
                 f"| {fig10.night_peak:.2f} |")
    lines.append("")
    lines.append("Paper references: Fig 7 36.85/31.68 and 166.48/98.62 ms; "
                 "Table 1 slowdowns −1.61%…+3.06%; Fig 10 day 1.03 vs "
                 "night 14.95 Mbps.")

    report = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate CellBricks (SIGCOMM'21) experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig7", help="attachment latency breakdown")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--rat", choices=("lte", "5g"), default="lte",
                   help="radio generation of the control plane under test")
    p.add_argument("--trace", action="store_true",
                   help="measure the per-leg breakdown from recorded "
                        "span trees instead of module-time accounting")
    p.add_argument("--obs-output", default=None,
                   help="with --trace: write per-leg p50/p99 JSON here "
                        "(e.g. BENCH_obs.json)")
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("attach", help="one attach-benchmark cell")
    p.add_argument("--arch", choices=("BL", "CB"), default="CB")
    p.add_argument("--placement", default="us-west-1")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rat", choices=("lte", "5g"), default="lte")
    p.set_defaults(func=_cmd_attach)

    p = sub.add_parser("table1", help="application performance table")
    p.add_argument("--scale", type=float, default=1.0,
                   help="duration scale factor")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--routes", default=None,
                   help="comma-separated subset, e.g. downtown,highway")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig8", help="throughput around a handover")
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser("fig9", help="attachment-latency factor analysis")
    p.add_argument("--duration", type=float, default=240.0)
    p.set_defaults(func=_cmd_fig9)

    p = sub.add_parser("report", help="run everything, emit one markdown "
                                      "reproduction report")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--output", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("churn", help="attach-churn the broker; print "
                                     "lifecycle counters and peak state")
    p.add_argument("--attaches", type=int, default=2000)
    p.add_argument("--ttl", type=float, default=50.0,
                   help="broker session TTL (seconds)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="sim-time spacing between attaches (seconds)")
    p.add_argument("--subscribers", type=int, default=64,
                   help="distinct subscribers to rotate through")
    p.add_argument("--revoke-every", type=int, default=0,
                   help="revoke the attaching subscriber every N attaches")
    p.set_defaults(func=_cmd_churn)

    p = sub.add_parser("chaos", help="attach/revoke churn under fault "
                                     "injection; check reliability "
                                     "invariants")
    p.add_argument("--attaches", type=int, default=200)
    p.add_argument("--loss", type=float, default=0.0,
                   help="steady loss rate on every signaling link")
    p.add_argument("--outage-at", type=float, default=0.0,
                   help="start (s) of a broker-link outage (0 = none)")
    p.add_argument("--outage-len", type=float, default=2.0)
    p.add_argument("--burst-at", type=float, default=0.0,
                   help="start (s) of an all-links loss burst (0 = none)")
    p.add_argument("--burst-len", type=float, default=2.0)
    p.add_argument("--burst-loss", type=float, default=0.2)
    p.add_argument("--brownout-at", type=float, default=0.0,
                   help="start (s) of a broker brown-out (0 = none)")
    p.add_argument("--brownout-len", type=float, default=2.0)
    p.add_argument("--brownout-factor", type=float, default=10.0,
                   help="processing-cost multiplier during the brown-out")
    p.add_argument("--revoke-every", type=int, default=0,
                   help="revoke the subscriber every N successful attaches")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rat", choices=("lte", "5g"), default="lte",
                   help="run the churn over the LTE or the 5G stack")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON on stdout")
    p.add_argument("--smoke", action="store_true",
                   help="run the library's seeded smoke configuration "
                        "(size, fault and seed flags are ignored), write "
                        "--output, fail on any gate")
    p.add_argument("--output", default="BENCH_chaos.json",
                   help="smoke-report path (default BENCH_chaos.json, "
                        "or BENCH_5g.json with --rat 5g)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("trace", help="run a traced scenario and export "
                                     "its span tree")
    p.add_argument("--scenario", choices=("attach", "chaos"),
                   default="attach")
    p.add_argument("--arch", choices=("BL", "CB"), default="CB")
    p.add_argument("--placement", default="us-west-1")
    p.add_argument("--trials", type=int, default=20,
                   help="attach trials (scenario=attach)")
    p.add_argument("--attaches", type=int, default=None,
                   help="attach attempts (scenario=chaos; default: the "
                        "chaos smoke's)")
    p.add_argument("--loss", type=float, default=None,
                   help="steady loss rate (scenario=chaos; default: the "
                        "chaos smoke's)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rat", choices=("lte", "5g"), default="lte")
    p.add_argument("--format", choices=("jsonl", "chrome", "summary"),
                   default="summary")
    p.add_argument("--output", default=None,
                   help="write the export to a file instead of stdout")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("metrics", help="run a scenario metrics-only and "
                                       "print the fleet registry snapshot")
    p.add_argument("--scenario", choices=("attach", "chaos"),
                   default="attach")
    p.add_argument("--arch", choices=("BL", "CB"), default="CB")
    p.add_argument("--placement", default="us-west-1")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--attaches", type=int, default=None)
    p.add_argument("--loss", type=float, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rat", choices=("lte", "5g"), default="lte")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("broker-scale", help="concurrent attaches x shard "
                                            "count through one brokerd")
    p.add_argument("--rat", choices=("lte", "5g", "both"), default="both",
                   help="which stack(s) to sweep (default both)")
    p.add_argument("--concurrency", default="16,64",
                   help="comma-separated concurrent-attach counts")
    p.add_argument("--shards", default="1,2,4,8",
                   help="comma-separated shard counts for pipeline cells")
    p.add_argument("--sites", type=int, default=16,
                   help="bTelco sites the UEs round-robin across")
    p.add_argument("--adaptive-window", action="store_true",
                   help="derive the pipeline batch window from observed "
                        "arrival rate instead of the fixed 2 ms")
    p.add_argument("--smoke", action="store_true",
                   help="the seeded CI sweep (sweep flags are ignored); "
                        "fails unless attaches/sec equal the pinned "
                        "sim-clock values and the speedup bar holds")
    p.add_argument("--output", default="BENCH_broker_scale.json",
                   help="report path (default BENCH_broker_scale.json)")
    p.set_defaults(func=_cmd_broker_scale)

    p = sub.add_parser("broker-ha", help="kill shard hosts mid-storm; "
                       "gate attach success, replay denial, recovery")
    p.add_argument("--rat", choices=("lte", "5g", "both"), default="both",
                   help="control plane(s) to drill (default both)")
    p.add_argument("--attaches", type=int, default=150,
                   help="churned attaches per cell (default 150)")
    p.add_argument("--shards", type=int, default=2,
                   help="active shard hosts at start (default 2)")
    p.add_argument("--spares", type=int, default=1,
                   help="warm spare shard hosts for scale-out (default 1)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--revoke-every", type=int, default=25,
                   help="revoke+re-enroll after every N successes")
    p.add_argument("--smoke", action="store_true",
                   help="the seeded CI drill (size and seed flags are "
                        "ignored)")
    p.add_argument("--output", default="BENCH_broker_ha.json",
                   help="report path (default BENCH_broker_ha.json)")
    p.set_defaults(func=_cmd_broker_ha)

    p = sub.add_parser("fleet-drive", help="fleet of UEs over the "
                       "geometric RAN; gate scoped re-attach broker load")
    p.add_argument("--rat", choices=("lte", "5g", "both"), default="both",
                   help="control plane(s) to drive (default both)")
    p.add_argument("--ues", type=int, default=6,
                   help="fleet size, <= 64 (default 6)")
    p.add_argument("--duration", type=float, default=30.0,
                   help="drive duration in sim seconds (default 30)")
    p.add_argument("--sites", type=int, default=3,
                   help="bTelco operators along the corridor, <= 16 "
                        "(default 3)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--smoke", action="store_true",
                   help="the seeded CI drives (size and seed flags are "
                        "ignored)")
    p.add_argument("--output", default="BENCH_fleet_drive.json",
                   help="report path (default BENCH_fleet_drive.json)")
    p.set_defaults(func=_cmd_fleet_drive)

    p = sub.add_parser("megaload", help="population-scale workload over "
                                        "the event engine")
    p.add_argument("--ues", type=int, default=100_000,
                   help="simulated UE population (default 100000; "
                        "1000000 is the memory/throughput profile, "
                        "minutes of wall time)")
    p.add_argument("--sites", type=int, default=256,
                   help="bTelco sites (default 256)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="arrival window in sim seconds, mapped onto one "
                        "compressed 24h day (default 60)")
    p.add_argument("--tick", type=float, default=0.05,
                   help="stepping quantum in sim seconds (default 0.05)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--real-fraction", type=float, default=0.0,
                   help="fraction of the population run as full-fidelity "
                        "SAP UEs against a real pipelined brokerd; any "
                        "nonzero value also charges the scripted broker "
                        "brokerd's calibrated per-attach cost (default 0)")
    p.add_argument("--real-rat", choices=("lte", "5g"), default="lte",
                   help="RAT for the real cohort (default lte)")
    p.add_argument("--real-sites", type=int, default=4,
                   help="real RAN sites the cohort's script folds onto "
                        "(default 4)")
    p.add_argument("--kpi-output", default=None,
                   help="write per-cohort fleet KPI JSON here (sampled "
                        "from the cell, or from the mixed micro-cell "
                        "under --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="the seeded CI cell (workload flags are ignored): "
                        "its digest must equal the pinned one, RSS per "
                        "UE must stay under the ceiling, and the mixed "
                        "micro-cell's digest must equal its own pin")
    p.add_argument("--output", default="BENCH_megaload.json",
                   help="report path (default BENCH_megaload.json)")
    p.set_defaults(func=_cmd_megaload)

    p = sub.add_parser("observe", help="fleet observatory: windowed KPI "
                                       "aggregation over a running bench")
    p.add_argument("--bench", choices=("megaload", "broker-ha"),
                   default="megaload",
                   help="which bench to observe (default megaload)")
    p.add_argument("--rat", choices=("lte", "5g", "both"), default="both",
                   help="broker-ha only: control plane(s) (default both)")
    p.add_argument("--ues", type=int, default=100_000,
                   help="megaload population (default 100000)")
    p.add_argument("--sites", type=int, default=256,
                   help="megaload bTelco sites (default 256)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="megaload arrival window in sim seconds "
                        "(default 60)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--interval", type=float, default=0.0,
                   help="KPI window in sim seconds (default: 1.0 for "
                        "megaload, 0.5 for broker-ha)")
    p.add_argument("--smoke", action="store_true",
                   help="the bench's seeded CI run (size and seed flags "
                        "are ignored): collected digest == "
                        "collector-free digest, byte-identical KPI JSON "
                        "across two runs, one event per KPI window")
    p.add_argument("--output", default="OBS_fleet.json",
                   help="KPI report path (default OBS_fleet.json)")
    p.add_argument("--html", default="",
                   help="also write an HTML dashboard snapshot here")
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser("fig10", help="day vs night rate limiting")
    p.add_argument("--duration", type=float, default=500.0)
    p.add_argument("--single-drive", action="store_true",
                   help="one drive crossing the midnight policy switch "
                        "instead of two separate runs")
    p.set_defaults(func=_cmd_fig10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
