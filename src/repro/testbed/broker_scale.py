"""BROKER-SCALE — the broker auth hot path under concurrent attach load.

The paper argues the broker "resembles existing internet services" and
scales out (§5); this bench reproduces the claim end to end.  N UEs
spread across multiple bTelco sites attach within a short arrival
window, all served by one brokerd, and we sweep concurrency × shard
count for the serial historical path vs the sharded, batching pipeline
(:meth:`repro.core.broker.Brokerd.configure_pipeline`).  Reported per
cell: p50/p99 attach latency and attaches/sec.

Works for both RATs — ``rat="lte"`` drives CellBricksAgw sites over NAS,
``rat="5g"`` drives CellBricksAmf/SMF sites over NAS-5G — against the
very same brokerd code, since SAP is RAT-agnostic; sites come from
:func:`repro.core.mobility.build_btelco_site`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.analysis.gates import gate
from repro.analysis.stats import mean, percentile
from repro.core import Brokerd, UeSapCredentials
from repro.core.mobility import (
    build_btelco_site,
    rat_profile,
    signaling_link,
)
from repro.crypto import CertificateAuthority
from repro.crypto import keypool
from repro.net import Host, Simulator
from repro.obs import install as install_obs

BROKER_ADDRESS = "52.20.0.1"
#: pool slots reserved for this bench (clear of scenario builders').
_SLOT_BASE = 9300
#: every UE fires its attach at t=0 (a burst); the report states it.
ARRIVAL_WINDOW_S = 0.0
#: sim-seconds a cell may take to drain.
RUN_UNTIL_S = 120.0


@dataclass
class CellResult:
    """One (rat, concurrency, shards, pipeline) cell of the sweep."""

    rat: str
    concurrency: int
    shards: int
    pipeline: bool
    sites: int
    attached: int
    failed: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    duration_s: float
    attaches_per_sec: float
    broker: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # Shallow: ``asdict`` deep-copies ``broker`` (~200 nested values a
        # cell) for callers that only read or serialise the result.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def run_cell(concurrency: int, shards: int, *, rat: str = "lte",
             pipeline: bool = True, sites: int = 16,
             adaptive_window: bool = False, obs=None) -> CellResult:
    """Attach ``concurrency`` UEs across ``sites`` bTelcos via one broker.

    ``pipeline=False`` with ``shards=1`` is the historical serial path
    (the pre-sharding baseline); ``pipeline=True`` enables the batching
    pipeline over ``shards`` consistent-hash shards.  ``obs`` (an
    :class:`repro.obs.Obs`) installs tracing for determinism checks.
    Throughput counts successful attaches over the span from the first
    attach start (t=0) to the last completion.
    """
    profile = rat_profile(rat)
    # Key generation happens before the timed region; the CRT contexts
    # are precomputed so wall-clock cost lands in the bench loop only.
    keypool.warm(range(_SLOT_BASE, _SLOT_BASE + 3 + sites))
    sim = Simulator()
    if obs is not None:
        install_obs(sim, obs)

    ca = CertificateAuthority(key=keypool.pooled_keypair(_SLOT_BASE))
    broker_host = Host(sim, "broker-host", address=BROKER_ADDRESS)
    brokerd = Brokerd(broker_host, id_b="b.scale",
                      ca_public_key=ca.public_key,
                      key=keypool.pooled_keypair(_SLOT_BASE + 1))
    if pipeline:
        brokerd.configure_pipeline(shards=shards, adaptive=adaptive_window)
    elif shards != 1:
        brokerd.sap.set_shard_count(shards)

    ue_key = keypool.pooled_keypair(_SLOT_BASE + 2)  # shared (sim-only)

    # The node a UE attaches through, per site.
    ran_hosts = [
        build_btelco_site(
            sim, rat, f"site{index}", id_t=f"t.scale-{index}", ca=ca,
            key=keypool.pooled_keypair(_SLOT_BASE + 3 + index),
            brokerd=brokerd, pool_prefix=f"10.{128 + index}.0",
            addresses=(f"10.{30 + index}.0.1", f"10.{60 + index}.0.1",
                       f"10.{90 + index}.0.1")).enb_host
        for index in range(sites)]

    latencies: list[float] = []
    completions: list[float] = []
    failures = [0]

    def _done(result, *, _sim=sim) -> None:
        if result.success:
            latencies.append(result.latency * 1000.0)
            completions.append(_sim.now)
        else:
            failures[0] += 1

    # One host per UE, attached to its site's RAN node round-robin.
    for index in range(concurrency):
        site = index % sites
        ue_host = Host(sim, f"ue{index}",
                       address=f"10.{140 + index // 200}.{index % 200}.2")
        ran_host = ran_hosts[site]
        signaling_link(sim, f"radio{index}", ue_host, ran_host, 0.0001)
        subscriber = f"sub-{index:05d}"
        brokerd.enroll_subscriber(subscriber, ue_key.public_key)
        creds = UeSapCredentials(id_u=subscriber, id_b="b.scale",
                                 ue_key=ue_key,
                                 broker_public_key=brokerd.public_key)
        ue = profile.ue_class(ue_host, ran_host.address, creds,
                              target_id_t=f"t.scale-{site}",
                              name=f"{profile.ue_name}{index}")
        ue.on_attach_done = _done
        sim.schedule(ARRIVAL_WINDOW_S, ue.attach)

    sim.run(until=RUN_UNTIL_S)

    duration = max(completions) if completions else 0.0
    stats = brokerd.stats()
    return CellResult(
        rat=rat, concurrency=concurrency, shards=shards, pipeline=pipeline,
        sites=sites, attached=len(latencies), failed=failures[0],
        mean_ms=round(mean(latencies), 4) if latencies else 0.0,
        p50_ms=round(percentile(latencies, 50), 4) if latencies else 0.0,
        p99_ms=round(percentile(latencies, 99), 4) if latencies else 0.0,
        duration_s=round(duration, 6),
        attaches_per_sec=round(len(latencies) / duration, 2)
        if duration > 0 else 0.0,
        broker={
            "attach_ok": stats["attach_ok"],
            "replay_hits": stats["replay_hits"],
            "dup_requests_served": stats["dup_requests_served"],
            "num_shards": stats["num_shards"],
            "pipeline_batches": stats["pipeline_batches"],
            "pipeline_requests": stats["pipeline_requests"],
            "cert_cache_hits": stats["cert_cache_hits"],
            "shards": stats["shards"],
        })


def run_sweep(*, rats=("lte", "5g"), concurrencies=(16, 64),
              shard_counts=(1, 2, 4, 8), sites: int = 16,
              adaptive_window: bool = False) -> dict:
    """The full grid: for each rat and concurrency, a serial single-shard
    baseline plus the pipeline at each shard count.  Returns the report
    dict written to ``BENCH_broker_scale.json``.  ``adaptive_window``
    swaps the pipeline cells' fixed 2 ms batch window for the
    arrival-rate-derived :class:`~repro.core.costs.AdaptiveBatchWindow`."""
    cells = []
    for rat in rats:
        for concurrency in concurrencies:
            cells.append(run_cell(concurrency, 1, rat=rat, pipeline=False,
                                  sites=sites))
            for shards in shard_counts:
                cells.append(run_cell(concurrency, shards, rat=rat,
                                      pipeline=True, sites=sites,
                                      adaptive_window=adaptive_window))
    return {
        "bench": "broker_scale",
        "sites": sites,
        "arrival_window_s": ARRIVAL_WINDOW_S,
        "adaptive_window": adaptive_window,
        "cells": [cell.to_dict() for cell in cells],
        "speedups": speedups(cells),
    }


def speedups(cells) -> list[dict]:
    """Pipeline throughput vs the serial baseline at equal (rat, N)."""
    baselines = {(c.rat, c.concurrency): c for c in cells if not c.pipeline}
    out = []
    for cell in cells:
        if not cell.pipeline:
            continue
        base = baselines.get((cell.rat, cell.concurrency))
        if base is None or base.attaches_per_sec <= 0:
            continue
        out.append({
            "rat": cell.rat, "concurrency": cell.concurrency,
            "shards": cell.shards,
            "baseline_attaches_per_sec": base.attaches_per_sec,
            "pipeline_attaches_per_sec": cell.attaches_per_sec,
            "speedup": round(
                cell.attaches_per_sec / base.attaches_per_sec, 2),
        })
    return out


# ---------------------------------------------------------------------------
# --smoke: one seeded sweep and the sim-clock throughput it reproduces to
# the digit on any host.  A pin moves only when the modeled service costs
# or the pipeline do: rerun the smoke, copy the att/s it prints, and say
# why in the commit.
# ---------------------------------------------------------------------------

SMOKE = dict(concurrencies=(64,), shard_counts=(8,), sites=16)
#: "rat/N/mode/shards" -> attaches per sim-second.
SMOKE_ATTACHES_PER_SEC = {
    "lte/64/serial/1": 198.7, "lte/64/pipeline/8": 865.05,
    "5g/64/serial/1": 199.76, "5g/64/pipeline/8": 945.52,
}
#: the §5 scale-out claim: the pipeline at >= 8 shards vs the serial path.
MIN_SPEEDUP = 3.0


def gates(report: dict) -> list:
    """What a :data:`SMOKE` sweep's report must show (a cell with no pin
    fails: its value cannot equal ``None``)."""
    out = []
    for cell in report["cells"]:
        key = (f"{cell['rat']}/{cell['concurrency']}/"
               f"{'pipeline' if cell['pipeline'] else 'serial'}/"
               f"{cell['shards']}")
        pin = SMOKE_ATTACHES_PER_SEC.get(key)
        out.append(gate(f"{key}:attaches_per_sec", cell["attaches_per_sec"],
                        pin, cell["attaches_per_sec"] == pin))
    for row in report["speedups"]:
        if row["shards"] >= 8:
            out.append(gate(
                f"{row['rat']}/{row['concurrency']}/{row['shards']}:speedup",
                row["speedup"], MIN_SPEEDUP, row["speedup"] >= MIN_SPEEDUP))
    return out
