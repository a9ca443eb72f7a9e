"""MEGALOAD — a population-scale workload over the discrete-event core.

The broker-scale bench tops out at tens of concurrent attaches from 16
sites; the paper's pitch is *millions* of users federated across many
small bTelcos.  This harness drives the gap: hundreds of sites and
10^5-10^6 lightweight UEs with

* an **arrival model** thinned by the day/night policy of Appendix A
  (reusing :class:`repro.emulation.policy.TimeOfDayPolicy`, the same
  schedule that drives the Fig 10 token-bucket policer) — the simulated
  window is mapped onto one compressed 24 h day,
* a **mobility model** — each UE's lifecycle script is a sequence of
  (site, dwell) segments; every segment boundary is a detach +
  re-attach through the broker, exactly the host-driven loop of §4.2,
* a **diurnal activity model** — attached UEs emit keep-alive pokes
  that re-arm an idle timer; sparse pokers idle out and release their
  session.

The population lives in a **struct-of-arrays** layout: no per-UE Python
object exists.  Mutable state is parallel :mod:`array` columns indexed
by uid (segment cursor, site, epoch, idle token, retry flag, attach
start time) and each UE's script is a run of packed 64-bit segment
codes (``site``/``dwell_ticks``/``poke_gap_ticks`` in 21-bit fields)
inside one shared ``array('q')``, addressed through a per-uid offset
column.  A pending wakeup is likewise a pair of packed 31-bit words
(``uid`` and ``action``/``token``/``arg``) — kept separate so each
stays a single-digit CPython int — so the resident cost per UE is
a few dozen bytes of flat array — the ``rss_per_ue_bytes`` profile in
``BENCH_megaload.json`` tracks it, and the ``--smoke`` gate holds the
ceiling (``MAX_RSS_PER_UE_BYTES``).

Each attach rides a modeled broker whose batching uses the
:class:`~repro.core.costs.AdaptiveBatchWindow` (Nagle-style: flush
when full, stretch under sustained load).  Scripted UEs are
deliberately *not* full crypto stacks: the point of this bench is to
stress the event engine itself.  A **mixed-fidelity cohort** keeps the
model honest: ``real_fraction`` samples an evenly-spaced slice of uids
whose lifecycle runs the full :class:`~repro.core.ue_agent.CellBricksUe`
(or 5G) SAP attach against a real pipelined
:class:`~repro.core.broker.Brokerd` inside the same simulator, following
the same script (sites folded onto a small real RAN).  Beside a cohort
the scripted broker charges what that brokerd charges, the calibrated
:data:`~repro.core.costs.AUTH_REQUEST_PROCESSING`, so population
pressure and protocol truth share one clock and one cost; the cohort's
attach latency percentiles are reported alongside scripted throughput.

Execution is batched UE stepping on the shared
:class:`~repro.net.TickCalendar`: a tick's worth of UE actions costs
*one* heap event and *one* call — ``_dispatch(idx, uids, codes)`` is the
whole lifecycle state machine, one loop over the tick's bucket — wake
pairs land in recycled ``array('i')`` columns, and superseded wakeups
are invalidated by token at dispatch instead of heap cancellation.  All
randomness is consumed before the clock starts and every action time is
quantized to the tick grid, so anything that dispatches wakes in (tick,
append) order replays the same outcome; the loop therefore issues each
new wake through ``engine.wake`` where the action arises, never grouped
or deferred.  ``tests/test_megaload.py`` plugs a one-heap-event-per-wake
reference in through ``MegaloadWorkload.engine_class`` and holds the
calendar's digests equal to it.

The report (``BENCH_megaload.json``) carries the cell's deterministic
workload digest plus wall-clock figures: ``build_s`` (the constructor)
and ``wall_s`` (the run), UEs/sec and actions/sec over ``wall_s`` alone,
wall-clock per sim-second, peak RSS, RSS per UE.  Wall time is reported,
never gated — comparing it is the ledger's job (``benchmarks/ledger/``).
``megaload --smoke`` runs :func:`smoke` and must hold :func:`gates`;
``observe --bench megaload --smoke`` likewise :func:`observe` and
:func:`observe_gates`.  Every one of those facts is a digest, a count
or a size that is the same on any host.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from array import array
from heapq import heapreplace
from typing import Optional

from repro.analysis.gates import gate
from repro.analysis.stats import mean, percentile
from repro.core.costs import (
    AUTH_REQUEST_PROCESSING,
    AdaptiveBatchWindow,
    ParkedBatch,
)
from repro.emulation.policy import SECONDS_PER_HOUR, TimeOfDayPolicy
from repro.net import Simulator, TickCalendar

try:  # pragma: no cover - platform-dependent
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

# UE lifecycle actions (3-bit codes packed into wake words).
A_ARRIVE = 0
A_ATTACH_DONE = 1
A_POKE = 2
A_IDLE = 3
A_SEG_END = 4
A_REAL_ARRIVE = 5    # mixed-fidelity cohort: start the real SAP attach
A_REAL_SEG = 6       # mixed-fidelity cohort: segment end (move/depart)

# Wake pair layout: the calendar key is the uid, the code word is
# (action << 20) | (token << 10) | arg — token carries the UE epoch (one
# detach per segment, <= MAX_SEGMENTS) and arg the idle token (one re-arm
# per attach and per poke, <= (1 + MAX_POKES_PER_SEGMENT) * MAX_SEGMENTS)
# or the remaining pokes, so 10-bit fields have an order of magnitude of
# headroom and both words stay single-digit CPython ints.  The fields are
# OR'ed in unmasked: the constructor holds both bounds.
_ARG_BITS = 10
_TOKEN_BITS = 10
_ARG_MASK = (1 << _ARG_BITS) - 1
_TOKEN_MASK = (1 << _TOKEN_BITS) - 1
_ACTION_SHIFT = _ARG_BITS + _TOKEN_BITS
_M_ARRIVE = A_ARRIVE << _ACTION_SHIFT
_M_ATTACH_DONE = A_ATTACH_DONE << _ACTION_SHIFT
_M_POKE = A_POKE << _ACTION_SHIFT
_M_IDLE = A_IDLE << _ACTION_SHIFT
_M_SEG_END = A_SEG_END << _ACTION_SHIFT
_M_REAL_ARRIVE = A_REAL_ARRIVE << _ACTION_SHIFT
_M_REAL_SEG = A_REAL_SEG << _ACTION_SHIFT

# Script-segment layout: (site << 42) | (dwell_ticks << 21) | poke_gap.
_SEG_BITS = 21
_SEG_MASK = (1 << _SEG_BITS) - 1

# Model constants (seconds unless noted).
IDLE_TIMEOUT = 6.0          # idle release after this long without a poke
DWELL_MIN, DWELL_MAX = 5.0, 12.0
POKE_GAP_MIN, POKE_GAP_MAX = 2.5, 10.0
MAX_POKES_PER_SEGMENT = 5
MAX_SEGMENTS = 4            # a script is 1 + (0..3 moves) segments
ARRIVAL_SPAN = 0.8          # arrivals land in the first 80% of `duration`
NIGHT_INTENSITY = 0.25      # arrival thinning factor during the night window
CAPACITY_HEADROOM = 1.6     # site capacity vs the uniform-spread mean
DRAIN_GRACE = 60.0          # extra sim-seconds to let late arrivals finish
BROKER_ATTACH_COST = 0.0002  # modeled broker service per attach (s)
BROKER_WORKERS = 8

# Mixed-fidelity cohort topology constants.
REAL_BROKER_ADDRESS = "52.30.0.1"
#: keypool slots reserved for the cohort (clear of other harnesses').
_REAL_SLOT_BASE = 9650


def _rss_bytes(raw: float, platform: Optional[str] = None) -> float:
    """``ru_maxrss`` to bytes: KiB everywhere except macOS (bytes)."""
    if platform is None:
        platform = sys.platform
    return float(raw) if platform == "darwin" else raw * 1024.0


def _peak_rss_bytes() -> float:
    """Process peak RSS in bytes (0.0 where ``resource`` is missing)."""
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return 0.0
    return _rss_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _MegaBroker:
    """The broker's auth pipeline, reduced to its cost model.

    Requests park in the same :class:`~repro.core.costs.ParkedBatch`
    the real brokerd uses (adaptive window); a flush serves the batch
    on ``BROKER_WORKERS`` earliest-free lanes (a heap of the times each
    lane falls free: only the values matter) and posts each completion
    back through the engine at its modeled finish tick.  The batch is a
    plain list of uids; ``service_cost`` is the modeled per-attach
    service time, a calibrated constant.
    """

    __slots__ = ("sim", "engine", "tick", "epoch", "service_cost",
                 "parked", "lanes", "batches", "requests", "full_flushes")

    def __init__(self, sim: Simulator, engine, tick: float, epoch: array,
                 service_cost: float):
        self.sim = sim
        self.engine = engine
        self.tick = tick
        self.epoch = epoch
        self.service_cost = service_cost
        self.parked = ParkedBatch(sim, self._flush,
                                  adaptive=AdaptiveBatchWindow())
        self.lanes = [0.0] * BROKER_WORKERS
        self.batches = 0
        self.requests = 0
        self.full_flushes = 0

    def submit(self, uid: int) -> None:
        if self.parked.park(uid):
            self.full_flushes += 1

    def _flush(self) -> None:
        batch = self.parked.take()
        if not batch:
            return
        now = self.sim._now
        tick = self.tick
        cost = self.service_cost
        lanes = self.lanes
        epoch = self.epoch
        wake = self.engine.wake
        self.batches += 1
        self.requests += len(batch)
        for uid in batch:
            end = max(now, lanes[0]) + cost     # the earliest-free lane
            heapreplace(lanes, end)
            # Completion on the next tick boundary at/after the modeled
            # service end (strictly in the future: end > now).
            idx = int(end / tick - 1e-9) + 1
            wake(idx, uid, _M_ATTACH_DONE | (epoch[uid] << _ARG_BITS))


class _RealCohort:
    """The full-fidelity slice of a megaload population.

    Builds a small real RAN — ``sites`` bTelcos (AGW or AMF+SMF), one
    pipelined sharded :class:`~repro.core.broker.Brokerd` — inside the
    workload's simulator, plus one :class:`CellBricksUe` (or 5G) per
    sampled uid.  Each cohort UE follows its *scripted* lifecycle
    (arrival tick, segment dwells, site sequence folded onto the real
    sites modulo ``sites``) but every attach is the genuine SAP
    exchange: authReqU crafting, broker batch pipeline, challenge
    verification, SMC — so population pressure and protocol truth share
    one clock.  Keep-alive pokes and idle timers stay scripted-only;
    the cohort measures the attach path.

    Everything here is deterministic under a fixed seed: topology and
    uid selection derive from the workload config, retransmission
    jitter RNGs are name-seeded, and modeled processing costs are
    constants.
    """

    def __init__(self, workload: "MegaloadWorkload", uids, *,
                 rat: str = "lte", sites: int = 4):
        from repro.core import Brokerd, UeSapCredentials
        from repro.core.mobility import (
            build_btelco_site,
            rat_profile,
            signaling_link,
        )
        from repro.crypto import CertificateAuthority, keypool
        from repro.net import Host

        from .netaddr import HostPrefixAllocator

        ue_class = rat_profile(rat).ue_class
        self.workload = workload
        self.rat = rat
        self.uids = list(uids)
        self.n_sites = max(1, min(sites, 256))
        sim = workload.sim

        allocator = HostPrefixAllocator(base_octet=96)
        if len(self.uids) > allocator.capacity:
            raise ValueError(
                f"real cohort of {len(self.uids)} exceeds the "
                f"{allocator.capacity} host prefixes available")

        keypool.warm(range(_REAL_SLOT_BASE,
                           _REAL_SLOT_BASE + 3 + self.n_sites))
        ca = CertificateAuthority(
            key=keypool.pooled_keypair(_REAL_SLOT_BASE))
        broker_host = Host(sim, "mega-broker",
                           address=REAL_BROKER_ADDRESS)
        self.brokerd = Brokerd(
            broker_host, id_b="b.mega", ca_public_key=ca.public_key,
            key=keypool.pooled_keypair(_REAL_SLOT_BASE + 1))
        self.brokerd.configure_pipeline(
            shards=min(4, max(1, self.n_sites)), adaptive=True)

        self.ran_hosts = [
            build_btelco_site(
                sim, rat, f"mega-site{index}", id_t=f"t.mega-{index}",
                ca=ca, brokerd=self.brokerd,
                key=keypool.pooled_keypair(_REAL_SLOT_BASE + 3 + index),
                pool_prefix=f"10.44.{index}",
                addresses=(f"10.40.{index}.1", f"10.41.{index}.1",
                           f"10.42.{index}.1")).enb_host
            for index in range(self.n_sites)]

        ue_key = keypool.pooled_keypair(_REAL_SLOT_BASE + 2)  # sim-only
        self.ues: dict = {}
        for slot, uid in enumerate(self.uids):
            ue_host = Host(sim, f"mega-ue{uid}",
                           address=allocator.address(slot))
            # Radio links to every *distinct* real site the script
            # visits (the host-driven retarget keeps the same host).
            for site in sorted(self._visited_sites(uid)):
                signaling_link(sim, f"mega-radio{uid}-{site}", ue_host,
                               self.ran_hosts[site], 0.0001)
            subscriber = f"mega-{uid:07d}"
            self.brokerd.enroll_subscriber(subscriber, ue_key.public_key)
            creds = UeSapCredentials(
                id_u=subscriber, id_b="b.mega", ue_key=ue_key,
                broker_public_key=self.brokerd.public_key)
            first = self._real_site(uid, 0)
            ue = ue_class(ue_host, self.ran_hosts[first].address, creds,
                          target_id_t=f"t.mega-{first}",
                          name=f"mega-cb-ue{uid}")
            ue.on_attach_done = \
                lambda result, _uid=uid: self._attach_done(_uid, result)
            self.ues[uid] = ue

        # -- cohort outcome counters (separate from the scripted ones) --
        self.arrived = 0
        self.attach_ok = 0
        self.attach_failures = 0
        self.moves = 0
        self.departed = 0
        self.latencies_ms: list[float] = []

    # -- script mapping ---------------------------------------------------
    def _real_site(self, uid: int, seg: int) -> int:
        w = self.workload
        code = w.script_codes[w.script_off[uid] + seg]
        return (code >> (2 * _SEG_BITS)) % self.n_sites

    def _visited_sites(self, uid: int) -> set:
        w = self.workload
        return {self._real_site(uid, seg) for seg in
                range(w.script_off[uid + 1] - w.script_off[uid])}

    # -- lifecycle (driven through the workload's engine) -----------------
    def on_wake(self, uid: int, action: int, token: int) -> None:
        if action == A_REAL_ARRIVE:
            self.arrived += 1
            self.ues[uid].attach()
            return
        # A_REAL_SEG
        if token != self.workload.ue_epoch[uid]:
            return
        self._segment_end(uid)

    def _attach_done(self, uid: int, result) -> None:
        w = self.workload
        if not result.success:
            # Terminal SAP failure: the cohort UE's lifecycle ends here
            # (the real stack already burned its retry budget).
            self.attach_failures += 1
            return
        self.attach_ok += 1
        # For 5G this is the registration leg (session setup follows
        # asynchronously), matching Fig 7's attach clock on both RATs.
        self.latencies_ms.append(round(result.latency * 1000.0, 4))
        code = w.script_codes[w.script_off[uid] + w.ue_seg[uid]]
        dwell_ticks = (code >> _SEG_BITS) & _SEG_MASK
        # Attach completions are not tick-aligned: round up so the
        # segment-end wake is strictly in the future.
        idx = int(w.sim.now / w.tick) + 1 + dwell_ticks
        w.engine.wake(idx, uid,
                      _M_REAL_SEG | (w.ue_epoch[uid] << _ARG_BITS))

    def _segment_end(self, uid: int) -> None:
        w = self.workload
        ue = self.ues[uid]
        ue.detach_and_forget()
        w.ue_epoch[uid] += 1
        nxt = w.ue_seg[uid] + 1
        if w.script_off[uid] + nxt >= w.script_off[uid + 1]:
            self.departed += 1
            return
        w.ue_seg[uid] = nxt
        self.moves += 1
        site = self._real_site(uid, nxt)
        ue.retarget(self.ran_hosts[site].address, f"t.mega-{site}")
        ue.attach()

    # -- reporting --------------------------------------------------------
    def summary(self) -> dict:
        lat = self.latencies_ms
        stats = self.brokerd.stats()
        return {
            "count": len(self.uids),
            "rat": self.rat,
            "sites": self.n_sites,
            "arrived": self.arrived,
            "attach_ok": self.attach_ok,
            "attach_failures": self.attach_failures,
            "moves": self.moves,
            "departed": self.departed,
            "attach_ms_mean": round(mean(lat), 4) if lat else 0.0,
            "attach_ms_p50": round(percentile(lat, 50), 4) if lat
            else 0.0,
            "attach_ms_p99": round(percentile(lat, 99), 4) if lat
            else 0.0,
            "broker_attach_ok": stats["attach_ok"],
            "broker_pipeline_batches": stats["pipeline_batches"],
            "broker_pipeline_requests": stats["pipeline_requests"],
        }


class MegaloadWorkload:
    """Builds the scripted population and steps it on the tick calendar."""

    #: what turns ``wake(idx, uid, code)`` calls into ``dispatch(idx,
    #: uids, codes)`` at tick ``idx``, in ``wake`` order; the tests
    #: substitute their reference engine here.
    engine_class = TickCalendar

    def __init__(self, *, ues: int, sites: int, duration: float,
                 tick: float, seed: int, engine: str = "optimized",
                 adaptive: bool = True, compaction: bool = True,
                 real_fraction: float = 0.0, real_rat: str = "lte",
                 real_sites: int = 4):
        # benchmarks/ledger/workloads.py, frozen outside `benchmark` PRs,
        # still passes these three words; they select nothing any more.
        if (engine, adaptive, compaction) != ("optimized", True, True):
            raise ValueError(
                "engine/adaptive/compaction are accepted only as "
                "'optimized'/True/True (there is one engine)")
        if not 0.0 <= real_fraction <= 1.0:
            raise ValueError(f"real_fraction {real_fraction} not in [0,1]")
        if sites >= 1 << _SEG_BITS \
                or round(DWELL_MAX / tick) >= 1 << _SEG_BITS \
                or round(POKE_GAP_MAX / tick) >= 1 << _SEG_BITS:
            raise ValueError(
                "site index or tick counts overflow the 21-bit script "
                "segment fields (tick too fine or too many sites)")
        if (1 + MAX_POKES_PER_SEGMENT) * MAX_SEGMENTS > _ARG_MASK \
                or MAX_SEGMENTS > _TOKEN_MASK:
            raise ValueError(
                "idle tokens or epochs overflow the 10-bit wake code "
                "fields (a stale timer would alias a live one)")
        # Population delta baseline: everything the workload allocates
        # from here on (columns, scripts, buckets, latencies) shows up
        # in rss_per_ue_bytes.
        self._rss_before = _peak_rss_bytes()
        build_start = time.perf_counter()
        self.ues = ues
        self.n_sites = sites
        self.duration = duration
        self.tick = tick
        self.seed = seed
        self.real_fraction = real_fraction
        self.real_rat = real_rat
        self.sim = Simulator()
        self.engine = self.engine_class(self.sim, tick, self._dispatch)
        # -- struct-of-arrays population state ----------------------------
        n = ues
        self.ue_seg = array("b", bytes(n))            # segment cursor
        self.ue_site = array("i", [-1]) * n           # attached site
        self.ue_epoch = array("h", bytes(2 * n))      # detach generation
        self.ue_idle_token = array("h", bytes(2 * n))  # idle re-arm token
        self.ue_retried = array("b", bytes(n))        # retry flag
        self.ue_attach_started = array("d", bytes(8 * n))
        #: packed (site, dwell_ticks, poke_gap_ticks) segment codes for
        #: the whole population; uid's script is the slice
        #: ``script_codes[script_off[uid]:script_off[uid+1]]``.
        self.script_codes = array("q")
        self.script_off = array("i", bytes(4 * (n + 1)))
        # Beside a real cohort the scripted broker charges what the
        # cohort's brokerd charges; alone, the constant SMOKE_DIGEST and
        # the ledger's megaload_day are pinned on.
        if real_fraction > 0:
            self.broker = _MegaBroker(self.sim, self.engine, tick,
                                      self.ue_epoch, AUTH_REQUEST_PROCESSING)
        else:
            self.broker = _MegaBroker(self.sim, self.engine, tick,
                                      self.ue_epoch, BROKER_ATTACH_COST)
        # -- site admission state -----------------------------------------
        self.site_attached = [0] * sites
        self.site_capacity = max(8, int(math.ceil(
            ues / sites * CAPACITY_HEADROOM * DWELL_MAX / duration)))
        # -- deterministic outcome counters -------------------------------
        self.arrived = 0
        self.attach_ok = 0
        self.attach_failures = 0
        self.retries = 0
        self.gave_up = 0
        self.moves = 0
        self.idle_detaches = 0
        self.departed = 0
        self.actions = 0
        self.attach_latencies_ms = array("d")
        self._idle_ticks = max(1, round(IDLE_TIMEOUT / tick))
        self.kpi_collector = None
        # -- mixed-fidelity cohort ----------------------------------------
        self._real_uids = frozenset()
        if real_fraction > 0:
            count = max(1, round(ues * real_fraction))
            stride = max(1, ues // count)
            self._real_uids = frozenset(range(0, stride * count,
                                              stride)[:count])
        self.real_cohort: Optional[_RealCohort] = None
        self._build_population()
        if self._real_uids:
            self.real_cohort = _RealCohort(
                self, sorted(self._real_uids), rat=real_rat,
                sites=real_sites)
        self._build_s = time.perf_counter() - build_start

    # -- fleet KPIs --------------------------------------------------------
    def attach_kpi_collector(self, store, interval: float = 1.0):
        """Sample this workload's counters into ``store`` every
        ``interval`` sim-seconds.  The probes only *read* state the
        workload already maintains, so the workload digest is unchanged
        and the overhead is one event per window."""
        from repro.obs.fleet import KpiCollector

        collector = KpiCollector(self.sim, store, interval=interval)
        collector.add_counter_probe("workload", lambda: {
            "arrived": self.arrived,
            "attach_ok": self.attach_ok,
            "attach_failures": self.attach_failures,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "moves": self.moves,
            "idle_detaches": self.idle_detaches,
            "departed": self.departed,
            "actions": self.actions,
        })
        collector.add_counter_probe("broker", lambda: {
            "batches": self.broker.batches,
            "requests": self.broker.requests,
            "full_flushes": self.broker.full_flushes,
        })
        collector.add_gauge_probe("sites", lambda: {
            "attached_total": sum(self.site_attached),
            "max_load": max(self.site_attached),
            "loaded_sites": sum(1 for n in self.site_attached if n > 0),
        })
        cohort = self.real_cohort
        if cohort is not None:
            collector.add_counter_probe("real_cohort", lambda: {
                "arrived": cohort.arrived,
                "attach_ok": cohort.attach_ok,
                "attach_failures": cohort.attach_failures,
                "moves": cohort.moves,
                "departed": cohort.departed,
            })
            collector.add_latency_gauge(
                "real_cohort_latency", lambda: cohort.latencies_ms)
        self.kpi_collector = collector
        return collector

    # -- population script ------------------------------------------------
    def _build_population(self) -> None:
        """Precompute every UE's lifecycle from one seeded RNG.

        All randomness is consumed here, in uid order, before the clock
        starts: execution itself is purely deterministic state stepping,
        which is what lets any conforming engine replay the same outcome.
        The script lands directly in the packed SoA columns — no per-UE
        object or tuple survives this loop.
        """
        # Drawn from the generator's two primitives, bound once: `uniform`
        # is its documented a + (b-a)*random(), `randrange(n)` is
        # getrandbits(n.bit_length()) redrawn until < n.
        rng = random.Random(self.seed)
        rand, getrandbits = rng.random, rng.getrandbits
        site_bits = self.n_sites.bit_length()
        dwell_span = DWELL_MAX - DWELL_MIN
        poke_gap_span = POKE_GAP_MAX - POKE_GAP_MIN
        # The default policy's night window (00:30-06:00) does not wrap.
        policy = TimeOfDayPolicy()
        night_from, night_to = policy.night_starts_hour, policy.night_ends_hour
        # Map the simulated window onto one full day so the arrival
        # process crosses the 00:30/06:00 policy boundaries.
        time_scale = 24.0 * SECONDS_PER_HOUR / self.duration
        span = self.duration * ARRIVAL_SPAN
        tick = self.tick
        n_sites = self.n_sites
        codes = self.script_codes
        append = codes.append
        off = self.script_off
        wake = self.engine.wake
        real_uids = self._real_uids
        for uid in range(self.ues):
            # Diurnal thinning: candidates during the night window are
            # accepted at NIGHT_INTENSITY (fewer users awake).
            while True:
                t = rand() * span
                hour = (t * time_scale / SECONDS_PER_HOUR) % 24.0
                keep = NIGHT_INTENSITY if night_from <= hour < night_to \
                    else 1.0
                if rand() < keep:
                    break
            arrival_idx = int(t / tick) + 1
            r = rand()
            moves = 0 if r < 0.30 else 1 if r < 0.65 else 2 if r < 0.90 \
                else MAX_SEGMENTS - 1
            for _ in range(moves + 1):
                site = getrandbits(site_bits)
                while site >= n_sites:
                    site = getrandbits(site_bits)
                # `or 1` is max(1, ·) of a non-negative int, less a call.
                dwell_ticks = round(
                    (DWELL_MIN + dwell_span * rand()) / tick) or 1
                poke_gap_ticks = round(
                    (POKE_GAP_MIN + poke_gap_span * rand()) / tick) or 1
                append((site << (2 * _SEG_BITS))
                       | (dwell_ticks << _SEG_BITS) | poke_gap_ticks)
            off[uid + 1] = len(codes)
            meta = _M_REAL_ARRIVE if uid in real_uids else _M_ARRIVE
            wake(arrival_idx, uid, meta)

    # -- execution ---------------------------------------------------------
    def _dispatch(self, idx: int, uids: list, metas: list) -> None:
        """One tick: every wake due at ``idx``, consumed in append order
        with the columns, the clock and the tick index bound once.  New
        wakes go through ``engine.wake`` one by one as they arise — their
        append order in the destination tick is simulated behaviour."""
        now = self.sim._now     # the property is a call; constant in a tick
        epoch = self.ue_epoch
        idle_tokens = self.ue_idle_token
        ue_seg = self.ue_seg
        ue_site = self.ue_site
        retried = self.ue_retried
        started = self.ue_attach_started
        codes = self.script_codes
        off = self.script_off
        site_attached = self.site_attached
        submit = self.broker.submit
        wake = self.engine.wake
        idle_idx = idx + self._idle_ticks
        # `actions` counts *effective* lifecycle steps only — stale
        # wakeups (token mismatch) are bookkeeping, not workload.
        actions = 0
        for uid, meta in zip(uids, metas):
            action = meta >> _ACTION_SHIFT
            if action == A_ARRIVE:
                actions += 1
                self.arrived += 1
                started[uid] = now
                submit(uid)
                continue
            token = (meta >> _ARG_BITS) & _TOKEN_MASK
            if action >= A_REAL_ARRIVE:
                # The mixed-fidelity cohort runs the real SAP stack.
                self.real_cohort.on_wake(uid, action, token)
                continue
            if token != epoch[uid]:
                continue
            if action == A_POKE:
                # Keep-alive: re-arm the idle timer.  The previous
                # deadline is not cancelled: its token is stale, so the
                # A_IDLE branch drops it.
                actions += 1
                idle = idle_tokens[uid] = idle_tokens[uid] + 1
                token_field = token << _ARG_BITS
                wake(idle_idx, uid, _M_IDLE | token_field | idle)
                arg = meta & _ARG_MASK
                if arg > 0:
                    wake(idx + (codes[off[uid] + ue_seg[uid]] & _SEG_MASK),
                         uid, _M_POKE | token_field | (arg - 1))
            elif action == A_ATTACH_DONE:
                actions += 1
                seg = codes[off[uid] + ue_seg[uid]]
                site = ue_site[uid] if retried[uid] \
                    else seg >> (2 * _SEG_BITS)
                if site_attached[site] >= self.site_capacity:
                    self.attach_failures += 1
                    if retried[uid]:
                        self.gave_up += 1
                        continue
                    # One deterministic retry against the neighbouring site.
                    retried[uid] = 1
                    self.retries += 1
                    ue_site[uid] = (site + 1) % self.n_sites
                    submit(uid)
                    continue
                ue_site[uid] = site
                site_attached[site] += 1
                self.attach_ok += 1
                self.attach_latencies_ms.append(
                    round((now - started[uid]) * 1000.0, 4))
                dwell_ticks = (seg >> _SEG_BITS) & _SEG_MASK
                poke_gap_ticks = seg & _SEG_MASK
                token_field = token << _ARG_BITS
                wake(idx + dwell_ticks, uid, _M_SEG_END | token_field)
                pokes = min(MAX_POKES_PER_SEGMENT,
                            dwell_ticks // poke_gap_ticks)
                if pokes > 0:
                    wake(idx + poke_gap_ticks, uid,
                         _M_POKE | token_field | (pokes - 1))
                idle = idle_tokens[uid] = idle_tokens[uid] + 1
                wake(idle_idx, uid, _M_IDLE | token_field | idle)
            else:
                # A_IDLE (only the latest idle token is live) / A_SEG_END:
                # both detach.
                if action == A_IDLE and meta & _ARG_MASK != idle_tokens[uid]:
                    continue
                actions += 1
                site = ue_site[uid]
                if site >= 0:
                    site_attached[site] -= 1
                    ue_site[uid] = -1
                epoch[uid] += 1
                if action == A_IDLE:
                    self.idle_detaches += 1
                elif off[uid] + ue_seg[uid] + 1 < off[uid + 1]:
                    ue_seg[uid] += 1
                    self.moves += 1
                    started[uid] = now
                    retried[uid] = 0
                    submit(uid)
                else:
                    self.departed += 1
        self.actions += actions

    def run(self) -> dict:
        """Execute to completion; returns the cell dict for the report."""
        if self.kpi_collector is not None:
            self.kpi_collector.start()
        wall_start = time.perf_counter()
        processed = self.sim.run(until=self.duration + DRAIN_GRACE)
        wall = max(time.perf_counter() - wall_start, 1e-9)
        if self.kpi_collector is not None:
            self.kpi_collector.stop()
        sim_seconds = self.sim.now
        latencies = self.attach_latencies_ms
        workload = {
            "ues": self.ues,
            "sites": self.n_sites,
            "duration_s": self.duration,
            "tick_s": self.tick,
            "seed": self.seed,
            "adaptive_window": True,    # hashed into every pinned digest
            "site_capacity": self.site_capacity,
            "arrived": self.arrived,
            "attach_ok": self.attach_ok,
            "attach_failures": self.attach_failures,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "moves": self.moves,
            "idle_detaches": self.idle_detaches,
            "departed": self.departed,
            "actions": self.actions,
            "broker_batches": self.broker.batches,
            "broker_requests": self.broker.requests,
            "broker_full_flushes": self.broker.full_flushes,
            "attach_ms_mean": round(mean(latencies), 4) if latencies
            else 0.0,
            "attach_ms_p50": round(percentile(latencies, 50), 4)
            if latencies else 0.0,
            "attach_ms_p99": round(percentile(latencies, 99), 4)
            if latencies else 0.0,
        }
        # Mixed-fidelity keys appear ONLY when the feature is on, so a
        # --real-fraction 0 run keeps the byte-identical baseline digest.
        if self.real_cohort is not None:
            workload["real_fraction"] = self.real_fraction
            workload["real_cohort"] = self.real_cohort.summary()
        digest = hashlib.sha256(json.dumps(
            workload, sort_keys=True).encode()).hexdigest()
        peak_rss = _peak_rss_bytes()
        perf = {
            # Constructor seconds, then `sim.run` seconds; the two rates
            # divide by wall_s alone.
            "build_s": round(self._build_s, 4),
            "wall_s": round(wall, 4),
            "ues_per_sec": round(self.ues / wall, 1),
            "actions_per_sec": round(self.actions / wall, 1),
            "wall_per_sim_second": round(wall / max(sim_seconds, 1e-9), 6),
            "events_processed": processed,
            "events_scheduled": self.sim.events_scheduled,
            "peak_event_queue": self.sim.peak_queue,
            "heap_compactions": self.sim.compactions,
            "peak_rss_mb": round(peak_rss / (1024.0 * 1024.0), 2),
            # Peak-RSS growth across this workload's lifetime, per UE —
            # the SoA memory gate.  Only meaningful for the first cell
            # of a process (peak RSS never shrinks).
            "rss_per_ue_bytes": round(
                max(0.0, peak_rss - self._rss_before) / self.ues, 1),
        }
        return {"workload": workload, "digest": digest, "perf": perf}


def run_cell(*, ues: int = 100_000, sites: int = 256,
             duration: float = 60.0, tick: float = 0.05, seed: int = 7,
             real_fraction: float = 0.0, real_rat: str = "lte",
             real_sites: int = 4, kpi_store=None,
             kpi_interval: float = 1.0) -> dict:
    """Run one megaload cell.  ``real_fraction`` samples that slice of
    the population into the full-fidelity SAP cohort (``real_rat``
    selects the stack, ``real_sites`` sizes its RAN); beside a cohort
    the scripted broker charges ``AUTH_REQUEST_PROCESSING`` per attach
    instead of ``BROKER_ATTACH_COST``.  With
    ``kpi_store`` (a :class:`~repro.obs.fleet.FleetKpiStore`), a
    read-only collector samples workload/broker/site KPIs every
    ``kpi_interval`` sim-seconds — the workload digest is unaffected."""
    workload = MegaloadWorkload(
        ues=ues, sites=sites, duration=duration, tick=tick, seed=seed,
        real_fraction=real_fraction, real_rat=real_rat,
        real_sites=real_sites)
    if kpi_store is not None:
        workload.attach_kpi_collector(kpi_store, interval=kpi_interval)
    return workload.run()


def run_megaload(*, ues: int = 100_000, sites: int = 256,
                 duration: float = 60.0, tick: float = 0.05,
                 seed: int = 7, **cell_options) -> dict:
    """The ``BENCH_megaload.json`` report: the configuration and its
    cell.  ``cell_options`` (the mixed-fidelity and KPI knobs) pass
    straight to :func:`run_cell`."""
    report = {
        "bench": "megaload",
        "config": {"ues": ues, "sites": sites, "duration_s": duration,
                   "tick_s": tick, "seed": seed},
        "cells": [run_cell(ues=ues, sites=sites, duration=duration,
                           tick=tick, seed=seed, **cell_options)],
    }
    if cell_options.get("real_fraction", 0.0) > 0:
        cohort = report["cells"][0]["workload"]["real_cohort"]
        report["config"].update(
            real_fraction=cell_options["real_fraction"],
            real_rat=cohort["rat"], real_sites=cohort["sites"])
    return report


# ---------------------------------------------------------------------------
# --smoke: one seeded configuration and the facts it must reproduce.  A
# pin moves only with the workload model: rerun the smoke, copy the value
# it prints into the constant, and say why in the commit.
# ---------------------------------------------------------------------------

SMOKE = dict(ues=100_000, sites=256, duration=60.0, tick=0.05, seed=7)
#: sha256 over SMOKE's workload counters — the same on every host.
SMOKE_DIGEST = \
    "b6b306f2b8390463f3e7d801da5e940f0088eb91aebd4601fa9714d06a2e0e16"
#: resident bytes per scripted UE the SoA layout must stay under
#: (~125 measured); a size, not a clock.
MAX_RSS_PER_UE_BYTES = 512
#: the mixed-fidelity micro-cell: a real SAP cohort sharing one clock
#: and one broker cost with the scripted population.
SMOKE_MIXED = dict(ues=20_000, sites=64, duration=20.0, tick=0.05, seed=7,
                   real_fraction=0.002, real_sites=2)
#: sha256 over SMOKE_MIXED's workload counters, cohort summary included.
SMOKE_MIXED_DIGEST = \
    "8240a76394d85f0f22c98f88233ad318b204b7a696966926a7dee45efc519ab8"


def smoke(kpi_store=None) -> dict:
    """The ``megaload --smoke`` run: :data:`SMOKE` (first, so its RSS/UE
    is a cold-process figure), then :data:`SMOKE_MIXED` under ``mixed``
    (sampled into ``kpi_store`` when given)."""
    report = run_megaload(**SMOKE)
    report["mixed"] = run_cell(kpi_store=kpi_store, **SMOKE_MIXED)
    return report


def gates(report: dict) -> list:
    """What a :func:`smoke` report must show."""
    cell, mixed = report["cells"][0], report["mixed"]
    rss = cell["perf"]["rss_per_ue_bytes"]
    attached = mixed["workload"]["real_cohort"]["attach_ok"]
    return [
        gate("digest", cell["digest"], SMOKE_DIGEST,
             cell["digest"] == SMOKE_DIGEST),
        gate("rss_per_ue_bytes", rss, MAX_RSS_PER_UE_BYTES,
             rss <= MAX_RSS_PER_UE_BYTES),
        gate("mixed:digest", mixed["digest"], SMOKE_MIXED_DIGEST,
             mixed["digest"] == SMOKE_MIXED_DIGEST),
        gate("mixed:real_attaches", attached, 1, attached >= 1),
    ]


OBSERVE_SMOKE = dict(ues=20_000, sites=256, duration=30.0, seed=7)


def observe(*, smoke: bool = False, interval: float = 1.0,
            **config) -> dict:
    """One cell under the fleet observatory's read-only KPI collector.
    ``smoke`` runs :data:`OBSERVE_SMOKE` and adds what
    :func:`observe_gates` compares it with: the collector-free cell and
    the KPI JSON of a second collected run."""
    from repro.obs.fleet import FleetKpiStore

    if smoke:
        config = OBSERVE_SMOKE
    store = FleetKpiStore("megaload")
    seen = {"config": {**config, "kpi_interval_s": interval},
            "store": store,
            "cell": run_cell(kpi_store=store, kpi_interval=interval,
                             **config)}
    if smoke:
        seen["bare"] = run_cell(**config)
        again = FleetKpiStore("megaload")
        run_cell(kpi_store=again, kpi_interval=interval, **config)
        seen["rerun_kpi_json"] = again.to_json()
    return seen


def observe_gates(seen: dict) -> list:
    """What a ``smoke`` :func:`observe` must show: the collector is
    passive, deterministic, and costs one event per window after the
    first — the count the old 5 % wall-clock allowance approximated."""
    cell, bare, store = seen["cell"], seen["bare"], seen["store"]
    same_json = store.to_json() == seen["rerun_kpi_json"]
    extra = cell["perf"]["events_processed"] \
        - bare["perf"]["events_processed"]
    return [
        gate("digest_equals_collector_free_run", cell["digest"],
             bare["digest"], cell["digest"] == bare["digest"]),
        gate("kpi_json_identical_across_runs", same_json, True, same_json),
        gate("collector_events", extra, len(store.rows) - 1,
             extra == len(store.rows) - 1),
    ]
