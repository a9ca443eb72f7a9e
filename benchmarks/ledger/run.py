#!/usr/bin/env python3
"""The ledger: five named workloads, two clocks, layers timed from outside.

    python3 benchmarks/ledger/run.py                    # every workload
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py --quick --reps 2   # ~1 s per workload
    python3 benchmarks/ledger/run.py compare A.json B.json

Every workload runs in fresh worker subprocesses (one process, one
thread).  The untraced pass sets up ``SETUPS`` times — interpreter start
to the end of the priming call, timed by this parent — and measures
reps in the last worker for ``--seconds``; the traced pass alternates
untraced and traced reps in one more worker, so per-layer numbers and
the tracing overhead come from the same process.  End-to-end numbers
never come from a traced rep.

With one ``--workload`` the last stdout line is the driver's JSON
object; ``--trace 0`` puts the end-to-end metrics in it, ``--trace 1``
the per-layer ones.  Without ``--trace`` both passes run and the result
file (``--out``, default ``benchmarks/ledger/out/``) holds everything.
"""

from __future__ import annotations

import sys
from time import perf_counter, process_time

_PROCESS_START = perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger import calibrate, metrics, trace, workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
#: set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
#: protocol lines a worker writes to stdout start with this.
TAG = "LEDGER "
#: every worker of one pass must be done this long after the pass began
#: (the driver allows a run 180 s).
PASS_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Worker: one process, one workload
# ---------------------------------------------------------------------------

def _emit(event: str, **fields) -> None:
    print(TAG + json.dumps({"event": event, **fields}), flush=True)


def _peak_rss_mb() -> float:
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB elsewhere.
    return raw / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else raw / 1024.0


def _rep(name: str, run, size: dict, seed, traced: bool):
    """One measured rep; with ``traced`` the public boundaries are
    patched for exactly the duration of the entry call.  Returns the
    rep record and its span recorder (None when untraced)."""
    from repro.crypto import verify_cache_stats
    gc.collect()
    collections = sum(g["collections"] for g in gc.get_stats())
    cache_before = verify_cache_stats()
    rec = patches = None
    if traced:
        rec = trace.Recorder()
        patches = trace.install(rec)
    cpu_start = process_time()
    start = perf_counter()
    try:
        if traced:
            root = rec.open(rec.name_id(name, trace.ROOT_LAYER))
            try:
                outcome = run(size, seed, rec)
            finally:
                rec.close(root)
        else:
            outcome = run(size, seed, None)
    finally:
        wall_s = perf_counter() - start
        if traced:
            patches.restore()
    rep = {
        "traced": traced, "wall_s": wall_s,
        "cpu_s": process_time() - cpu_start,
        "gc_collections":
            sum(g["collections"] for g in gc.get_stats()) - collections,
        **{key: outcome[key] for key in
           ("ops", "attempted", "failed", "sim", "digest", "checks")},
    }
    if traced:
        summary = rec.summary()
        layers = metrics.layer_metrics(
            summary, rec.seen, outcome, wall_s, cache_before,
            verify_cache_stats())
        layers["host.cpu_s"] = rep["cpu_s"]
        layers["host.gc_collections"] = rep["gc_collections"]
        layers["host.unattributed_frac"] = \
            summary["self_s"].get(trace.ROOT_LAYER, 0.0) / wall_s
        rep["layers"] = layers
        rep["spans"] = summary["spans"]
    return rep, rec


def worker(args) -> int:
    import repro  # noqa: F401 - the import is part of set-up
    import_s = perf_counter() - _PROCESS_START
    spins = [calibrate.spin()]
    name = args.workload[0]
    prime, run, _ = workloads.WORKLOADS[name]
    size = workloads.sizes(name, args.quick)
    seed = workloads.resolve_seed(name, args.seed)
    ready = {"import_s": import_s}
    start = perf_counter()
    if args.trace:
        rec = trace.Recorder()
        patches = trace.install(rec)
        try:
            prime(size, seed)
        finally:
            patches.restore()
        summary = rec.summary()
        ready["keys_generated"] = summary["calls"].get("generate_keypair", 0)
        ready["keygen_s"] = summary["total_s"].get("generate_keypair", 0.0)
    else:
        prime(size, seed)
    ready["prime_s"] = perf_counter() - start
    ready_at = time.time()
    spins.append(calibrate.spin())
    _emit("ready", ready_at=ready_at, spins=spins, **ready)
    rss_primed_mb = rss_first_rep_mb = _peak_rss_mb()
    reps = []
    rounds = 0
    start = perf_counter()
    while rounds < args.reps or perf_counter() - start < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            rep, _ = _rep(name, run, size, seed, traced)
            # Host speed around the rep: the spins before and after it.
            spins.append(calibrate.spin())
            rep["spin_s"] = (spins[-2] + spins[-1]) / 2
            reps.append(rep)
            if len(reps) == 1:
                rss_first_rep_mb = _peak_rss_mb()
        rounds += 1
    _emit("done", reps=reps, peak_rss_mb=_peak_rss_mb(),
          rss_growth_mb=rss_first_rep_mb - rss_primed_mb, seed=seed,
          sizes=size)
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn workers, aggregate, check
# ---------------------------------------------------------------------------

def _spawn(name: str, args, *, seconds: float, reps: int, traced: bool,
           deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker to completion.  Returns (reference-host seconds
    from spawn to primed, spawn and ready stamped on the shared wall
    clock; the worker's ready record; its done record)."""
    command = [sys.executable, str(Path(__file__).resolve()), "worker",
               "--workload", name, "--seconds", str(seconds),
               "--reps", str(reps), "--trace", str(int(traced))]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    # Hash randomisation is a noise source the harness can remove.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.time()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT), env=env,
                          timeout=max(1.0, deadline - perf_counter()))
    records = {}
    for line in proc.stdout.splitlines():
        if line.startswith(TAG):
            record = json.loads(line[len(TAG):])
            records[record["event"]] = record
    if proc.returncode != 0 or "ready" not in records:
        raise RuntimeError(
            f"{name}: worker exited with code {proc.returncode}")
    ready = records["ready"]
    first_spin, second_spin = ready["spins"]
    setup_s = calibrate.to_reference(
        ready["ready_at"] - spawned_at - first_spin,
        (first_spin + second_spin) / 2)
    return setup_s, ready, records.get("done")


def _stat(values: list, unit: str, quartile: int = 2) -> dict:
    """One reported number with its sample: the median, or with
    ``quartile`` 1 / 3 the lower / upper quartile."""
    value = statistics.quantiles(
        values, n=4, method="inclusive")[quartile - 1] \
        if len(values) > 1 else values[0]
    return {"value": value, "unit": unit, "n": len(values), "raw": values}


def _verify(reps: list, pinned: str | None) -> list[str]:
    """Output checks over every rep of both passes; returns problems."""
    problems = []
    for index, rep in enumerate(reps):
        problems += [f"rep {index}: check {check} failed"
                     for check, ok in rep["checks"].items() if not ok]
    first = reps[0]
    for index, rep in enumerate(reps[1:], 1):
        kind = "traced" if rep["traced"] else "untraced"
        if rep["digest"] != first["digest"]:
            problems.append(f"rep {index} ({kind}): digest differs")
        if rep["sim"] != first["sim"]:
            problems.append(f"rep {index} ({kind}): sim_* values differ")
    if pinned is not None and first["digest"] != pinned:
        problems.append(
            f"digest {first['digest'][:16]} != pinned {pinned[:16]}")
    return problems


def measure(name: str, args) -> dict:
    """Both passes (or the one ``--trace`` selects) of one workload."""
    def reference_wall(rep: dict) -> float:
        return calibrate.to_reference(rep["wall_s"], rep["spin_s"])

    untraced_pass = args.trace in (None, 0)
    traced_pass = args.trace in (None, 1)
    result = {"workload": name, "mode": "quick" if args.quick else "full"}
    all_reps: list = []
    if untraced_pass:
        deadline = perf_counter() + PASS_TIMEOUT_S
        setups = [_spawn(name, args, seconds=0, reps=0, traced=False,
                         deadline=deadline)[0]
                  for _ in range(SETUPS - 1)]
        setup_s, _, done = _spawn(name, args, seconds=args.seconds,
                                  reps=args.reps, traced=False,
                                  deadline=deadline)
        setups.append(setup_s)
        reps = done["reps"]
        all_reps += reps
        # Reference-host seconds (see calibrate.py), and the fast
        # quartile of the reps, not their median: a slow spell of the
        # host that outlasts a rep moves a median, rarely the quartile.
        walls = [reference_wall(r) for r in reps]
        result["end_to_end"] = {
            "ops_per_s": _stat([r["ops"] / w for r, w in zip(reps, walls)],
                               "1/s", quartile=3),
            "setup_s": _stat(setups, "s"),
            "peak_rss_mb": _stat([done["peak_rss_mb"]], "MB"),
        }
        result["ledger_only"] = {"wall_s": _stat(walls, "s", quartile=1)}
        result["raw"] = {"wall_s": [r["wall_s"] for r in reps],
                         "spin_s": [r["spin_s"] for r in reps]}
    if traced_pass:
        _, ready, done = _spawn(
            name, args, seconds=args.seconds, reps=args.reps, traced=True,
            deadline=perf_counter() + PASS_TIMEOUT_S)
        all_reps += done["reps"]
        plain = [r for r in done["reps"] if not r["traced"]]
        traced = [r for r in done["reps"] if r["traced"]]
        overhead = statistics.median(map(reference_wall, traced)) \
            / statistics.median(map(reference_wall, plain)) - 1.0
        extra = {"setup.import_s": ready["import_s"],
                 "setup.prime_s": ready["prime_s"],
                 "setup.keys_generated": ready["keys_generated"],
                 "setup.keygen_s": ready["keygen_s"],
                 "host.trace_overhead_frac": overhead,
                 # Peak RSS the first (untraced) rep added to the primed
                 # process: for megaload, the population's columns.
                 "host.rss_growth_mb": done["rss_growth_mb"]}
        for rep in traced:
            rep["layers"]["host.slowdown"] = \
                rep["spin_s"] / calibrate.REFERENCE_S
        result["per_layer"] = {
            metric: _stat([{**r["layers"], **extra}[metric]
                           for r in traced], unit)
            for metric, unit, _ in metrics.PER_LAYER}
        result["spans_per_rep"] = traced[-1]["spans"]
    result["seed"] = done["seed"]
    result["sizes"] = done["sizes"]
    defaults = args.seed is None and not args.quick
    pinned = workloads.LEDGER["digests"].get(name) if defaults else None
    result["problems"] = _verify(all_reps, pinned)
    result["correct"] = not result["problems"]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    result["attempted"] = attempted
    # A failed check fails the run: every op of the workload counts.
    result["failed"] = failed if result["correct"] else attempted
    first = all_reps[0]
    result["exact"] = {**first["sim"], "digest": first["digest"],
                       "failed_frac": result["failed"] / attempted}
    result["checks"] = sorted(first["checks"])
    return result


def _environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None    # the driver's checkout is not a repository
    return {"git_commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "loadavg_1m_start": os.getloadavg()[0]}


def _warn_if_loaded(environment: dict) -> None:
    load = max(environment["loadavg_1m_start"],
               environment.get("loadavg_1m_end", 0.0))
    environment["noisy"] = load > environment["nproc"]
    if environment["noisy"]:
        print(f"\n{'!' * 72}\n!! 1-min load average {load:.2f} exceeds "
              f"nproc={environment['nproc']}: this run is NOISY; do not "
              f"publish its wall-clock numbers.\n{'!' * 72}\n",
              file=sys.stderr)


def _print_result(result: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  seed={result['seed']}  sizes={result['sizes']}")
    for section in ("end_to_end", "ledger_only", "per_layer"):
        for metric, stat in result.get(section, {}).items():
            print(f"{name:16s} {metric:40s} {stat['value']:16.6f} "
                  f"{stat['unit']:6s} n={stat['n']} "
                  f"({metrics.BETTER[metric]} is better)")
    for metric, value in result["exact"].items():
        print(f"{name:16s} {metric:40s} {value!s:>16s} exact")
    print(f"{name:16s} attempted={result['attempted']} "
          f"failed={result['failed']} checks={','.join(result['checks'])} "
          f"-> {'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"{name:16s} PROBLEM: {problem}")


def run(args) -> int:
    names = args.workload or list(workloads.WORKLOADS)
    environment = _environment()
    _warn_if_loaded(environment)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            # A worker died or hung (its own traceback is on stderr):
            # no result line, non-zero exit.
            print(f"ledger: {error}", file=sys.stderr)
            return 1
        _print_result(results[name])
    environment["loadavg_1m_end"] = os.getloadavg()[0]
    _warn_if_loaded(environment)
    document = {"schema": 1, "claim": workloads.LEDGER["claim"],
                "environment": environment, "seed": args.seed,
                "seconds": args.seconds, "reps": args.reps,
                "trace": args.trace, "workloads": results}
    out = Path(args.out) if args.out else HERE / "out" / (
        f"ledger-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    correct = all(r["correct"] for r in results.values())
    if len(names) == 1 and args.trace is not None:
        only = results[names[0]]
        section = only["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": only["correct"], "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {metric: {"value": stat["value"],
                                 "unit": stat["unit"]}
                        for metric, stat in section.items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _iqr_share(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def _verdict(metric: str, a: dict, b: dict, bound: float,
             lower_is_better: bool) -> tuple[float, str]:
    """(ratio B/A, verdict) for one bounded host-clock metric."""
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1.0 if lower_is_better else 1.0 - ratio
    if max(_iqr_share(a["raw"]), _iqr_share(b["raw"])) > bound:
        # Spread wider than the bound: only a clean separation decides.
        sign = 1.0 if lower_is_better else -1.0
        if max(sign * v for v in b["raw"]) < min(sign * v for v in a["raw"]):
            return ratio, "better"
        if worse_by > bound and min(sign * v for v in b["raw"]) \
                > max(sign * v for v in a["raw"]):
            return ratio, "worse"
        return ratio, "unresolved"
    if worse_by > bound:
        return ratio, "worse"
    return ratio, "better" if worse_by < -bound else "same"


def compare(args) -> int:
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in args.files)
    print(f"A = {args.files[0]}  ({a_doc['environment']['git_commit']})")
    print(f"B = {args.files[1]}  ({b_doc['environment']['git_commit']})")
    print(f"{'workload':16s} {'metric':24s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>7s}  verdict")
    worse = 0
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        bounded = [("end_to_end", row) for row in metrics.END_TO_END] \
            + [("ledger_only", row) for row in metrics.LEDGER_ONLY]
        for section, (metric, _, better, bound) in bounded:
            if metric not in a.get(section, {}) \
                    or metric not in b.get(section, {}):
                continue
            sa, sb = a[section][metric], b[section][metric]
            ratio, verdict = _verdict(metric, sa, sb, bound,
                                      better == "lower")
            worse += verdict == "worse"
            print(f"{name:16s} {metric:24s} {sa['value']:14.6f} "
                  f"{sb['value']:14.6f} {ratio:8.4f} {bound:7.0%}  "
                  f"{verdict}")
        for metric, va in a["exact"].items():
            vb = b["exact"].get(metric)
            if va == vb:
                verdict = "same"
            elif metric == "digest" or vb is None:
                verdict = "worse"    # behaviour changed; cannot be ranked
            else:
                lower = metrics.BETTER.get(metric, "lower") == "lower"
                verdict = "better" if (vb < va) == lower else "worse"
            worse += verdict == "worse"
            show = (lambda v: str(v)[:14]) if metric == "digest" \
                else (lambda v: f"{v:.6f}")
            ratio = f"{vb / va:8.4f}" if metric != "digest" and va \
                and vb is not None else f"{'-':>8s}"
            print(f"{name:16s} {metric:24s} {show(va):>14s} "
                  f"{show(vb):>14s} {ratio} {'exact':>7s}  {verdict}")
    print(f"\n{worse} worse" if worse else "\nno metric is worse")
    return 1 if worse else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    default_seconds = 10
    if BENCHMARK.exists():
        default_seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare", "worker"))
    parser.add_argument("files", nargs="*",
                        help="compare: two result files")
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every workload's default seed")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="measure each pass for this long")
    parser.add_argument("--reps", type=int, default=1,
                        help="and for at least this many reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced pass only; 1: traced pass only")
    parser.add_argument("--quick", action="store_true",
                        help="~1 s sizes; never a reference number")
    parser.add_argument("--out", help="result file")
    args = parser.parse_args(argv)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return compare(args)
    if args.command == "worker":
        return worker(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
