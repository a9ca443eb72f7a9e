"""Trace exporters and the Fig 7 per-leg breakdown analysis.

Three formats:

* **JSONL** — one sorted-key JSON object per span, in recording order.
  Deterministic: two identical seeded runs produce byte-identical files
  (virtual timestamps only, stable id allocation, sorted keys).
* **Chrome trace_event** — load into ``chrome://tracing`` / Perfetto;
  spans become complete ("X") events on one row per node, instants
  become "i" events.
* **text summary** — per-span-name count / total / mean table for quick
  terminal inspection.

:func:`attach_leg_breakdown` turns an attach trace into the paper's
Fig 7 decomposition: per-category processing time clipped to the root
``attach`` span's window, with transit as the exact remainder — so the
four legs sum to the end-to-end latency by construction.
"""

from __future__ import annotations

import json
from typing import Optional

# Chrome trace_event timestamps are microseconds.
_US = 1e6

#: Fig 7 leg names, in display order.  ``radio_nas_transit_ms`` includes
#: eNodeB relay processing (the paper's radio leg) and is computed as the
#: remainder, so the legs always sum exactly to ``total_ms``.
LEG_NAMES = ("ue_crypto_ms", "radio_nas_transit_ms", "btelco_verify_ms",
             "broker_verify_sign_ms")

# span.category -> leg (everything else, including "enb", lands in the
# transit remainder).
_CATEGORY_LEG = {
    "ue": "ue_crypto_ms",
    "agw": "btelco_verify_ms",
    "cloud": "broker_verify_sign_ms",
}


def spans_to_jsonl(spans) -> str:
    """One JSON object per line, sorted keys — byte-stable across runs."""
    lines = [json.dumps(span.to_dict(), sort_keys=True,
                        separators=(",", ":"))
             for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


#: Chrome's synthetic process id — the whole sim is one "process"; rows
#: (tids) are nodes.
_CHROME_PID = 1


def chrome_thread_ids(spans) -> dict:
    """Deterministic collision-free ``node name -> tid`` mapping: nodes
    are enumerated in sorted order, so two runs over the same topology
    assign identical tids and their Chrome traces line up row-for-row."""
    return {node: tid for tid, node
            in enumerate(sorted({span.node for span in spans}), start=1)}


def spans_to_chrome(spans) -> dict:
    """Chrome ``trace_event`` JSON (open in chrome://tracing).

    One row (tid) per node, assigned by :func:`chrome_thread_ids`;
    ``M``-phase metadata events name the process and each thread so the
    viewer shows node names instead of bare integers.  The trace id
    travels in ``args`` (Chrome has no native trace grouping).
    """
    tids = chrome_thread_ids(spans)
    events = [{
        "name": "process_name", "ph": "M", "pid": _CHROME_PID, "tid": 0,
        "args": {"name": "repro-sim"},
    }]
    for node in sorted(tids):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _CHROME_PID,
            "tid": tids[node], "args": {"name": node},
        })
    for span in spans:
        base = {
            "name": span.name,
            "cat": span.category or "obs",
            "pid": _CHROME_PID,
            "tid": tids[span.node],
            "ts": round(span.start * _US, 3),
            "args": {"trace_id": span.trace_id,
                     "span_id": span.span_id,
                     "parent_id": span.parent_id},
        }
        if span.corr_id:
            base["args"]["corr_id"] = span.corr_id
        if span.data:
            base["args"].update(span.data)
        if span.kind == "instant":
            base["ph"] = "i"
            base["s"] = "t"
        else:
            base["ph"] = "X"
            base["dur"] = round((span.duration) * _US, 3)
        events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(spans) -> str:
    """Per-span-name text table: count, total ms, mean ms, instants."""
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0])
        if span.kind == "instant":
            entry[2] += 1
        else:
            entry[0] += 1
            entry[1] += span.duration
    lines = [f"{'span':32s} {'count':>7s} {'total ms':>10s} "
             f"{'mean ms':>9s} {'events':>7s}"]
    for name in sorted(totals):
        count, total, instants = totals[name]
        mean = total / count * 1000.0 if count else 0.0
        lines.append(f"{name:32s} {count:7d} {total * 1000.0:10.3f} "
                     f"{mean:9.4f} {instants:7d}")
    return "\n".join(lines)


def _clipped(span, start: float, end: float) -> float:
    """Span duration restricted to the [start, end] window."""
    if span.end is None:
        return 0.0
    return max(0.0, min(span.end, end) - max(span.start, start))


def attach_leg_breakdown(spans) -> list:
    """Per-attach leg decomposition from a recorded trace.

    Returns one dict per completed root span, each with ``total_ms``,
    the four ``LEG_NAMES`` (summing exactly to ``total_ms``), plus an
    informational ``enb_ms`` (contained inside the transit leg).
    """
    by_trace: dict[int, list] = {}
    roots: list = []
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.name == "attach" and span.parent_id == 0 \
                and span.end is not None and span.status == "ok":
            roots.append(span)

    breakdowns = []
    for root in roots:
        total = root.duration
        sums = {"ue": 0.0, "agw": 0.0, "cloud": 0.0, "enb": 0.0}
        for span in by_trace[root.trace_id]:
            if span is root or span.kind == "instant":
                continue
            if span.category in sums:
                sums[span.category] += _clipped(span, root.start, root.end)
        transit = max(0.0, total - sums["ue"] - sums["agw"] - sums["cloud"])
        breakdowns.append({
            "trace_id": root.trace_id,
            "total_ms": total * 1000.0,
            "ue_crypto_ms": sums["ue"] * 1000.0,
            "radio_nas_transit_ms": transit * 1000.0,
            "btelco_verify_ms": sums["agw"] * 1000.0,
            "broker_verify_sign_ms": sums["cloud"] * 1000.0,
            "enb_ms": sums["enb"] * 1000.0,
        })
    return breakdowns


#: Migration leg names, in timeline order.  Unlike the Fig 7 legs (which
#: clip per-category processing), a handover's phases *overlap* in wall
#: time (the broker re-auth races the transport's address-loss timer), so
#: the stall is partitioned sequentially at two boundaries: re-auth done,
#: transport re-established.  The three legs sum exactly to ``total_ms``
#: by construction.
MIGRATION_LEG_NAMES = ("reauth_ms", "transport_ms", "drain_ms")

#: child spans that mark the transport re-established boundary.
_TRANSPORT_ESTABLISH = ("mptcp.subflow_establish", "quic.path_validation")


def migration_leg_breakdown(spans) -> list:
    """Per-switch stall decomposition from a recorded migration trace.

    Each completed ``migration`` root (opened by ``switch_to``, closed
    when the first post-switch payload byte reaches the application)
    yields ``total_ms`` partitioned into:

    * ``reauth_ms`` — detach until the broker-brokered re-attach granted
      a new bearer (the ``migration.reauth`` child span's end);
    * ``transport_ms`` — until the data path re-established (last MPTCP
      subflow join / QUIC path validation finishing inside the window);
    * ``drain_ms`` — remainder: retransmit/reinject drain of the old
      path until payload flows again.

    Boundaries are clamped monotonic, so the legs sum *exactly* to
    ``total_ms`` — the Fig 7 invariant, extended to the data path.
    """
    by_trace: dict[int, list] = {}
    roots: list = []
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.name == "migration" and span.parent_id == 0 \
                and span.end is not None and span.status == "ok":
            roots.append(span)

    breakdowns = []
    for root in roots:
        t0, t3 = root.start, root.end
        reauth_end = t0
        transport_end = t0
        establish_name = ""
        for span in by_trace[root.trace_id]:
            if span is root or span.kind == "instant" or span.end is None:
                continue
            if span.name == "migration.reauth" and span.status == "ok":
                reauth_end = max(reauth_end, span.end)
            elif span.name in _TRANSPORT_ESTABLISH and span.status == "ok":
                if span.end >= transport_end:
                    transport_end = span.end
                    establish_name = span.name
        t1 = min(max(reauth_end, t0), t3)
        t2 = min(max(transport_end, t1), t3)
        breakdowns.append({
            "trace_id": root.trace_id,
            "total_ms": (t3 - t0) * 1000.0,
            "reauth_ms": (t1 - t0) * 1000.0,
            "transport_ms": (t2 - t1) * 1000.0,
            "drain_ms": (t3 - t2) * 1000.0,
            "transport": establish_name,
        })
    return breakdowns


def mean_leg_breakdown(breakdowns) -> Optional[dict]:
    """Average the per-attach breakdowns (None if there are none)."""
    if not breakdowns:
        return None
    keys = ("total_ms",) + LEG_NAMES + ("enb_ms",)
    return {key: sum(b[key] for b in breakdowns) / len(breakdowns)
            for key in keys}
