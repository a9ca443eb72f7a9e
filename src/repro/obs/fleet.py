"""Fleet-wide KPI aggregation on the simulator clock.

A :class:`KpiCollector` is a thin periodic sampler: every ``interval``
virtual seconds it calls each registered *probe* (a plain callable
returning a flat ``{key: number}`` dict), turns cumulative counter
probes into **windowed deltas and per-second rates**, samples gauge
probes as instantaneous levels, and appends one row to a
:class:`FleetKpiStore`.

Design constraints (megaload-safe):

* **Sim clock only** — sampling is a scheduled simulator event; no wall
  time is ever read, so a collected run stays byte-identical to the
  seeded baseline and two collected runs produce byte-identical KPI
  JSON.
* **Allocation-light** — one shallow dict per probe per window, no
  per-UE state; probes read counters the workload already maintains.
* **Passive** — probes must not mutate workload state; the collector
  draws no randomness and sends no messages.

The store renders three ways: deterministic sorted-key JSON (the CI
artifact), a terminal dashboard built on
:mod:`repro.analysis.textplot`, and a dependency-free static HTML page.
"""

from __future__ import annotations

import json
from typing import Callable, Optional


class KpiCollector:
    """Periodic sim-clock sampler feeding a :class:`FleetKpiStore`.

    Probes come in two flavors:

    * ``add_counter_probe(name, fn)`` — ``fn()`` returns *cumulative*
      counts; the collector records per-window deltas (``<key>``) and
      per-second rates (``<key>_per_s``).
    * ``add_gauge_probe(name, fn)`` — ``fn()`` returns instantaneous
      levels, recorded as-is.

    Keys are namespaced ``<probe>.<key>`` in the emitted row.
    """

    def __init__(self, sim, store: "FleetKpiStore",
                 interval: float = 1.0,
                 horizon: Optional[float] = None):
        self.sim = sim
        self.store = store
        self.interval = interval
        #: stop sampling past this sim time (long-tail cleanup events —
        #: session-TTL sweeps — would otherwise stretch the row set over
        #: hours of idle virtual time).
        self.horizon = horizon
        self._counter_probes: list = []   # (name, fn)
        self._gauge_probes: list = []     # (name, fn)
        self._last: dict = {}             # probe name -> last cumulative
        self._event = None
        self._last_sample_at: Optional[float] = None
        self.samples = 0

    # -- wiring -----------------------------------------------------------
    def add_counter_probe(self, name: str,
                          fn: Callable[[], dict]) -> None:
        self._counter_probes.append((name, fn))

    def add_gauge_probe(self, name: str, fn: Callable[[], dict]) -> None:
        self._gauge_probes.append((name, fn))

    def add_latency_gauge(self, name: str,
                          values_fn: Callable[[], "list"]) -> None:
        """Gauge probe over a growing latency series (ms): sample count,
        mean, p50 and p99 each window.  ``values_fn`` returns the
        cumulative series; an empty series records only the count so
        JSON stays deterministic before first data."""
        from repro.analysis.stats import mean, percentile

        def probe() -> dict:
            values = values_fn()
            if not values:
                return {"count": 0}
            return {"count": len(values),
                    "mean_ms": round(mean(values), 4),
                    "p50_ms": round(percentile(values, 50.0), 4),
                    "p99_ms": round(percentile(values, 99.0), 4)}

        self.add_gauge_probe(name, probe)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Baseline every counter probe now and begin periodic sampling."""
        for name, fn in self._counter_probes:
            self._last[name] = dict(fn())
        self._last_sample_at = self.sim.now
        self._event = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Cancel the periodic event and flush the last partial window
        (how a run's tail makes it into the store)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if self._last_sample_at is not None \
                and self.sim.now > self._last_sample_at \
                and (self.horizon is None or self.sim.now <= self.horizon):
            self._sample()

    def _tick(self) -> None:
        self._sample()
        # Daemon-like: re-arm only while the workload itself still has
        # live events queued, so an unbounded ``sim.run()`` (the chaos
        # harness) still terminates once the drill drains — and never
        # past the horizon.
        if self.sim.pending() > 0 and (
                self.horizon is None
                or self.sim.now + self.interval <= self.horizon):
            self._event = self.sim.schedule(self.interval, self._tick)
        else:
            self._event = None

    # -- sampling ---------------------------------------------------------
    def _sample(self) -> None:
        now = self.sim.now
        window = now - (self._last_sample_at
                        if self._last_sample_at is not None else now)
        row = {"t": round(now, 9), "window_s": round(window, 9)}
        for name, fn in self._counter_probes:
            current = dict(fn())
            last = self._last.get(name, {})
            for key in current:
                delta = current[key] - last.get(key, 0)
                row[f"{name}.{key}"] = round(delta, 9)
                if window > 0:
                    row[f"{name}.{key}_per_s"] = round(delta / window, 6)
            self._last[name] = current
        for name, fn in self._gauge_probes:
            for key, value in fn().items():
                row[f"{name}.{key}"] = round(value, 9)
        self._last_sample_at = now
        self.samples += 1
        self.store.record(row)


class FleetKpiStore:
    """Windowed KPI rows plus render paths (JSON / terminal / HTML)."""

    def __init__(self, name: str = "fleet"):
        self.name = name
        self.rows: list = []

    def record(self, row: dict) -> None:
        self.rows.append(row)

    # -- access -----------------------------------------------------------
    def keys(self) -> list:
        """All KPI keys seen across rows, sorted (minus the time axis)."""
        seen: set = set()
        for row in self.rows:
            seen.update(row)
        seen.discard("t")
        seen.discard("window_s")
        return sorted(seen)

    def series(self, key: str) -> list:
        """The per-window values for one KPI (0 where a row lacks it)."""
        return [row.get(key, 0) for row in self.rows]

    def summary(self) -> dict:
        """Deterministic per-key min/max/mean over all windows."""
        out = {}
        for key in self.keys():
            values = self.series(key)
            out[key] = {
                "min": round(min(values), 6),
                "max": round(max(values), 6),
                "mean": round(sum(values) / len(values), 6),
            }
        return out

    # -- renderers --------------------------------------------------------
    def to_json(self) -> str:
        """Sorted-key JSON — byte-identical across identical seeded runs
        (every value in a row derives from the sim clock or sim state)."""
        payload = {"name": self.name, "windows": len(self.rows),
                   "rows": self.rows, "summary": self.summary()}
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write_json(self, path: str) -> int:
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return len(self.rows)

    def dashboard(self, keys: Optional[list] = None) -> str:
        """Terminal dashboard: one sparkline row per KPI, latest value
        and min/max annotated.  ``keys`` selects/orders the KPIs (default
        all, sorted)."""
        from repro.analysis.textplot import sparkline

        width = 48
        if keys is None:
            keys = self.keys()
        label_w = max((len(k) for k in keys), default=0)
        lines = [f"fleet KPIs · {self.name} · {len(self.rows)} windows"]
        for key in keys:
            values = self.series(key)
            if not values:
                continue
            tail = values[-width:]
            lines.append(
                f"{key:{label_w}s} {sparkline(tail):{width}s} "
                f"last={values[-1]:.2f} min={min(values):.2f} "
                f"max={max(values):.2f}")
        return "\n".join(lines)

    def to_html(self) -> str:
        """Static dependency-free HTML: an inline-SVG strip chart per
        KPI plus the summary table.  Deterministic output."""
        title = f"fleet KPIs — {self.name}"
        parts = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
                 f"<title>{title}</title>",
                 "<style>body{font-family:monospace;background:#111;"
                 "color:#ddd;margin:2em}h1{font-size:1.2em}"
                 ".kpi{margin:0.6em 0}.kpi b{display:inline-block;"
                 "min-width:28em}svg{vertical-align:middle;"
                 "background:#1b1b1b}td,th{padding:0 0.8em;"
                 "text-align:right}th{color:#9cf}</style></head><body>",
                 f"<h1>{title}</h1>",
                 f"<p>{len(self.rows)} windows</p>"]
        for key in self.keys():
            values = self.series(key)
            parts.append(f"<div class='kpi'><b>{key}</b> "
                         f"{_svg_strip(values)} "
                         f"last={values[-1]:.2f}</div>")
        parts.append("<table><tr><th>kpi</th><th>min</th><th>max</th>"
                     "<th>mean</th></tr>")
        for key, stats in self.summary().items():
            parts.append(f"<tr><td>{key}</td><td>{stats['min']:.2f}</td>"
                         f"<td>{stats['max']:.2f}</td>"
                         f"<td>{stats['mean']:.2f}</td></tr>")
        parts.append("</table></body></html>")
        return "\n".join(parts)


def _svg_strip(values) -> str:
    """A tiny inline-SVG polyline (240 x 28) for one KPI series."""
    width, height = 240, 28
    if not values:
        return "<svg width='240' height='28'></svg>"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = width / max(n - 1, 1)
    points = " ".join(
        f"{round(i * step, 1)},"
        f"{round(height - 2 - (v - lo) / span * (height - 4), 1)}"
        for i, v in enumerate(values))
    return (f"<svg width='{width}' height='{height}'>"
            f"<polyline fill='none' stroke='#6cf' stroke-width='1' "
            f"points='{points}'/></svg>")
