"""Span-based tracing on the simulator clock.

A :class:`Span` is a named interval of *virtual* time attributed to one
node (``sap.broker_verify`` at ``brokerd``); spans form trees via
``(trace_id, parent_id)`` links that ride the signaling layer's existing
correlation machinery, so one attach yields a causally-linked tree across
UE → eNodeB → AGW → brokerd.  Instants (zero-length spans) annotate point
events: retransmissions, dedup-cache replays, chaos faults, MPTCP subflow
changes.

The tracer is *passive*: it never schedules simulator events, never draws
randomness, and all timestamps are passed in by the instrumentation
points — so enabling tracing cannot perturb a seeded run, and two
identical runs produce byte-identical traces.  Memory is bounded by a
ring buffer (``capacity`` spans; the oldest are dropped and counted).

Instrumentation is zero-cost when disabled: components read ``sim.obs``
(``None`` on a fresh :class:`~repro.net.Simulator`) and skip every
recording path until :func:`install` — the only writer — has put an
:class:`Obs` there.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from .metrics import MetricsRegistry

KIND_SPAN = "span"
KIND_INSTANT = "instant"


class Span:
    """One named interval (or instant) of virtual time at one node."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "category", "start", "end", "kind", "status", "corr_id",
                 "data")

    def __init__(self, trace_id: int, span_id: int, parent_id: int,
                 name: str, node: str, category: str, start: float,
                 end: Optional[float], kind: str = KIND_SPAN,
                 corr_id: int = 0, data: Optional[dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.category = category
        self.start = start
        self.end = end
        self.kind = kind
        self.status = "ok"
        self.corr_id = corr_id
        self.data = data

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def context(self) -> tuple:
        """The ``(trace_id, span_id)`` pair children parent under."""
        return (self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        """Deterministic wire form (used by the JSONL exporter)."""
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "category": self.category,
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "kind": self.kind,
            "status": self.status,
        }
        if self.corr_id:
            out["corr_id"] = self.corr_id
        if self.data:
            out["data"] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name} t={self.trace_id} s={self.span_id} "
                f"[{self.start:.6f},{self.end}]>")


class Tracer:
    """Ring-buffered span recorder with deterministic id allocation."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.spans_recorded = 0
        self.spans_dropped = 0

    # -- recording --------------------------------------------------------
    def _record(self, span: Span) -> Span:
        if len(self._spans) == self.capacity:
            self.spans_dropped += 1
        self._spans.append(span)
        self.spans_recorded += 1
        return span

    def start_trace(self, name: str, node: str, category: str,
                    start: float, ctx: Optional[tuple] = None) -> Span:
        """Open a new root span under a fresh trace id (ends later via
        :meth:`finish` — e.g. the UE's whole-attach span).  With ``ctx``
        (a parent span's ``(trace_id, span_id)``) the open span joins
        that trace as a child instead — used when an attach runs *inside*
        a mobility switch, so the re-auth leg nests under the migration
        root rather than starting a trace of its own."""
        if ctx is not None:
            trace_id, parent_id = ctx
        else:
            trace_id, parent_id = next(self._trace_ids), 0
        return self._record(Span(
            trace_id=trace_id, span_id=next(self._span_ids),
            parent_id=parent_id, name=name, node=node, category=category,
            start=start, end=None))

    def begin(self, name: str, node: str, category: str, start: float,
              end: float, trace_id: int = 0, parent_id: int = 0,
              corr_id: int = 0) -> Span:
        """Record a span whose interval is already known (the scheduled
        processing window of a signaling handler).  A zero ``trace_id``
        roots a fresh trace."""
        if trace_id == 0:
            trace_id = next(self._trace_ids)
            parent_id = 0
        return self._record(Span(
            trace_id=trace_id, span_id=next(self._span_ids),
            parent_id=parent_id, name=name, node=node, category=category,
            start=start, end=end, corr_id=corr_id))

    def finish(self, span: Span, end: float, status: str = "ok") -> None:
        span.end = end
        span.status = status

    def instant(self, name: str, node: str, at: float, trace_id: int = 0,
                parent_id: int = 0, category: str = "",
                data: Optional[dict] = None) -> Span:
        """Record a point event (retransmission, dedup replay, fault)."""
        return self._record(Span(
            trace_id=trace_id, span_id=next(self._span_ids),
            parent_id=parent_id, name=name, node=node, category=category,
            start=at, end=at, kind=KIND_INSTANT, data=data))

    # -- access -----------------------------------------------------------
    def spans(self) -> list:
        return list(self._spans)

    def traces(self) -> dict:
        """Spans grouped by trace id (insertion-ordered within a trace)."""
        grouped: dict[int, list] = {}
        for span in self._spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def clear(self) -> None:
        self._spans.clear()


class Obs:
    """The installable telemetry handle: a tracer plus a fleet registry.

    ``Obs()`` is tracing-enabled by default; ``Obs(tracing=False)`` keeps
    only the metrics side.  Install on a simulator with :func:`install`;
    components read it as ``sim.obs``, so an uninstrumented run pays one
    attribute read per hot-path check and records nothing.
    """

    def __init__(self, tracing: bool = True):
        self.tracing = tracing
        self.tracer = Tracer()
        #: registry for harness-level metrics (per-leg histograms etc.);
        #: node metrics live on each node and are merged on demand.
        self.metrics = MetricsRegistry(node="obs")
        #: open ``migration`` root spans keyed by data-path UE host name.
        #: :class:`~repro.core.mobility.MobilityManager` opens them on
        #: ``switch_to``; MPTCP/QUIC endpoints parent their re-establish
        #: spans under the entry for ``self.host.name``; the app layer
        #: (``repro.apps.transport``) closes the root when the first
        #: post-switch payload byte is delivered.
        self.active_migrations: dict = {}


def install(sim, obs: Optional[Obs] = None) -> Obs:
    """Attach an :class:`Obs` to ``sim`` (creating one if not given) so
    every component running on that simulator records into it."""
    if obs is None:
        obs = Obs()
    sim.obs = obs
    return obs
