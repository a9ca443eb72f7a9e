"""What the two migrating transports share.

MPTCP (:mod:`repro.net.mptcp`) and QUIC (:mod:`repro.net.quic`) both
carry one byte stream across an address change, so both ends of both
need the same two things: exact-once in-order reassembly of ranges that
may arrive twice (re-injection, retransmission), and data-path spans
that nest under an in-flight mobility switch.
"""

from __future__ import annotations


class Reassembly:
    """Exact-once, in-order delivery of ``(offset, length)`` ranges."""

    def __init__(self):
        self.delivered = 0                  # next in-order offset
        self._pending: dict[int, int] = {}  # offset -> length, past a gap

    def receive(self, offset: int, length: int) -> int:
        """Register ``length`` bytes at ``offset``; returns the bytes
        newly deliverable in order (0 for duplicates / out-of-order)."""
        end = offset + length
        if end <= self.delivered:
            return 0  # pure duplicate (re-injection overlap)
        if offset > self.delivered:
            self._pending[offset] = max(self._pending.get(offset, 0), length)
            return 0
        newly = end - self.delivered
        self.delivered = end
        # Drain any out-of-order ranges now contiguous.  One ascending
        # pass suffices: each range either extends ``delivered`` (possibly
        # making the next one contiguous too) or sits past a gap, and
        # everything after a gap is even further out.
        for start in sorted(self._pending):
            if start > self.delivered:
                break
            tail = start + self._pending.pop(start)
            if tail > self.delivered:
                newly += tail - self.delivered
                self.delivered = tail
        return newly


class TracedEndpoint:
    """Data-path tracing for an endpoint with ``sim`` and ``host``.

    ``obs_layer`` names the transport: it is the span category and the
    prefix of the span's node (``mptcp:ue``).  Every method is a no-op
    unless an :class:`~repro.obs.Obs` with tracing on is installed.
    """

    obs_layer = ""

    def _obs_instant(self, name: str, **data) -> None:
        """Annotate a point event in this endpoint's lifecycle."""
        obs = self.sim.obs
        if obs is not None and obs.tracing:
            obs.tracer.instant(name, f"{self.obs_layer}:{self.host.name}",
                               self.sim.now, category=self.obs_layer,
                               data=data or None)

    def _obs_begin_span(self, name: str, **data):
        """Open a data-path span.  When a mobility switch is in flight for
        this host (``obs.active_migrations``), the span parents under the
        migration root so the handover stall decomposes into legs; outside
        a switch it roots a trace of its own."""
        obs = self.sim.obs
        if obs is None or not obs.tracing:
            return None
        parent = obs.active_migrations.get(self.host.name)
        ctx = parent.context if parent is not None \
            and parent.end is None else None
        span = obs.tracer.start_trace(
            name, f"{self.obs_layer}:{self.host.name}", self.obs_layer,
            self.sim.now, ctx=ctx)
        if data:
            span.data = data
        return span

    def _obs_finish(self, span, status: str = "ok") -> None:
        """Close an open data-path span now (idempotent; no-op on None)."""
        if span is not None and span.end is None:
            self.sim.obs.tracer.finish(span, self.sim.now, status)
