"""The broker's cost model: calibrated processing costs and batching.

What a broker charges per request, on the virtual clock, and the batch
timeline its pipeline parks requests on.  :class:`~repro.core.broker.Brokerd`,
:mod:`repro.core.shardhost` and megaload's scripted broker read it.  A
leaf: it imports nothing from ``crypto``, ``lte`` or ``net``, so a
process that only charges these costs loads none of the SAP stack.
"""

from __future__ import annotations

from typing import Optional

# brokerd processing per authentication request (seconds): decrypt,
# two verifies, two seals, two signs — the "Brokerd" share of Fig 7.
AUTH_REQUEST_PROCESSING = 0.0046
REPORT_PROCESSING = 0.0003
ACK_PROCESSING = 0.0002
# Scope-attach notice: one cert check (memoized at the CA layer), one
# signature verify, a counter compare — far off the attach critical path.
SCOPE_NOTICE_PROCESSING = 0.0009

# Calibrated decomposition of AUTH_REQUEST_PROCESSING for the batching
# pipeline.  The serial handler charges the lump sum; the pipeline
# charges the same work split across its stages, so a single request
# through an idle pipeline costs exactly AUTH_REQUEST_PROCESSING:
#   INGRESS + CERT_VALIDATE + 2*SIG_VERIFY + AUTHVEC_DECRYPT
#     + 2*SEAL_SIGN  =  0.0046
INGRESS_PROCESSING = 0.0002      # envelope parse + batch enqueue
CERT_VALIDATE_COST = 0.0008      # CA chain check (memoized per cert)
SIG_VERIFY_COST = 0.0004         # one PSS verify (sig_t / sig_authvec)
AUTHVEC_DECRYPT_COST = 0.0010    # RSA decrypt of the authVec
SEAL_SIGN_COST = 0.0009          # one seal_and_sign (RSA private op)
CACHED_VERIFY_COST = 0.00002     # verify-cache hit instead of a full check
DENIAL_FINISH_COST = 0.0001      # replay/policy rejection (no minting)
VERIFY_WORKERS = 4               # parallel stage-A verification lanes


class AdaptiveBatchWindow:
    """Nagle-style batch window derived from the observed arrival rate.

    The pipeline's fixed 2 ms window is the wrong constant at both ends
    of the load curve: a lone request waits the full window for peers
    that never arrive, and a sustained storm flushes long before a batch
    is worth its amortization.  This tracker keeps an EWMA of the
    inter-arrival gap and sizes the window to the time a full batch
    needs to assemble — clamped to ``[MIN_WINDOW, MAX_WINDOW]`` — while
    the daemon flushes immediately once ``FULL_SIZE`` requests are
    parked (the "flush when full" half of Nagle).  Sparse traffic
    (expected gap beyond ``MAX_WINDOW``) collapses to ``MIN_WINDOW``:
    nobody else is coming, don't hold the request hostage.

    Purely deterministic — it reads only the virtual clock, so
    identically-seeded runs replay identical batch boundaries.
    """

    MIN_WINDOW = 0.0002
    MAX_WINDOW = 0.008
    FULL_SIZE = 32
    GAP_ALPHA = 0.25                 # EWMA weight of the newest gap

    __slots__ = ("_ewma_gap", "_last_arrival")

    def __init__(self):
        self._ewma_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None

    def observe(self, now: float) -> None:
        """Record one request arrival at virtual time ``now``."""
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += self.GAP_ALPHA * (gap - self._ewma_gap)
        self._last_arrival = now

    def window(self) -> float:
        """Seconds to hold the current batch open before flushing."""
        gap = self._ewma_gap
        if gap is None or gap >= self.MAX_WINDOW:
            return self.MIN_WINDOW
        return min(self.MAX_WINDOW,
                   max(self.MIN_WINDOW, self.FULL_SIZE * gap))

    def full(self, batch_size: int) -> bool:
        return batch_size >= self.FULL_SIZE


class ParkedBatch:
    """Requests parked until their batch window closes — or fills.

    The one batching timeline under :class:`Brokerd`'s pipeline and
    megaload's scripted broker: the first request of a batch arms the
    owner's ``flush`` after the open window (``WINDOW`` seconds, or
    rate-derived when ``adaptive`` is set); a batch that fills first
    cancels that timer (lazily — the simulator compacts dead entries)
    and re-arms it at zero delay.  ``flush`` starts with :meth:`take`.
    """

    WINDOW = 0.002

    __slots__ = ("sim", "flush", "adaptive", "items", "_event",
                 "_flushing_now")

    def __init__(self, sim, flush,
                 adaptive: Optional[AdaptiveBatchWindow] = None):
        self.sim = sim
        self.flush = flush
        self.adaptive = adaptive
        self.items: list = []
        self._event = None
        self._flushing_now = False

    def park(self, item) -> bool:
        """Add ``item`` to the open batch; True when that filled it (a
        *full flush*, which the owner counts)."""
        adaptive = self.adaptive
        if adaptive is not None:
            adaptive.observe(self.sim._now)
        self.items.append(item)
        if self._event is None:
            self._event = self.sim.schedule(
                self.WINDOW if adaptive is None else adaptive.window(),
                self.flush)
        elif (adaptive is not None and not self._flushing_now
                and adaptive.full(len(self.items))):
            self._event.cancel()
            self._event = self.sim.schedule(0.0, self.flush)
            self._flushing_now = True
            return True
        return False

    def take(self) -> list:
        """Close the window: hand over the parked items and disarm."""
        self._event = None
        self._flushing_now = False
        items, self.items = self.items, []
        return items
