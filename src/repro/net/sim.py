"""Discrete-event simulation engine.

Every substrate in this reproduction (LTE signaling, SAP, TCP/MPTCP, the
drive-test emulation) runs on this engine: a single virtual clock and a
binary-heap event queue.  Using virtual time makes every experiment
deterministic and hardware-independent — protocol processing costs are
explicit, calibrated parameters rather than wall-clock artifacts.

Scale notes (the megaload workload drives this engine with 10^5-10^6
UEs, see ``repro.testbed.megaload``):

* Cancellation is *lazy* — ``Event.cancel`` flags the entry, and the run
  loop discards it when popped.  At population scale the dominant event
  pattern is restartable timers (every ``Timer.start`` cancels the
  previous deadline), so the heap would otherwise fill with dead
  entries and every push/pop would pay ``O(log garbage)``.  The
  simulator therefore counts dead entries and compacts the heap when
  they outnumber the live ones.
* ``pending()`` is O(1): live events are counted at schedule/cancel/run
  time instead of scanning the queue.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "args", "cancelled", "sim")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: owning simulator while the entry is still queued; detached
        #: (None) once the event has run or been discarded, so a late
        #: ``cancel`` on a stale handle cannot skew the live counters.
        self.sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{flag}>"


#: below this queue size compaction is never worth the heapify.
_COMPACT_MIN_QUEUE = 512


class Simulator:
    """A deterministic event loop with a virtual clock (seconds).

    The simulator *is* the run: whatever a run reads that is not an
    argument of its entry point hangs off this object — the clock, the
    id counters (:meth:`sequence`) and the telemetry handle (``obs``) —
    so a second run in the same process starts where a fresh process
    would.
    """

    #: the installed :class:`repro.obs.Obs`, or None (the default: record
    #: nothing).  Written only by :func:`repro.obs.install`.
    obs = None

    def __init__(self):
        #: heap of ``(time, seq, event)``: ``seq`` is unique, so ordering
        #: (time, then FIFO among equal times) is settled by C tuple
        #: comparison and never reaches the Event.
        self._queue: list[tuple[float, int, Event]] = []
        self._now = 0.0
        self._running = False
        self._live = 0          # queued events that are not cancelled
        self._dead = 0          # cancelled events still in the heap
        # -- engine statistics (read by the megaload bench) --------------
        #: also the next heap ``seq``: it only ever counts up.
        self.events_scheduled = 0
        self.compactions = 0
        self.peak_queue = 0
        self._sequences: dict[str, count] = {}

    def sequence(self, name: str, start: int = 1) -> int:
        """The next value of this run's counter ``name`` (the first call
        fixes where it starts).  Identifiers that can reach an output —
        a span, a report — are drawn here, never from a module global or
        an object address."""
        counter = self._sequences.get(name)
        if counter is None:
            counter = self._sequences[name] = count(start)
        return next(counter)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})")
        event = Event(time, callback, args, self)
        queue = self._queue
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        heappush(queue, (time, seq, event))
        self._live += 1
        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)
        return event

    def _note_cancelled(self) -> None:
        """A queued event was cancelled: keep the counters exact and
        compact the heap once dead entries dominate the live ones."""
        self._live -= 1
        self._dead += 1
        if (self._dead > self._live
                and len(self._queue) >= _COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        Amortized O(1) per cancellation: a compaction costs O(n) but only
        runs after >= n/2 cancellations accumulated.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapify(queue)
        self._dead = 0
        self.compactions += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events processed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so back-to-back ``run`` calls
        compose naturally.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue     # compaction rewrites it in place
        try:
            while queue:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    self._dead -= 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(queue)
                self._live -= 1
                event.sim = None
                self._now = time
                event.callback(*event.args)
                processed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return processed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def clear(self) -> None:
        """Drop all queued events (used between experiment repetitions)."""
        for _, _, event in self._queue:
            event.cancelled = True
            event.sim = None
        self._queue.clear()
        self._live = 0
        self._dead = 0


class TickCalendar:
    """Quantized wakeup calendar: one heap event, and one ``dispatch``
    call, per *occupied* tick.

    Population-scale workloads (``repro.testbed.megaload``) step millions
    of lightweight actors whose wakeups all land on a fixed tick grid.
    Scheduling each wakeup as its own :class:`Event` costs a heap push, a
    heap pop, and a retained ``Event`` + args tuple per action; the
    calendar instead appends a ``(key, code)`` pair of **packed
    integers** to a per-tick bucket and schedules a single simulator
    event the first time a tick is occupied.  Firing a tick hands the
    whole bucket to the owner in one call, ``dispatch(idx, keys, codes)``
    — two equal-length lists in append order — so the owner binds its
    state once per tick, not once per wake.

    **Order rule.**  What a run simulates is the order wakes are
    consumed in: by tick, and within a tick in the order ``wake`` was
    called.  The bucket leaves the calendar before ``dispatch`` runs, so
    a wake queued *for the tick being fired* opens a fresh bucket and a
    second event at the same time, dispatched after the first — where
    one simulator event per wake would have put it.

    The hot path is pure index arithmetic with no per-wake retained
    allocation: buckets are paired ``array('i')`` columns (8 bytes per
    pending wakeup, vs ~100 B for a tuple entry) recycled through a
    freelist, so steady-state stepping allocates no fresh containers.
    The split into two 31-bit words is deliberate: a single 64-bit word
    holding an actor id above the low bits forces every decode through
    CPython's multi-digit int path, while key (actor id) and code
    (action/token payload) each stay single-digit.  Callers invalidate
    superseded wakeups by token at dispatch time instead of heap
    cancellation, which keeps the heap free of dead entries.
    """

    __slots__ = ("sim", "tick", "dispatch", "_buckets", "_freelist")

    def __init__(self, sim: "Simulator", tick: float,
                 dispatch: Callable[[int, list, list], Any]):
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        self.sim = sim
        self.tick = tick
        #: ``dispatch(idx, keys, codes)``, once per occupied tick; read
        #: when the tick fires, so it may be reassigned (the ledger wraps
        #: it in a timer after construction).
        self.dispatch = dispatch
        self._buckets: dict[int, tuple[array, array]] = {}
        self._freelist: list[tuple[array, array]] = []

    def wake(self, idx: int, key: int, code: int = 0) -> None:
        """Queue ``(key, code)`` for dispatch at tick ``idx``
        (virtual time ``idx * tick``); both must fit a signed 32-bit
        array slot."""
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._freelist.pop() if self._freelist \
                else (array("i"), array("i"))
            self._buckets[idx] = bucket
            self.sim.schedule_at(idx * self.tick, self._fire, idx)
        bucket[0].append(key)
        bucket[1].append(code)

    def pending(self) -> int:
        """Queued wakeups across all occupied ticks (diagnostics only)."""
        return sum(len(keys) for keys, _ in self._buckets.values())

    def _fire(self, idx: int) -> None:
        keys, codes = self._buckets.pop(idx)
        # tolist() boxes each column in one C call; iterating the arrays
        # would re-box per element through the iterator protocol.
        self.dispatch(idx, keys.tolist(), codes.tolist())
        del keys[:]
        del codes[:]
        if len(self._freelist) < 64:
            self._freelist.append((keys, codes))


class Timer:
    """A restartable one-shot timer (e.g. a TCP retransmission timer)."""

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire after ``delay`` seconds."""
        self.stop()
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
