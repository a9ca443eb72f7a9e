"""Links: bandwidth, propagation delay, loss, shaping, and outages.

Two constructs matter for the CellBricks experiments:

* :class:`TokenBucket` — models carrier rate limiting (the paper's
  Appendix A shows T-Mobile enforcing ~1 Mbps day-time policies and
  relaxing them at night).  Crucially, the bucket keeps accumulating
  credit while a UE is detached during a handover, which is what lets the
  fresh MPTCP subflow briefly *overshoot* steady-state throughput after
  re-attachment (Fig 8's spike).
* :class:`SimplexLink` — a one-way pipe with serialization (size /
  bandwidth), propagation delay, drop-tail queue, random loss, and an
  up/down state used to model the radio interruption around handovers.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from .packet import Packet
from .sim import Simulator


def _seed_from_name(name: str) -> int:
    """Deterministic per-link RNG seed derived from the link name.

    Unseeded links used to share ``random.Random(0)``, so every link in a
    fleet drew the *same* loss sequence — correlated drops that made
    chaos runs look far worse (or better) than independent losses would.
    ``zlib.crc32`` is stable across processes and platforms (unlike
    ``hash``), so identically-named links still replay identically
    run-to-run while differently-named links decorrelate.
    """
    return zlib.crc32(name.encode("utf-8"))


class TokenBucket:
    """Token-bucket shaper with lazy refill.

    ``rate_bps`` is the policed rate in bits/second, ``burst_bytes`` the
    bucket depth.  ``delay_until_conforming`` returns how long a packet of
    a given size must wait before it conforms (0.0 if it can go now).
    """

    def __init__(self, rate_bps: float, burst_bytes: float):
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = burst_bytes
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst_bytes,
                               self._tokens + elapsed * self.rate_bps / 8.0)
            self._last_refill = now

    def tokens_at(self, now: float) -> float:
        """Bucket level (bytes) at time ``now`` without consuming."""
        self._refill(now)
        return self._tokens

    def delay_until_conforming(self, size_bytes: int, now: float) -> float:
        """Seconds until a packet of ``size_bytes`` conforms (0 = now)."""
        self._refill(now)
        if self._tokens >= size_bytes:
            return 0.0
        deficit = size_bytes - self._tokens
        return deficit * 8.0 / self.rate_bps

    def consume(self, size_bytes: int, now: float) -> None:
        """Debit ``size_bytes`` (may drive the bucket negative briefly when
        callers pre-computed a conforming time; kept clamped at -burst)."""
        self._refill(now)
        self._tokens = max(-self.burst_bytes, self._tokens - size_bytes)

    def reset(self, now: float) -> None:
        """Refill the bucket completely (a fresh attachment's policer)."""
        self._tokens = self.burst_bytes
        self._last_refill = now

    def set_rate(self, rate_bps: float) -> None:
        """Change the policed rate (e.g. the midnight policy switch)."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps


@dataclass
class LinkStats:
    """Counters exposed by every simplex link."""

    sent_packets: int = 0
    sent_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    dropped_down: int = 0
    dropped_police: int = 0


class SimplexLink:
    """A one-way link delivering packets to a receiver callback."""

    def __init__(self, sim: Simulator, name: str,
                 bandwidth_bps: float, delay_s: float,
                 loss_rate: float = 0.0,
                 queue_limit_bytes: int = 256 * 1024,
                 shaper: Optional[TokenBucket] = None,
                 police: bool = True,
                 rng: Optional[random.Random] = None):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_rate = loss_rate
        self.queue_limit_bytes = queue_limit_bytes
        self.shaper = shaper
        # Policing drops non-conforming packets immediately (how carrier
        # rate limiting behaves); shaping queues them until tokens accrue.
        self.police = police
        self._rng = rng
        self.receiver: Optional[Callable[[Packet], None]] = None
        self.stats = LinkStats()
        self.up = True
        self._busy_until = 0.0
        self._paused_until = 0.0
        self._down_until = 0.0
        self._queued_bytes = 0
        self._in_flight: dict[int, object] = {}  # packet_id -> Event

    @property
    def rng(self) -> random.Random:
        """Loss draws; name-seeded at the first one unless the caller
        supplied a generator.  A lossless link never draws, and seeding
        a Mersenne Twister cost more than the rest of the constructor.
        (A plain attribute set in ``__init__``, not a cached property:
        writing a late key into the instance dict of the hottest object
        on the data path cost ``app_transport`` 8 %.)"""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(_seed_from_name(self.name))
        return rng

    # -- dynamic reconfiguration (driven by the emulation harness) -------
    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Retune link capacity; affects packets enqueued from now on."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps

    def set_up(self, up: bool) -> None:
        """Bring the link up or down (radio outage during handover)."""
        self.up = up
        if up:
            # Manual restore overrides any pending interrupt window, so a
            # later _maybe_restore must not re-trip on a stale deadline.
            self._down_until = self.sim.now

    def interrupt(self, duration_s: float) -> None:
        """Take the link down for ``duration_s`` seconds (traffic lost).

        Overlapping interrupts extend the outage: the link comes back up
        only when the *latest* deadline passes, not when the first timer
        fires (which used to cut a long outage short).
        """
        self.up = False
        self._down_until = max(self._down_until, self.sim.now + duration_s)
        self.sim.schedule(duration_s, self._maybe_restore)

    def _maybe_restore(self) -> None:
        if not self.up and self.sim.now >= self._down_until - 1e-12:
            self.set_up(True)

    def pause(self, duration_s: float) -> None:
        """Stall delivery for ``duration_s`` without losing traffic.

        Models a network-managed handover: the source/target eNodeBs
        buffer and forward in-flight data (X2 forwarding), so the UE sees
        a delay bubble rather than a loss burst.
        """
        self._paused_until = max(self._paused_until,
                                 self.sim.now + duration_s)

    # -- data path --------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.  Returns False if dropped at entry."""
        self.stats.sent_packets += 1
        self.stats.sent_bytes += packet.size
        if not self.up:
            self.stats.dropped_down += 1
            return False
        # ``_rng or rng``: the property call only for the first draw.
        if self.loss_rate \
                and (self._rng or self.rng).random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return False
        if self._queued_bytes + packet.size > self.queue_limit_bytes:
            self.stats.dropped_queue += 1
            return False

        now = self.sim.now
        start = max(now, self._busy_until)
        if self.shaper is not None:
            conform_wait = self.shaper.delay_until_conforming(packet.size, start)
            if self.police and conform_wait > 0:
                self.stats.dropped_police += 1
                return False
            start += conform_wait
            self.shaper.consume(packet.size, start)
        serialization = packet.size * 8.0 / self.bandwidth_bps
        self._busy_until = start + serialization
        self._queued_bytes += packet.size
        arrival = self._busy_until + self.delay_s
        event = self.sim.schedule_at(arrival, self._deliver, packet)
        self._in_flight[packet.packet_id] = event
        return True

    def flush(self) -> None:
        """Discard everything queued or in flight (bearer teardown).

        When a UE detaches from a bTelco, the radio bearer and its queue
        are destroyed; packets buffered for the old attachment never reach
        the UE and must not occupy the new attachment's air time.
        """
        for event in self._in_flight.values():
            event.cancel()
        self._in_flight.clear()
        self._queued_bytes = 0
        self._busy_until = self.sim.now

    def _deliver(self, packet: Packet) -> None:
        if self.sim.now < self._paused_until:
            # Re-queue at pause end; FIFO order is preserved because
            # same-time events run in scheduling order.
            event = self.sim.schedule_at(self._paused_until, self._deliver,
                                         packet)
            self._in_flight[packet.packet_id] = event
            return
        self._in_flight.pop(packet.packet_id, None)
        self._queued_bytes -= packet.size
        if not self.up:
            # The link went down while the packet was in flight.
            self.stats.dropped_down += 1
            return
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        if self.receiver is not None:
            self.receiver(packet)

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes


class Link:
    """A full-duplex link: two simplex halves joining two nodes.

    ``a`` and ``b`` are objects exposing ``attach_link(link, endpoint)`` and
    ``receive(packet)`` (see :mod:`repro.net.node`).  Asymmetric parameters
    (e.g. cellular UL vs DL) are supported via the ``*_up`` overrides.
    """

    def __init__(self, sim: Simulator, name: str, a, b,
                 bandwidth_bps: float, delay_s: float,
                 loss_rate: float = 0.0,
                 queue_limit_bytes: int = 256 * 1024,
                 shaper_down: Optional[TokenBucket] = None,
                 shaper_up: Optional[TokenBucket] = None,
                 bandwidth_up_bps: Optional[float] = None,
                 rng: Optional[random.Random] = None):
        # ``rng`` is accepted and unused, as it has been since the seed
        # commit: the two generators derived from it were passed in
        # ``SimplexLink``'s ``police`` position (truthy, i.e. the
        # default), so each half has always drawn from its own
        # name-seeded generator.  Honouring it moves every lossy digest
        # (ROADMAP item 1b); building three generators per link to drop
        # them does not.
        # a -> b is the "down" direction by convention (network -> UE when
        # a is the infrastructure side; callers pick the orientation).
        self.a_to_b = SimplexLink(
            sim, f"{name}:a->b", bandwidth_bps, delay_s, loss_rate,
            queue_limit_bytes, shaper_down)
        self.b_to_a = SimplexLink(
            sim, f"{name}:b->a", bandwidth_up_bps or bandwidth_bps, delay_s,
            loss_rate, queue_limit_bytes, shaper_up)
        self.name = name
        self.a = a
        self.b = b
        self.a_to_b.receiver = lambda packet: b.receive(packet, self)
        self.b_to_a.receiver = lambda packet: a.receive(packet, self)
        a.attach_link(self)
        b.attach_link(self)

    def half_from(self, node) -> SimplexLink:
        """The simplex half that carries traffic *sent by* ``node``."""
        if node is self.a:
            return self.a_to_b
        if node is self.b:
            return self.b_to_a
        raise ValueError(f"{node!r} is not an endpoint of {self.name}")

    def send_from(self, node, packet: Packet) -> bool:
        """Send ``packet`` out of this link from ``node``'s side."""
        return self.half_from(node).send(packet)

    def other_end(self, node):
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self.name}")

    def set_up(self, up: bool) -> None:
        """Bring both directions up or down together."""
        self.a_to_b.set_up(up)
        self.b_to_a.set_up(up)

    def interrupt(self, duration_s: float) -> None:
        """Symmetric outage, e.g. the radio gap around a handover."""
        self.a_to_b.interrupt(duration_s)
        self.b_to_a.interrupt(duration_s)

    def flush(self) -> None:
        """Discard queued traffic in both directions (bearer teardown)."""
        self.a_to_b.flush()
        self.b_to_a.flush()

    def pause(self, duration_s: float) -> None:
        """Lossless delivery stall in both directions (X2 forwarding)."""
        self.a_to_b.pause(duration_s)
        self.b_to_a.pause(duration_s)
