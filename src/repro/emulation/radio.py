"""Radio condition processes: capacity variation and handover schedules.

The paper's emulation rides on a real T-Mobile network, so "real-world
conditions such as the density of tower deployment, devices on the move,
real-time background traffic, handover patterns" come for free.  Here they
are generated: a lognormal per-second capacity process (giving the
night-time variance of Fig 10) and a renewal process of handover events
calibrated to the measured per-route MTTHO.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.net import Simulator

from .routes import RouteConditions

CAPACITY_SAMPLE_INTERVAL = 1.0
MIN_CAPACITY_BPS = 1.5e6
#: the radio gap of a (hard) handover, both architectures alike.
HANDOVER_GAP_RANGE = (0.04, 0.12)
MIN_HANDOVER_SPACING = 8.0
#: no handover lands this early in a drive (the paper's runs also begin
#: attached).
HANDOVER_WARMUP_S = 10.0


class CapacityProcess:
    """Radio capacity as an AR(1) process in log space, sampled per second
    and pushed to listener callbacks.

    Real drive capacity is *correlated* — a vehicle stays in a strong or
    weak cell for many seconds — so the process mixes a persistent
    component (``RHO``) with fresh lognormal noise.  Correlation is what lets
    TCP actually ride the swells, producing the high night-time variance
    and the 3-4x peak-to-mean ratio of Fig 10.

    Both UEs in a paired run (the TCP baseline and the MPTCP/CellBricks
    device) ride in the same vehicle, so they share one realization.
    """

    RHO = 0.88                       # AR(1) persistence per sample

    def __init__(self, sim: Simulator, conditions: RouteConditions,
                 seed: int = 0):
        self.sim = sim
        self.conditions = conditions
        self.rng = random.Random(seed)
        self.listeners: list[Callable[[float], None]] = []
        self.samples: list[float] = []
        self._running = False
        # Stationary distribution: lognormal(mu, sigma) with the requested
        # mean; the AR(1) innovation variance preserves that stationary law.
        sigma = conditions.capacity_sigma
        self._mu = math.log(conditions.capacity_mean_bps) - sigma ** 2 / 2
        self._sigma = sigma
        self._innovation_sigma = sigma * math.sqrt(1 - self.RHO ** 2)
        self._log_state = self._mu + self.rng.gauss(0, sigma)

    def sample(self) -> float:
        self._log_state = (self.RHO * self._log_state
                           + (1 - self.RHO) * self._mu
                           + self.rng.gauss(0, self._innovation_sigma))
        value = math.exp(self._log_state)
        return max(MIN_CAPACITY_BPS,
                   min(self.conditions.capacity_max_bps, value))

    def start(self, duration: float) -> None:
        self._running = True
        self._stop_at = self.sim.now + duration
        self._tick()

    def _tick(self) -> None:
        if not self._running or self.sim.now >= self._stop_at:
            self._running = False
            return
        capacity = self.sample()
        self.samples.append(capacity)
        for listener in self.listeners:
            listener(capacity)
        self.sim.schedule(CAPACITY_SAMPLE_INTERVAL, self._tick)


@dataclass(frozen=True)
class HandoverEvent:
    """One handover: when it starts and how long the radio blanks."""

    at: float
    gap_s: float


def generate_handover_schedule(duration: float, mttho_s: float,
                               seed: int = 0) -> list:
    """A renewal process of handovers with the requested mean spacing.

    Inter-arrival times are exponential (memoryless tower crossings) with
    a floor (``MIN_HANDOVER_SPACING``), shifted so their mean stays
    ``mttho_s``; no event lands in the first ``HANDOVER_WARMUP_S``.
    """
    min_spacing = MIN_HANDOVER_SPACING
    if mttho_s <= min_spacing:
        raise ValueError("MTTHO must exceed the minimum spacing")
    rng = random.Random(seed)
    events = []
    t = HANDOVER_WARMUP_S
    while True:
        t += min_spacing + rng.expovariate(1.0 / (mttho_s - min_spacing))
        if t >= duration:
            break
        gap = rng.uniform(*HANDOVER_GAP_RANGE)
        events.append(HandoverEvent(at=t, gap_s=gap))
    return events
