"""Time-of-day rate-limit policy (Appendix A's midnight switch).

"We found that the throughput enters the high-mode consistently at
around 12:30am.  We conjecture this is due to the different rate
limiting policies the MNO enforces during these two time windows."

:class:`TimeOfDayPolicy` drives that behaviour inside a single run: it
maps simulation time to wall-clock hours and switches the carrier's
policer between the day and night regimes at the configured boundaries,
letting experiments that *span* the switch (the bimodal trace of Fig 10)
run as one drive instead of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net import Simulator

SECONDS_PER_HOUR = 3600.0
DEFAULT_NIGHT_STARTS = 0.5      # 00:30 - "consistently at around 12:30am"
DEFAULT_NIGHT_ENDS = 6.0        # aggressive policing resumes at 06:00


@dataclass
class TimeOfDayPolicy:
    """The carrier's policing schedule."""

    day_rate_bps: float = 1.2e6
    night_rate_bps: Optional[float] = None   # None = policing off
    night_starts_hour: float = DEFAULT_NIGHT_STARTS
    night_ends_hour: float = DEFAULT_NIGHT_ENDS

    def is_night(self, hour_of_day: float) -> bool:
        hour = hour_of_day % 24.0
        if self.night_starts_hour <= self.night_ends_hour:
            return self.night_starts_hour <= hour < self.night_ends_hour
        return hour >= self.night_starts_hour or hour < self.night_ends_hour

    def rate_at(self, hour_of_day: float) -> Optional[float]:
        return self.night_rate_bps if self.is_night(hour_of_day) \
            else self.day_rate_bps

    def next_switch_hour(self, hour_of_day: float) -> float:
        """Hours until the policy next changes."""
        hour = hour_of_day % 24.0
        boundaries = sorted({self.night_starts_hour % 24.0,
                             self.night_ends_hour % 24.0})
        for boundary in boundaries:
            if boundary > hour + 1e-9:
                return boundary - hour
        return 24.0 - hour + boundaries[0]


class PolicyScheduler:
    """Applies a :class:`TimeOfDayPolicy` to cellular paths over time.

    ``clock_offset_hours`` sets what wall-clock time ``sim.now == 0``
    corresponds to; a drive started at 23:50 will cross the midnight
    switch ten simulated minutes in.
    """

    def __init__(self, sim: Simulator, policy: TimeOfDayPolicy,
                 paths: list, clock_offset_hours: float = 0.0):
        self.sim = sim
        self.policy = policy
        self.paths = list(paths)
        self.clock_offset_hours = clock_offset_hours
        self.switches: list = []    # (sim_time, rate)
        self._started = False

    def hour_now(self) -> float:
        return (self.clock_offset_hours
                + self.sim.now / SECONDS_PER_HOUR) % 24.0

    def start(self, duration: float) -> None:
        self._started = True
        self._apply()
        self._schedule_next(duration)

    def _apply(self) -> None:
        rate = self.policy.rate_at(self.hour_now())
        self.switches.append((self.sim.now, rate))
        for path in self.paths:
            path.set_shaper_rate(rate)

    def _schedule_next(self, duration: float) -> None:
        hours = self.policy.next_switch_hour(self.hour_now())
        delay = hours * SECONDS_PER_HOUR
        if self.sim.now + delay >= duration:
            return
        self.sim.schedule(delay, self._fire, duration)

    def _fire(self, duration: float) -> None:
        self._apply()
        self._schedule_next(duration)
