"""Drive-test routes and time-of-day conditions (§6.2(v), Appendix A).

Each route is calibrated to the paper's measured statistics: the
mean-time-to-handover (MTTHO) per route and time of day from Table 1, and
the T-Mobile rate-limiting regimes of Appendix A (an aggressive ~1 Mbps
policy during the day, relaxed after ~12:30 am, with high night-time
variance that grows with speed).
"""

from __future__ import annotations

from dataclasses import dataclass

DAY = "day"
NIGHT = "night"

#: the two architectures driven over every route: today's MNO (the
#: baseline) and CellBricks.  Kept here, beside the routes, so a module
#: that only names an architecture loads no transport.
ARCH_MNO = "mno"
ARCH_CELLBRICKS = "cellbricks"


@dataclass(frozen=True)
class RouteConditions:
    """Conditions for one (route, time-of-day) cell of Table 1."""

    mttho_s: float            # mean time between handovers (Table 1)
    policed_rate_bps: float   # carrier policy (None -> no policing)
    capacity_mean_bps: float  # radio capacity process (lognormal mean)
    capacity_sigma: float     # lognormal shape (night variance is high)
    capacity_max_bps: float
    radio_loss_rate: float = 2e-4


@dataclass(frozen=True)
class Route:
    """A drive route with day and night conditions."""

    name: str
    day: RouteConditions
    night: RouteConditions

    def conditions(self, time_of_day: str) -> RouteConditions:
        if time_of_day == DAY:
            return self.day
        if time_of_day == NIGHT:
            return self.night
        raise ValueError(f"time_of_day must be 'day' or 'night', "
                         f"got {time_of_day!r}")


def _day(mttho: float) -> RouteConditions:
    # Day: the policer (~1.2 Mbps) dominates; radio capacity is ample.
    return RouteConditions(mttho_s=mttho, policed_rate_bps=1.2e6,
                           capacity_mean_bps=30e6, capacity_sigma=0.3,
                           capacity_max_bps=75e6, radio_loss_rate=4e-4)


def _night(mttho: float, capacity_mean: float) -> RouteConditions:
    # Night: no policing; throughput follows the (highly variable) radio.
    return RouteConditions(mttho_s=mttho, policed_rate_bps=None,
                           capacity_mean_bps=capacity_mean,
                           capacity_sigma=0.75, capacity_max_bps=75e6,
                           radio_loss_rate=1.2e-4)


#: Table 1 MTTHO calibration: (suburb 73.50/65.60, downtown 68.16/50.60,
#: highway 44.72/25.50 seconds, day/night).  Night throughput is lower on
#: the highway (higher speed, weaker cells) — Table 1 shows 12.42 vs
#: 15.41-16.85 Mbps.
ROUTES = {
    "suburb": Route("suburb", day=_day(73.50),
                    night=_night(65.60, capacity_mean=27e6)),
    "downtown": Route("downtown", day=_day(68.16),
                      night=_night(50.60, capacity_mean=24e6)),
    "highway": Route("highway", day=_day(44.72),
                     night=_night(25.50, capacity_mean=18e6)),
}

ROUTE_ORDER = ("suburb", "downtown", "highway")
