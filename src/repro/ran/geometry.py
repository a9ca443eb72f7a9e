"""Plane geometry for the RAN model: points, headings, waypoint routes."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A position in meters on the local tangent plane."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def towards(self, other: "Point", fraction: float) -> "Point":
        """The point ``fraction`` of the way from here to ``other``."""
        return Point(self.x + (other.x - self.x) * fraction,
                     self.y + (other.y - self.y) * fraction)


@dataclass(frozen=True)
class Waypoint:
    position: Point
    #: speed while travelling *towards* this waypoint (m/s).
    speed_mps: float


class Trajectory:
    """A piecewise-linear drive: position as a function of time.

    Built from waypoints; each leg is traversed at that leg's speed.  The
    trajectory clamps at the final waypoint (the vehicle parks).
    """

    def __init__(self, start: Point, waypoints: list):
        if not waypoints:
            raise ValueError("a trajectory needs at least one waypoint")
        self.start = start
        self.waypoints = list(waypoints)
        self._legs = []  # (t_start, t_end, from, to)
        t = 0.0
        previous = start
        for waypoint in self.waypoints:
            leg_length = previous.distance_to(waypoint.position)
            if waypoint.speed_mps <= 0:
                raise ValueError("waypoint speed must be positive")
            duration = leg_length / waypoint.speed_mps
            self._legs.append((t, t + duration, previous,
                               waypoint.position))
            t += duration
            previous = waypoint.position
        self.total_duration = t

    def position_at(self, t: float) -> Point:
        if t <= 0:
            return self.start
        for t_start, t_end, origin, destination in self._legs:
            if t <= t_end:
                span = t_end - t_start
                fraction = (t - t_start) / span if span > 0 else 1.0
                return origin.towards(destination, fraction)
        return self._legs[-1][3]


def straight_drive(length_m: float, speed_mps: float) -> Trajectory:
    """A straight line along the x axis — the canonical drive test."""
    return Trajectory(Point(0.0, 0.0),
                      [Waypoint(Point(length_m, 0.0), speed_mps)])
