"""Point-to-point motion timing with trapezoidal velocity profiles.

Every move accelerates at a constant rate toward the speed limit, optionally
cruises, then decelerates symmetrically; short moves never reach the limit
and become triangular. The arm stops at each waypoint, so multi-leg paths
are the sum of independent profiles.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


class Profile(NamedTuple):
    """Timing of a single straight-line move."""

    distance: float
    accel: float
    v_peak: float
    t_accel: float
    t_cruise: float

    @property
    def t_total(self) -> float:
        return 2.0 * self.t_accel + self.t_cruise


def plan_profile(distance: float, v_max: float, accel: float) -> Profile:
    """Time a straight move of ``distance`` metres under the given limits."""
    if distance < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if v_max <= 0.0 or accel <= 0.0:
        raise ValueError("v_max and accel must be > 0")
    if distance == 0.0:
        return Profile(0.0, accel, 0.0, 0.0, 0.0)
    d_ramp = v_max * v_max / accel  # distance to accelerate up and back down
    if distance <= d_ramp:
        v_peak = math.sqrt(accel * distance)
        return Profile(distance, accel, v_peak, v_peak / accel, 0.0)
    t_accel = v_max / accel
    t_cruise = (distance - d_ramp) / v_max
    return Profile(distance, accel, v_max, t_accel, t_cruise)


def move_duration(distance: float, v_max: float, accel: float) -> float:
    return plan_profile(distance, v_max, accel).t_total


def leg_lengths(waypoints: Sequence[Sequence[float]]) -> list[float]:
    """Straight-line length of each leg between consecutive waypoints."""
    return [math.dist(a, b) for a, b in zip(waypoints[:-1], waypoints[1:])]
