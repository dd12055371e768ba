"""Point-to-point motion timing with trapezoidal velocity profiles.

Every move accelerates at a constant rate toward the speed limit, optionally
cruises, then decelerates symmetrically; short moves never reach the limit
and become triangular. The arm stops at each waypoint, so multi-leg paths
are the sum of independent profiles. Planning itself is modelled as an
attempt loop where only failed attempts consume time (a failure burns the
whole planning budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


class PlanFailure(Exception):
    """All planning attempts were exhausted."""

    def __init__(self, attempts: int, penalty_s: float):
        self.attempts = attempts
        self.penalty_s = penalty_s
        super().__init__(f"planning failed after {attempts} attempts")


@dataclass(frozen=True)
class Profile:
    """Timing of a single straight-line move."""

    distance: float
    accel: float
    v_peak: float
    t_accel: float
    t_cruise: float

    @property
    def t_total(self) -> float:
        return 2.0 * self.t_accel + self.t_cruise

    def velocity_at(self, t: float) -> float:
        if t <= 0.0 or t >= self.t_total:
            return 0.0
        if t < self.t_accel:
            return self.accel * t
        if t < self.t_accel + self.t_cruise:
            return self.v_peak
        return self.accel * (self.t_total - t)

    def position_at(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= self.t_total:
            return self.distance
        if t < self.t_accel:
            return 0.5 * self.accel * t * t
        d_accel = 0.5 * self.v_peak * self.t_accel
        if t < self.t_accel + self.t_cruise:
            return d_accel + self.v_peak * (t - self.t_accel)
        remaining = self.t_total - t
        return self.distance - 0.5 * self.accel * remaining * remaining


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


@dataclass(frozen=True)
class PlanResult:
    attempts: int
    penalty_s: float


def plan_with_retries(
    failure_prob: float,
    budget_s: float,
    max_attempts: int,
    rng: Optional[np.random.Generator] = None,
    forced_outcomes: Optional[Callable[[int], Optional[bool]]] = None,
) -> PlanResult:
    """Run the planning attempt loop.

    Each attempt either succeeds (consuming no time) or fails, burning the
    full ``budget_s``. ``forced_outcomes(attempt)`` may pin an attempt's
    result (True=succeed, False=fail, None=draw from ``failure_prob``).
    Raises :class:`PlanFailure` when every attempt fails.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    penalty = 0.0
    for attempt in range(1, max_attempts + 1):
        outcome: Optional[bool] = None
        if forced_outcomes is not None:
            outcome = forced_outcomes(attempt)
        if outcome is None:
            if failure_prob <= 0.0:
                outcome = True
            elif failure_prob >= 1.0:
                outcome = False
            else:
                if rng is None:
                    raise ValueError("rng required for probabilistic planning")
                outcome = bool(rng.random() >= failure_prob)
        if outcome:
            return PlanResult(attempts=attempt, penalty_s=penalty)
        penalty += budget_s
    raise PlanFailure(attempts=max_attempts, penalty_s=penalty)
