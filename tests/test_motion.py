import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bagcell.config import MotionConfig
from bagcell.motion import (
    PlanFailure,
    leg_lengths,
    move_duration,
    plan_profile,
    plan_with_retries,
)

V_REF = 0.56  # 2.0 m/s * 0.28 velocity scaling
A_REF = 0.39  # 13.0 m/s^2 * 0.03 acceleration scaling


def numeric_distance(profile, points_per_leg=2000):
    """Trapezoid-rule integral of the speed curve on a grid containing the kinks.

    The curve is piecewise linear, so once the kink times are grid points the
    quadrature is exact up to float roundoff.
    """
    knots = [0.0, profile.t_accel, profile.t_accel + profile.t_cruise, profile.t_total]
    ts = np.unique(np.concatenate([np.linspace(0.0, profile.t_total, points_per_leg), knots]))
    vs = np.array([profile.velocity_at(t) for t in ts])
    return float(np.trapezoid(vs, ts))


def test_zero_distance_profile():
    p = plan_profile(0.0, V_REF, A_REF)
    assert p.t_total == 0.0
    assert p.v_peak == 0.0
    assert p.velocity_at(0.0) == 0.0


def test_reference_trapezoid_case():
    p = plan_profile(2.0, V_REF, A_REF)
    assert not p.is_triangular
    assert p.t_accel == pytest.approx(V_REF / A_REF, abs=1e-12)
    assert p.t_cruise == pytest.approx((2.0 - V_REF**2 / A_REF) / V_REF, abs=1e-12)
    assert p.t_total == pytest.approx(5.007326, abs=1e-5)
    assert p.t_total == pytest.approx(5.0075, abs=1e-3)
    assert numeric_distance(p) == pytest.approx(2.0, abs=1e-9)


def test_reference_triangle_case():
    p = plan_profile(0.5, V_REF, A_REF)
    assert p.is_triangular
    assert p.v_peak == pytest.approx(math.sqrt(A_REF * 0.5), abs=1e-12)
    assert p.v_peak == pytest.approx(0.441588, abs=1e-5)
    assert p.t_total == pytest.approx(2.264554, abs=1e-5)
    assert numeric_distance(p) == pytest.approx(0.5, abs=1e-9)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        plan_profile(-0.1, V_REF, A_REF)
    with pytest.raises(ValueError):
        plan_profile(1.0, 0.0, A_REF)
    with pytest.raises(ValueError):
        plan_profile(1.0, V_REF, -1.0)


def test_triangle_trapezoid_boundary_continuity():
    d_ramp = V_REF * V_REF / A_REF
    below = plan_profile(d_ramp * (1.0 - 1e-9), V_REF, A_REF)
    at = plan_profile(d_ramp, V_REF, A_REF)
    above = plan_profile(d_ramp * (1.0 + 1e-9), V_REF, A_REF)
    assert at.t_total == pytest.approx(2.0 * V_REF / A_REF, abs=1e-9)
    assert below.t_total == pytest.approx(at.t_total, abs=1e-6)
    assert above.t_total == pytest.approx(at.t_total, abs=1e-6)


@given(
    d=st.floats(min_value=0.0, max_value=10.0),
    v=st.floats(min_value=0.05, max_value=2.0),
    a=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_profile_integrates_to_distance(d, v, a):
    p = plan_profile(d, v, a)
    assert abs(numeric_distance(p, points_per_leg=400) - d) <= 1e-9 * max(1.0, d)
    assert p.v_peak <= v + 1e-12


@given(
    d=st.floats(min_value=1e-6, max_value=10.0),
    v=st.floats(min_value=0.05, max_value=2.0),
    a=st.floats(min_value=0.05, max_value=20.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_velocity_symmetry_and_cap(d, v, a, frac):
    p = plan_profile(d, v, a)
    t = frac * p.t_total
    assert p.velocity_at(t) == pytest.approx(p.velocity_at(p.t_total - t), abs=1e-9)
    assert p.velocity_at(t) <= v + 1e-12


@given(
    d=st.floats(min_value=0.0, max_value=10.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_position_monotone_and_bounded(d, frac):
    p = plan_profile(d, V_REF, A_REF)
    t = frac * p.t_total
    x = p.position_at(t)
    assert -1e-12 <= x <= d + 1e-12
    assert p.position_at(p.t_total) == pytest.approx(d, abs=1e-9)
    assert p.position_at(t + 0.01 * max(p.t_total, 1e-9)) >= x - 1e-12


def test_default_config_speed_cap():
    mot = MotionConfig()
    assert mot.effective_max_speed_mps == pytest.approx(0.56, abs=1e-12)
    assert mot.effective_acceleration_mps2 == pytest.approx(0.39, abs=1e-12)
    rng = np.random.default_rng(7)
    for d in rng.uniform(0.0, 5.0, size=200):
        p = plan_profile(float(d), mot.effective_max_speed_mps, mot.effective_acceleration_mps2)
        assert p.v_peak <= 0.56 + 1e-12


def path_time(waypoints):
    """Stop-at-every-waypoint path time, as the simulation computes it."""
    return sum(move_duration(d, V_REF, A_REF) for d in leg_lengths(waypoints))


def test_path_duration_additive_for_collinear_legs():
    single = move_duration(1.0, V_REF, A_REF)
    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    assert leg_lengths(pts) == [1.0, 1.0]
    assert path_time(pts) == pytest.approx(2.0 * single, abs=1e-12)


def test_duplicate_waypoint_adds_nothing():
    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    dup = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert leg_lengths(dup) == [1.0, 0.0]
    assert path_time(dup) == path_time(pts)


def test_leg_lengths_degenerate_inputs():
    assert leg_lengths([]) == []
    assert leg_lengths([(0.0, 0.0, 0.0)]) == []
    assert leg_lengths([(0.0, 0.0, 0.0), (3.0, 4.0, 0.0)]) == [pytest.approx(5.0)]


def test_plan_with_retries_never_fails_at_zero_prob():
    res = plan_with_retries(0.0, budget_s=5.0, max_attempts=10)
    assert res.attempts == 1
    assert res.penalty_s == 0.0


def test_plan_with_retries_exhausts_at_prob_one():
    with pytest.raises(PlanFailure) as info:
        plan_with_retries(1.0, budget_s=5.0, max_attempts=10)
    assert info.value.attempts == 10
    assert info.value.penalty_s == pytest.approx(50.0)


def test_plan_with_retries_scripted_fail_fail_succeed():
    forced = {1: False, 2: False, 3: True}
    res = plan_with_retries(
        0.0, budget_s=5.0, max_attempts=10, forced_outcomes=forced.get
    )
    assert res.attempts == 3
    assert res.penalty_s == pytest.approx(10.0)


def test_plan_with_retries_seeded_replay():
    outcomes = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        run = []
        for _ in range(20):
            try:
                run.append(plan_with_retries(0.5, 5.0, 10, rng=rng).attempts)
            except PlanFailure:
                run.append(-1)
        outcomes.append(run)
    assert outcomes[0] == outcomes[1]


def test_plan_with_retries_requires_rng_for_probabilistic_draws():
    with pytest.raises(ValueError):
        plan_with_retries(0.5, 5.0, 10, rng=None)
