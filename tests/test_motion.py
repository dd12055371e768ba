import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bagcell.config import MotionConfig
from bagcell.motion import leg_lengths, move_duration, plan_profile

V_REF = 0.56  # 2.0 m/s * 0.28 velocity scaling
A_REF = 0.39  # 13.0 m/s^2 * 0.03 acceleration scaling


def velocity_at(p, t):
    """Closed-form speed at time ``t``: the reference the integration gates check."""
    if t <= 0.0 or t >= p.t_total:
        return 0.0
    if t < p.t_accel:
        return p.accel * t
    if t < p.t_accel + p.t_cruise:
        return p.v_peak
    return p.accel * (p.t_total - t)


def numeric_distance(p, n_grid=2000):
    """Trapezoid-rule integral of the speed curve on ``n_grid`` even steps plus the kinks.

    The curve is piecewise linear, so once the kink times are grid points the
    quadrature is exact up to float roundoff.
    """
    knots = [0.0, p.t_accel, p.t_accel + p.t_cruise, p.t_total]
    ts = sorted({p.t_total * i / (n_grid - 1) for i in range(n_grid)}.union(knots))
    vs = [velocity_at(p, t) for t in ts]
    return math.fsum(0.5 * (t1 - t0) * (v0 + v1)
                     for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:]))


def position_at(p, t):
    """Closed-form distance travelled by time ``t``: the reference the position gate checks."""
    if t <= 0.0:
        return 0.0
    if t >= p.t_total:
        return p.distance
    if t < p.t_accel:
        return 0.5 * p.accel * t * t
    d_accel = 0.5 * p.v_peak * p.t_accel
    if t < p.t_accel + p.t_cruise:
        return d_accel + p.v_peak * (t - p.t_accel)
    remaining = p.t_total - t
    return p.distance - 0.5 * p.accel * remaining * remaining


def test_zero_distance_profile():
    p = plan_profile(0.0, V_REF, A_REF)
    assert p.t_total == 0.0
    assert p.v_peak == 0.0
    assert velocity_at(p, 0.0) == 0.0


def test_reference_trapezoid_case():
    p = plan_profile(2.0, V_REF, A_REF)
    assert p.t_cruise > 0.0
    assert p.t_accel == pytest.approx(V_REF / A_REF, abs=1e-12)
    assert p.t_cruise == pytest.approx((2.0 - V_REF**2 / A_REF) / V_REF, abs=1e-12)
    assert p.t_total == pytest.approx(5.007326, abs=1e-5)
    assert p.t_total == pytest.approx(5.0075, abs=1e-3)
    assert numeric_distance(p) == pytest.approx(2.0, abs=1e-9)


def test_reference_triangle_case():
    p = plan_profile(0.5, V_REF, A_REF)
    assert p.t_cruise == 0.0
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
    assert abs(numeric_distance(p, n_grid=400) - d) <= 1e-9 * max(1.0, d)
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
    assert velocity_at(p, t) == pytest.approx(velocity_at(p, p.t_total - t), abs=1e-9)
    assert velocity_at(p, t) <= v + 1e-12


@given(
    d=st.floats(min_value=0.0, max_value=10.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_position_monotone_and_bounded(d, frac):
    p = plan_profile(d, V_REF, A_REF)
    t = frac * p.t_total
    x = position_at(p, t)
    assert -1e-12 <= x <= d + 1e-12
    assert position_at(p, p.t_total) == pytest.approx(d, abs=1e-9)
    assert position_at(p, t + 0.01 * max(p.t_total, 1e-9)) >= x - 1e-12


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
