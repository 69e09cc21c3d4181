from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcts import limits


def simple_set(dt=1e-3, a=10.0):
    return limits.limit_set([-1.0, -2.0], [1.0, 2.0], [-3.0, -1.5], [3.0, 1.5],
                            [-a, -a], [a, a], dt)


def test_far_from_bounds_gives_acceleration_limits():
    ls = simple_set()
    b = limits.shape_acceleration_bounds(ls, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(b.acc_min, ls.a_min)
    np.testing.assert_allclose(b.acc_max, ls.a_max)
    assert not b.any_repaired


def test_at_velocity_limit_no_speed_up():
    # position limits far away so only the velocity term can bind
    ls = limits.limit_set([-50.0, -50.0], [50.0, 50.0], [-3.0, -1.5], [3.0, 1.5],
                          [-10.0, -10.0], [10.0, 10.0], 1e-3)
    b = limits.shape_acceleration_bounds(ls, np.zeros(2), np.array([3.0, 0.0]))
    assert b.acc_max[0] <= 0.0
    # the velocity bound (v_max - cd)/dt is the one that binds
    assert b.acc_max[0] == (ls.v_max_tight[0] - 3.0) / ls.dt


def test_at_position_limit_forces_braking():
    ls = simple_set(dt=1e-3, a=1e6)   # acceleration limits out of the way
    cd = 0.5
    b = limits.shape_acceleration_bounds(ls, np.array([1.0, 0.0]), np.array([cd, 0.0]))
    expected = 2.0 * (-cd * ls.dt) / ls.dt**2
    assert b.acc_max[0] <= expected + 1e-9
    # any admissible acceleration keeps the position inside after one step
    for a in (b.acc_min[0], b.acc_max[0]):
        c_next = 1.0 + cd * ls.dt + 0.5 * a * ls.dt**2
        assert c_next <= 1.0 + 1e-12


def test_one_step_safety_randomized_sweep():
    """Any admissible acceleration keeps c and cd inside after one step."""
    rng = np.random.default_rng(0)
    n = 100_000
    ls = limits.limit_set([-1.0], [1.0], [-3.0], [3.0], [-50.0], [50.0], 1e-3)
    c = rng.uniform(-1.0, 1.0, n)
    cd = rng.uniform(-3.0, 3.0, n)
    upper = np.stack([np.full(n, 50.0), (3.0 - cd) / 1e-3,
                      2.0 * (1.0 - c - cd * 1e-3) / 1e-6,
                      limits._viability_upper(1.0 - c - cd * 1e-3, cd, np.full(n, 50.0), 1e-3)])
    lower = np.stack([np.full(n, -50.0), (-3.0 - cd) / 1e-3,
                      2.0 * (-1.0 - c - cd * 1e-3) / 1e-6,
                      -limits._viability_upper(c + cd * 1e-3 + 1.0, -cd, np.full(n, 50.0), 1e-3)])
    lo = lower.max(axis=0)
    hi = upper.min(axis=0)
    feasible = lo <= hi
    u = rng.random(n)
    a = lo + u * (hi - lo)
    cd_next = cd + a * 1e-3
    c_next = c + cd * 1e-3 + 0.5 * a * 1e-6
    ok = feasible
    assert np.all(cd_next[ok] <= 3.0 + 1e-9)
    assert np.all(cd_next[ok] >= -3.0 - 1e-9)
    assert np.all(c_next[ok] <= 1.0 + 1e-12)
    assert np.all(c_next[ok] >= -1.0 - 1e-12)


@st.composite
def shaping_cases(draw):
    """A random LimitSet of 1-3 directions, a state inside its limits and,
    per direction, where in the shaped interval the acceleration lies."""
    n = draw(st.integers(1, 3))
    vec = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    c_min = vec(-3.0, 0.0)
    c_max = c_min + vec(0.05, 6.0)
    v_min, v_max = -vec(0.01, 5.0), vec(0.01, 5.0)
    a_min, a_max = -vec(0.5, 1000.0), vec(0.5, 1000.0)
    dt = draw(st.floats(1e-4, 1e-2))
    ls = limits.limit_set(c_min, c_max, v_min, v_max, a_min, a_max, dt,
                          draw(st.floats(0.05, 1.0)))
    c = c_min + vec(0.0, 1.0) * (c_max - c_min)
    cd = v_min + vec(0.0, 1.0) * (v_max - v_min)
    return ls, np.clip(c, c_min, c_max), np.clip(cd, v_min, v_max), vec(0.0, 1.0)


@given(shaping_cases())
@settings(max_examples=500, deadline=None)
def test_shaped_interval_keeps_one_exact_step_inside(case):
    """From a state inside the limits, every direction that was not repaired
    stays inside its position and velocity limits after one exact step
    c + cd dt + a dt^2 / 2, cd + a dt, for any a in [acc_min, acc_max]."""
    ls, c, cd, u = case
    b = limits.shape_acceleration_bounds(ls, c, cd)
    ok = ~b.repaired
    for a in (b.acc_min, b.acc_max, b.acc_min + u * (b.acc_max - b.acc_min)):
        c_next = c + cd * ls.dt + 0.5 * a * ls.dt**2
        cd_next = cd + a * ls.dt
        assert np.all(((ls.c_min <= c_next) & (c_next <= ls.c_max))[ok])
        assert np.all(((ls.v_min <= cd_next) & (cd_next <= ls.v_max))[ok])


def test_viability_brakes_before_the_wall():
    """Riding acc_max toward a position limit never crosses it."""
    ls = limits.limit_set([-1.0], [1.0], [-3.0], [3.0], [-70.0], [70.0], 1e-3)
    c, cd = 0.6, 2.0
    worst = c
    for _ in range(4000):
        b = limits.shape_acceleration_bounds(ls, np.array([c]), np.array([cd]))
        cd += b.acc_max[0] * ls.dt
        c += cd * ls.dt
        worst = max(worst, c)
    assert worst <= 1.0 + 1e-9


def test_repair_collapses_and_flags():
    ls = simple_set(a=10.0)
    # already beyond the position limit at speed: raw interval is empty
    b = limits.shape_acceleration_bounds(ls, np.array([1.05, 0.0]), np.array([0.5, 0.0]))
    assert b.repaired[0] and not b.repaired[1]
    assert b.acc_min[0] == b.acc_max[0]
    assert ls.a_min[0] - 1e-12 <= b.acc_min[0] <= ls.a_max[0] + 1e-12


def test_external_offset_zero_is_identity():
    ls = simple_set()
    b = limits.shape_acceleration_bounds(ls, np.zeros(2), np.zeros(2))
    b2 = limits.apply_external_offset(b, np.zeros(2))
    np.testing.assert_allclose(b2.acc_min, b.acc_min)
    np.testing.assert_allclose(b2.acc_max, b.acc_max)


def test_external_offset_identity_mapping_shift():
    ls = simple_set()
    b = limits.shape_acceleration_bounds(ls, np.zeros(2), np.zeros(2))
    a = np.array([1.5, -2.0])
    b2 = limits.apply_external_offset(b, a)
    np.testing.assert_allclose(b2.acc_min, b.acc_min - a)
    np.testing.assert_allclose(b2.acc_max, b.acc_max - a)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_external_offset_linearity(x, y):
    ls = simple_set()
    b = limits.shape_acceleration_bounds(ls, np.zeros(2), np.zeros(2))
    x = np.asarray(x)
    y = np.asarray(y)
    once = limits.apply_external_offset(b, x + y)
    twice = limits.apply_external_offset(limits.apply_external_offset(b, x), y)
    np.testing.assert_allclose(once.acc_min, twice.acc_min, atol=1e-12)
    np.testing.assert_allclose(once.acc_max, twice.acc_max, atol=1e-12)


def test_limit_set_validation():
    with pytest.raises(ValueError, match="c_min"):
        limits.limit_set([1.0], [-1.0], [-1], [1], [-1], [1], 1e-3)
    with pytest.raises(ValueError, match="dt"):
        limits.limit_set([-1.0], [1.0], [-1], [1], [-1], [1], 0.0)
    with pytest.raises(ValueError, match="finite"):
        limits.limit_set([-1.0], [1.0], [-1], [1], [-np.inf], [1], 1e-3)


def test_shape_rejects_bad_state():
    ls = simple_set()
    with pytest.raises(ValueError):
        limits.shape_acceleration_bounds(ls, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        limits.shape_acceleration_bounds(ls, np.array([np.nan, 0.0]), np.zeros(2))


def test_realize_joint_limits_with_offset():
    ls = simple_set()
    real = limits.realize_joint_limits(ls, np.zeros(2), np.zeros(2),
                                       minv_tau_ext=np.array([2.0, 0.0]))
    np.testing.assert_allclose(real.bounds.acc_max, [8.0, 10.0])
