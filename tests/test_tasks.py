from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcts import rbd, tasks


def test_impedance_zero_error_zero_command():
    out = tasks.impedance_accel(np.eye(2) * 100, np.eye(2) * 20, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(out, 0.0)


def test_impedance_published_gains_arithmetic():
    K = np.eye(2) * 1000.0
    D = np.eye(2) * 63.0
    out = tasks.impedance_accel(K, D, np.array([0.01, 0.0]), np.zeros(2))
    np.testing.assert_allclose(out, [10.0, 0.0], atol=1e-12)


def test_impedance_gradient_is_stiffness():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    K = A @ A.T + np.eye(3)
    D = np.eye(3) * 5.0
    dx = rng.normal(size=3)
    h = 1e-6
    grad = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        grad[:, j] = (tasks.impedance_accel(K, D, dx + e, np.zeros(3))
                      - tasks.impedance_accel(K, D, dx - e, np.zeros(3))) / (2 * h)
    np.testing.assert_allclose(grad, K, atol=1e-6)


def test_force_impedance_zero_force():
    out = tasks.force_impedance_accel(np.eye(2), lambda b: b, np.zeros(2))
    np.testing.assert_allclose(out, 0.0)


def test_force_impedance_scalar_case():
    J = np.array([[1.0]])
    out = tasks.force_impedance_accel(J, lambda b: b / 2.0, np.array([3.0]))
    np.testing.assert_allclose(out, [1.5])


def test_force_impedance_equals_lambda_inverse(iiwa):
    rng = np.random.default_rng(1)
    q = rng.uniform(-1, 1, 7)
    J = rbd.jacobian(iiwa, q, iiwa.tool_frame)[:3]
    bundle = rbd.task_dynamics(iiwa, q, J, epsilon=0.0)
    f = rng.normal(size=3)
    M = rbd.mass_matrix(iiwa, q)
    out = tasks.force_impedance_accel(J, lambda b: np.linalg.solve(M, b), f)
    np.testing.assert_allclose(out, np.linalg.solve(bundle.Lambda, f), atol=1e-9)


# ---------------------------------------------------------------------------
# waypoint tracker


def make_tracker(**kw):
    args = dict(waypoints=[np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])],
                tolerance=1e-3, kp=400.0, kv=40.0, v_sat=0.4)
    args.update(kw)
    return tasks.WaypointTracker(**args)


def test_waypoint_at_target_advances_with_zero_command():
    tr = make_tracker()
    acc, status = tasks.waypoint_accel(tr, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    np.testing.assert_allclose(acc, 0.0, atol=1e-12)
    assert tr.index == 1
    assert status == tasks.TRACKING


def test_waypoint_published_gain_arithmetic():
    tr = make_tracker(waypoints=[np.array([0.3, 0.0, 0.0])])
    xd_c = np.array([0.05, 0.0, 0.0])
    acc, _ = tasks.waypoint_accel(tr, np.zeros(3), xd_c)
    xd_d = (400.0 / 40.0) * np.array([0.3, 0.0, 0.0])   # norm 3 > v_sat
    v = 0.4 / 9.0
    np.testing.assert_allclose(acc, -40.0 * (xd_c - v * xd_d), atol=1e-12)


def test_waypoint_unsaturated_reduces_to_pd():
    tr = make_tracker(waypoints=[np.array([0.01, 0.0, 0.0])])
    xd_c = np.array([0.02, 0.0, 0.0])
    acc, _ = tasks.waypoint_accel(tr, np.zeros(3), xd_c)
    np.testing.assert_allclose(acc, 400.0 * np.array([0.01, 0, 0]) - 40.0 * xd_c,
                               atol=1e-12)


def test_waypoint_exhausted_holds_last_waypoint():
    """A finished tracker stays DONE and keeps regulating to its last
    waypoint with the same law; an empty list commands zero."""
    tr = make_tracker(waypoints=[np.array([0.0, 0.0, 0.0])], tolerance=0.5)
    acc, status = tasks.waypoint_accel(tr, np.array([0.1, 0.0, 0.0]), np.zeros(3))
    assert status == tasks.DONE
    x, xd_c = np.array([0.01, 0.0, 0.0]), np.array([0.02, 0.0, 0.0])
    acc, status = tasks.waypoint_accel(tr, x, xd_c)
    assert status == tasks.DONE
    assert tr.index == 1
    # unsaturated here, so the law is the restoring PD kp (goal - x) - kv xd
    np.testing.assert_allclose(acc, 400.0 * (0.0 - x) - 40.0 * xd_c, atol=1e-12)
    np.testing.assert_array_equal(tr.current, tr.waypoints[-1])
    assert tr.segment() is None
    empty = make_tracker(waypoints=[])
    acc, status = tasks.waypoint_accel(empty, x, xd_c)
    assert status == tasks.DONE
    np.testing.assert_array_equal(acc, 0.0)


@given(st.floats(1e-4, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_waypoint_scale_always_in_unit_interval(dist, y, z):
    tr = make_tracker(waypoints=[np.array([dist, y * dist, z * dist])])
    x = np.zeros(3)
    acc, _ = tasks.waypoint_accel(tr, x, np.zeros(3))
    xd_d = (tr.kp / tr.kv) * (tr.waypoints[0] - x)
    speed = np.linalg.norm(xd_d)
    v = np.linalg.norm(acc / tr.kv) / speed if speed > 0 else 1.0
    assert 0.0 < v <= 1.0 + 1e-12


def test_tracker_validation():
    with pytest.raises(ValueError):
        make_tracker(tolerance=0.0)


# ---------------------------------------------------------------------------
# octagon


def test_octagon_structure():
    center = np.array([0.55, -0.05, 0.22])
    pts = tasks.octagon_waypoints(center, 0.3)
    assert len(pts) == 16
    np.testing.assert_allclose(pts[0], [0.55, 0.25, 0.22], atol=1e-12)
    for k in range(8):
        np.testing.assert_allclose(np.linalg.norm(pts[2 * k] - center), 0.3, atol=1e-12)
        np.testing.assert_allclose(pts[2 * k + 1], center, atol=1e-12)
    for k in range(7):
        a = pts[2 * k] - center
        b = pts[2 * k + 2] - center
        angle = np.arccos(np.clip(a @ b / 0.09, -1, 1))
        np.testing.assert_allclose(angle, np.pi / 4, atol=1e-12)


def test_octagon_rejects_bad_radius():
    with pytest.raises(ValueError):
        tasks.octagon_waypoints(np.zeros(3), 0.0)


# ---------------------------------------------------------------------------
# task realization


def test_orientation_error_axis_angle_projection():
    R0 = np.eye(3)
    Rd = rbd.axis_rotation(np.array([1.0, 0.0, 0.0]), 0.2)
    err = tasks.orientation_error_xy(Rd, R0)
    np.testing.assert_allclose(err, [0.2, 0.0], atol=1e-12)
    Rd = rbd.axis_rotation(np.array([0.0, 0.0, 1.0]), 0.2)
    np.testing.assert_allclose(tasks.orientation_error_xy(Rd, R0), 0.0, atol=1e-12)


def test_realize_rotation_task(iiwa):
    state = rbd.JointState(np.array([0.0, 0.35, 0.0, -1.9, 0.0, -1.0, 0.0]), np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    T = dyn.transforms[iiwa.tool_frame]
    spec = tasks.TaskSpec(priority=1, mode="impedance", selector="tool_rot_xy",
                          stiffness=100.0 * np.eye(2), damping=20.0 * np.eye(2),
                          target_rotation=rbd.axis_rotation(np.array([1.0, 0, 0]), 0.26)
                          @ T[:3, :3])
    inst = tasks.realize_task(spec, dyn)
    assert inst.J.shape == (2, 7)
    np.testing.assert_allclose(inst.error, [0.26, 0.0], atol=1e-9)
    np.testing.assert_allclose(inst.a_d, [26.0, 0.0], atol=1e-7)


def test_realize_waypoint_task_advances_tracker(iiwa):
    state = rbd.JointState(np.array([0.0, 0.35, 0.0, -1.9, 0.0, -1.0, 0.0]), np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    x0 = dyn.transforms[iiwa.tool_frame][:3, 3]
    tracker = tasks.WaypointTracker(waypoints=[x0.copy(), x0 + [0.1, 0, 0]],
                                    tolerance=1e-3, kp=400, kv=40, v_sat=0.4)
    spec = tasks.TaskSpec(priority=1, mode="waypoint_tracker", selector="tool_pos",
                          tracker=tracker)
    inst = tasks.realize_task(spec, dyn)
    assert tracker.index == 1          # first waypoint is the current pose
    assert inst.J.shape == (3, 7)


def test_taskspec_validation():
    with pytest.raises(ValueError, match="selector"):
        tasks.TaskSpec(priority=1, mode="impedance", selector="nope",
                       stiffness=np.eye(2), damping=np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        tasks.TaskSpec(priority=1, mode="impedance", selector="tool_rot_xy",
                       stiffness=-np.eye(2), damping=np.eye(2))
    with pytest.raises(ValueError, match="tracker"):
        tasks.TaskSpec(priority=1, mode="waypoint_tracker", selector="tool_pos")
