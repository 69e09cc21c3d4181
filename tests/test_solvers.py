from __future__ import annotations

import numpy as np
import pytest

from dcts import limits, rbd, solvers, tasks

from conftest import Q_STAR


def rotation_task(model, dyn, a_d=(2.0, -1.0)):
    J6 = rbd.jacobian(model, dyn.q, model.tool_frame, transforms=dyn.transforms)
    jd6 = rbd.jacobian_dot_qd(model, dyn.q, dyn.qd, model.tool_frame,
                              transforms=dyn.transforms)
    return tasks.TaskInstance(J=J6[3:5], jdot_qd=jd6[3:5],
                              a_d=np.asarray(a_d, float), priority=1)


def wide_limits(model, n=7):
    ls = limits.joint_space_limits(model, 1e-3,
                                   a_min=np.full(n, -1e4), a_max=np.full(n, 1e4))
    return ls


@pytest.fixture
def scene(iiwa):
    rng = np.random.default_rng(1)
    state = rbd.JointState(Q_STAR * 0.9, rng.normal(0, 0.2, 7))
    dyn = rbd.compute_dynamics(iiwa, state)
    return iiwa, state, dyn


# ---------------------------------------------------------------------------
# OSC


def test_osc_pure_gravity_compensation(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn, a_d=(0.0, 0.0))
    out = solvers.solve_osc(iiwa, state, task, None, dyn=dyn)
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-9)


def test_osc_achieves_task_exactly(scene):
    model, state, dyn = scene
    rng = np.random.default_rng(3)
    task = rotation_task(model, dyn)
    tau_ext = rng.normal(0, 3, 7)
    out = solvers.solve_osc(model, state, task, tau_ext, dyn=dyn)
    resid = task.J @ dyn.minv(out.tau - dyn.nu - dyn.g + tau_ext) \
        - (task.a_d - task.jdot_qd)
    assert np.abs(resid).max() < 1e-9


def test_osc_gauss_principle_optimality(scene):
    """No task-consistent torque perturbation lowers the acceleration energy."""
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    out = solvers.solve_osc(model, state, task, None, dyn=dyn)
    tau_prime = out.diagnostics["tau_prime"]
    base = 0.5 * tau_prime @ dyn.minv(tau_prime)
    bundle = rbd.task_dynamics(model, state.q, task.J, epsilon=0.0, minv=dyn.minv)
    rng = np.random.default_rng(4)
    scale = 0.1 * np.linalg.norm(tau_prime)
    for _ in range(1000):
        z = rng.normal(size=7)
        dz = bundle.N @ z
        dz *= scale * rng.random() / max(np.linalg.norm(dz), 1e-12)
        cand = tau_prime + dz
        # perturbation is task-consistent by construction
        assert np.linalg.norm(task.J @ dyn.minv(dz)) < 1e-8 * max(np.linalg.norm(dz), 1.0)
        assert 0.5 * cand @ dyn.minv(cand) >= base - 1e-9


def test_naive_saturate():
    tau = np.array([50.0, 150.0, -130.0])
    lim = np.full(3, 100.0)
    out = solvers.naive_saturate(tau, -lim, lim)
    np.testing.assert_allclose(out, [50.0, 100.0, -100.0])
    np.testing.assert_allclose(solvers.naive_saturate(out, -lim, lim), out)


def test_osc_saturated_inert_when_limits_loose(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out_plain = solvers.solve_osc(model, state, task, None, dyn=dyn)
    out_sat = solvers.solve_osc_saturated(model, state, task, lr, None, dyn=dyn)
    np.testing.assert_allclose(out_sat.tau, out_plain.tau, atol=1e-9)
    assert not out_sat.diagnostics["saturated"].any()


def test_osc_saturated_pins_violating_joint(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(50.0, -30.0))
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -3.0),
                                   a_max=np.full(7, 3.0))
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    out = solvers.solve_osc_saturated(model, state, task, lr, None, dyn=dyn)
    qdd = dyn.minv(out.tau - dyn.nu - dyn.g)
    assert np.all(qdd <= lr.bounds.acc_max + 1e-6)
    assert np.all(qdd >= lr.bounds.acc_min - 1e-6)
    assert out.diagnostics["pinned"]


# ---------------------------------------------------------------------------
# QP baselines


def test_qp_mt_static_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn, a_d=(0.0, 0.0))
    out = solvers.solve_qp_mt(iiwa, state, task, dyn=dyn)
    assert out.status == solvers.OPTIMAL
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-6)


def test_qp_mt_small_regularizer_tracks_task(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    out = solvers.solve_qp_mt(model, state, task,
                              cfg=solvers.SolverConfig(qp_mt_weight=1e-9), dyn=dyn)
    err = task.J @ out.qdd - (task.a_d - task.jdot_qd)
    assert np.linalg.norm(err) < 1e-4


def test_qp_md_static_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn, a_d=(0.0, 0.0))
    out = solvers.solve_qp_md(iiwa, state, task, dyn=dyn)
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-6)


def test_qp_baselines_respect_torque_box(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(400.0, -300.0))
    for solver in (solvers.solve_qp_mt, solvers.solve_qp_md):
        out = solver(model, state, task, dyn=dyn)
        assert out.status == solvers.OPTIMAL
        assert np.all(out.tau <= model.tau_max + 1e-6)
        assert np.all(out.tau >= model.tau_min - 1e-6)


# ---------------------------------------------------------------------------
# DCTS


def test_dcts_equals_osc_unconstrained(scene):
    """The central regression: with no binding limits, DCTS reproduces OSC."""
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    rng = np.random.default_rng(5)
    tau_ext = rng.normal(0, 2, 7)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd,
                                     dyn.minv(tau_ext))
    out_osc = solvers.solve_osc(model, state, task, tau_ext, dyn=dyn)
    out = solvers.solve_dcts_multi(model, state, [task], lr, tau_ext, dyn=dyn)
    assert out.status == solvers.OPTIMAL
    np.testing.assert_allclose(out.s, [1.0])
    assert np.abs(out.tau - out_osc.tau).max() < 1e-6


def test_dcts_scalar_analytic_scaling():
    model = rbd.model_from_dict({
        "name": "one", "gravity": [0, 0, 0],
        "joints": [{"origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0],
                    "axis": [0, 0, 1], "q_min": -10, "q_max": 10,
                    "v_min": -100, "v_max": 100, "tau_min": -100.0, "tau_max": 100.0,
                    "link": {"mass": 2.0, "com": [1.0, 0, 0],
                             "inertia": [1e-9, 1e-9, 1e-9, 0, 0, 0]}}]})
    state = rbd.JointState(np.zeros(1), np.zeros(1))
    task = tasks.TaskInstance(J=np.array([[1.0]]), jdot_qd=np.zeros(1),
                              a_d=np.array([100.0]), priority=1)
    ls = limits.limit_set([-10], [10], [-100], [100], [-1e6], [1e6], 1e-3)
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None)
    np.testing.assert_allclose(out.qdd, [50.0], atol=1e-6)
    np.testing.assert_allclose(out.s, [0.5], atol=1e-6)
    np.testing.assert_allclose(out.tau, [100.0], atol=1e-6)


def test_dcts_multi_k1_matches_single(scene):
    """A one-task stack is the single-level solve: N_1 = I, so the stacked
    level acceleration is the total one, bit for bit."""
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, dyn=dyn)
    assert out.status == solvers.OPTIMAL
    np.testing.assert_array_equal(out.s, [1.0])
    np.testing.assert_array_equal(out.diagnostics["qdd_aug"], out.qdd)


def two_task_set(model, dyn, a2=60.0):
    J6 = rbd.jacobian(model, dyn.q, model.tool_frame, transforms=dyn.transforms)
    jd6 = rbd.jacobian_dot_qd(model, dyn.q, dyn.qd, model.tool_frame,
                              transforms=dyn.transforms)
    t1 = tasks.TaskInstance(J=J6[:3], jdot_qd=jd6[:3],
                            a_d=np.array([1.0, -0.5, 0.5]), priority=1)
    # a full-rank posture task cannot be achieved inside the 4-dim null
    # space of the position task: s_2 < 1 even with loose limits
    t2 = tasks.TaskInstance(J=np.eye(7), jdot_qd=np.zeros(7),
                            a_d=np.full(7, a2), priority=2)
    return [t1, t2]


def test_dcts_multi_hierarchy_scales_lower_priority_first(scene):
    model, state, dyn = scene
    tk = two_task_set(model, dyn)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, dyn=dyn)
    assert out.status == solvers.OPTIMAL
    assert out.s[0] == pytest.approx(1.0, abs=1e-9)
    assert out.s[1] < 1.0


def test_dcts_multi_achieves_priority_one_exactly(scene):
    """Lower-priority motion may not disturb the top task's acceleration."""
    model, state, dyn = scene
    tk = two_task_set(model, dyn, a2=2.0)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, dyn=dyn)
    assert out.status == solvers.OPTIMAL
    resid = tk[0].J @ out.qdd + tk[0].jdot_qd - out.s[0] * tk[0].a_d
    assert np.linalg.norm(resid) < 1e-6


def test_dcts_multi_null_space_consistency(scene):
    """Task-2 torque contribution produces no task-1 acceleration."""
    model, state, dyn = scene
    tk = two_task_set(model, dyn, a2=2.0)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, dyn=dyn)
    qdd_aug = out.diagnostics["qdd_aug"]
    bundle = rbd.task_dynamics(model, state.q, tk[0].J, epsilon=0.0, minv=dyn.minv)
    n_acc = np.eye(7) - bundle.Jbar @ tk[0].J      # acceleration-space projector
    tau2 = dyn.M @ (n_acc @ qdd_aug[7:])
    acc1 = tk[0].J @ dyn.minv(tau2)
    assert np.linalg.norm(acc1) < 1e-6 * max(1.0, np.linalg.norm(tau2))


def test_dcts_scaling_in_unit_interval(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(500.0, -500.0))
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -5.0),
                                   a_max=np.full(7, 5.0))
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, dyn=dyn)
    assert np.all(out.s >= 0.0) and np.all(out.s <= 1.0)
    if out.status == solvers.OPTIMAL:
        assert np.all(out.tau <= model.tau_max + 1e-6)
        assert np.all(out.tau >= model.tau_min - 1e-6)


def test_dcts_infeasible_falls_back_to_braking(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    # impossible: demand a huge acceleration exactly (collapsed repaired bound)
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -2e4),
                                   a_max=np.full(7, 2e4))
    bounds = limits.shape_acceleration_bounds(ls, state.q, state.qd)
    bounds.acc_min[:] = 1.9e4
    bounds.acc_max[:] = 1.9e4
    lr = limits.LimitRealization(Jc=np.eye(7), jdot_c_qd=np.zeros(7), bounds=bounds)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, dyn=dyn)
    assert out.status == solvers.INFEASIBLE
    assert out.diagnostics.get("fallback") == "braking"
    assert np.all(out.tau <= model.tau_max + 1e-9)
    assert np.all(out.tau >= model.tau_min - 1e-9)


def test_dcts_requires_sorted_tasks(scene):
    model, state, dyn = scene
    tk = two_task_set(model, dyn)
    with pytest.raises(ValueError, match="sorted"):
        solvers.solve_dcts_multi(model, state, tk[::-1], None, None, dyn=dyn)
