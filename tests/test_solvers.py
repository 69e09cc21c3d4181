from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcts import limits, qpcore, rbd, solvers, tasks

import oracles
from conftest import Q_STAR
from test_golden_stack import ACC_LIMIT, N_STATES, Q_NOMINAL, stack_cases, stack_outputs

CFG = solvers.SolverConfig()


def rotation_task(model, dyn, a_d=(2.0, -1.0)):
    J6 = rbd.jacobian(model, dyn.kin, model.tool_frame)
    jd6 = rbd.jacobian_dot_qd(model, dyn, model.tool_frame)
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
    out = solvers.solve_osc(iiwa, state, task, None, CFG, dyn)
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-9)


def test_osc_achieves_task_exactly(scene):
    model, state, dyn = scene
    rng = np.random.default_rng(3)
    task = rotation_task(model, dyn)
    tau_ext = rng.normal(0, 3, 7)
    out = solvers.solve_osc(model, state, task, tau_ext, CFG, dyn)
    resid = task.J @ dyn.minv(out.tau - dyn.nu - dyn.g + tau_ext) \
        - (task.a_d - task.jdot_qd)
    assert np.abs(resid).max() < 1e-9


def test_osc_gauss_principle_optimality(scene):
    """No task-consistent torque perturbation lowers the acceleration energy."""
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    out = solvers.solve_osc(model, state, task, None, CFG, dyn)
    tau_prime = out.tau - dyn.nu - dyn.g
    base = 0.5 * tau_prime @ dyn.minv(tau_prime)
    bundle = rbd.task_dynamics(task.J, dyn.minv, epsilon=0.0)
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


def test_osc_degraded_at_singular_rotation_rows(iiwa):
    """At q = 0 every joint axis lies in the world y-z plane, so the x-rotation
    row of ``tool_rot_xy`` is zero: J M^-1 J^T is singular, the task inertia
    is damped and OSC reports ``degraded`` with a finite torque. At
    ``Q_NOMINAL`` the same rows are well conditioned and nothing is damped."""
    state = rbd.JointState(np.zeros(7), np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn)
    np.testing.assert_allclose(task.J[0], 0.0, atol=1e-12)
    assert rbd.lambda_factor(task.J, dyn.minv)[2]
    out = solvers.solve_osc(iiwa, state, task, None, CFG, dyn)
    assert out.status == solvers.DEGRADED
    assert np.isfinite(out.tau).all()
    nominal = rbd.compute_dynamics(iiwa, rbd.JointState(Q_NOMINAL, np.zeros(7)))
    assert not rbd.lambda_factor(rotation_task(iiwa, nominal).J, nominal.minv)[2]


def test_osc_saturated_inert_when_limits_loose(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out_plain = solvers.solve_osc(model, state, task, None, CFG, dyn)
    out_sat = solvers.solve_osc_saturated(model, state, task, lr, None, CFG, dyn)
    assert out_sat.tau.tobytes() == out_plain.tau.tobytes()
    assert not out_sat.diagnostics["saturated"].any()


def test_osc_saturated_pins_violating_joint(scene):
    """Plain OSC breaks the shaped acceleration bounds on this task; the
    saturated command pins the violating joints and keeps them."""
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(50.0, -30.0))
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -3.0),
                                   a_max=np.full(7, 3.0))
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    lo, hi = lr.bounds.acc_min, lr.bounds.acc_max
    plain = solvers.solve_osc(model, state, task, None, CFG, dyn)
    assert np.any(plain.qdd > hi + 1e-6) or np.any(plain.qdd < lo - 1e-6)
    out = solvers.solve_osc_saturated(model, state, task, lr, None, CFG, dyn)
    qdd = dyn.minv(out.tau - dyn.nu - dyn.g)
    assert np.all(qdd <= hi + 1e-6)
    assert np.all(qdd >= lo - 1e-6)


# ---------------------------------------------------------------------------
# QP baselines


def test_qp_mt_static_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn, a_d=(0.0, 0.0))
    out = solvers.solve_qp_mt(iiwa, state, task, CFG, dyn)
    assert out.status == solvers.OPTIMAL
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-6)


def test_qp_mt_small_regularizer_tracks_task(scene, monkeypatch):
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    monkeypatch.setattr(solvers, "QP_MT_WEIGHT", 1e-9)
    out = solvers.solve_qp_mt(model, state, task, CFG, dyn)
    err = task.J @ out.qdd - (task.a_d - task.jdot_qd)
    assert np.linalg.norm(err) < 1e-4


def test_qp_md_static_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    dyn = rbd.compute_dynamics(iiwa, state)
    task = rotation_task(iiwa, dyn, a_d=(0.0, 0.0))
    out = solvers.solve_qp_md(iiwa, state, task, CFG, dyn)
    np.testing.assert_allclose(out.tau, dyn.g, atol=1e-6)


def test_qp_baselines_respect_torque_box(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(400.0, -300.0))
    for solver in (solvers.solve_qp_mt, solvers.solve_qp_md):
        out = solver(model, state, task, CFG, dyn)
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
    out_osc = solvers.solve_osc(model, state, task, tau_ext, CFG, dyn)
    out = solvers.solve_dcts_multi(model, state, [task], lr, tau_ext, CFG, dyn)
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
    dyn = rbd.compute_dynamics(model, state)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, CFG, dyn)
    np.testing.assert_allclose(out.qdd, [50.0], atol=1e-6)
    np.testing.assert_allclose(out.s, [0.5], atol=1e-6)
    np.testing.assert_allclose(out.tau, [100.0], atol=1e-6)


def test_dcts_multi_k1_matches_single(scene):
    """A one-task stack is the single-level solve: with loose limits it is
    optimal at full scale."""
    model, state, dyn = scene
    task = rotation_task(model, dyn)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, CFG, dyn)
    assert out.status == solvers.OPTIMAL
    np.testing.assert_array_equal(out.s, [1.0])


def two_task_set(model, dyn, a2=60.0):
    J6 = rbd.jacobian(model, dyn.kin, model.tool_frame)
    jd6 = rbd.jacobian_dot_qd(model, dyn, model.tool_frame)
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
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, CFG, dyn)
    assert out.status == solvers.OPTIMAL
    assert out.s[0] == pytest.approx(1.0, abs=1e-9)
    assert out.s[1] < 1.0


def test_dcts_multi_achieves_priority_one_exactly(scene):
    """Lower-priority motion may not disturb the top task's acceleration."""
    model, state, dyn = scene
    tk = two_task_set(model, dyn, a2=2.0)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, CFG, dyn)
    assert out.status == solvers.OPTIMAL
    resid = tk[0].J @ out.qdd + tk[0].jdot_qd - out.s[0] * tk[0].a_d
    assert np.linalg.norm(resid) < 1e-6


def test_dcts_multi_null_space_consistency(scene):
    """The second task's motion produces no task-1 acceleration: J_1 qdd of
    the two-task stack is that of the top task solved alone."""
    model, state, dyn = scene
    tk = two_task_set(model, dyn, a2=2.0)
    lr = limits.realize_joint_limits(wide_limits(model), state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, tk, lr, None, CFG, dyn)
    top = solvers.solve_dcts_multi(model, state, tk[:1], lr, None, CFG, dyn)
    assert out.status == top.status == solvers.OPTIMAL
    np.testing.assert_allclose(tk[0].J @ out.qdd, tk[0].J @ top.qdd, rtol=0, atol=1e-6)


def test_dcts_scaling_in_unit_interval(scene):
    model, state, dyn = scene
    task = rotation_task(model, dyn, a_d=(500.0, -500.0))
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -5.0),
                                   a_max=np.full(7, 5.0))
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    out = solvers.solve_dcts_multi(model, state, [task], lr, None, CFG, dyn)
    assert np.all(out.s >= 0.0) and np.all(out.s <= 1.0)
    if out.status == solvers.OPTIMAL:
        assert np.all(out.tau <= model.tau_max + 1e-6)
        assert np.all(out.tau >= model.tau_min - 1e-6)


def test_dcts_infeasible_falls_back_to_braking(scene):
    """One task or a two-task stack: the fallback brakes inside the torque
    limits and reports every task scale as 0."""
    model, state, dyn = scene
    # impossible: demand a huge acceleration exactly (collapsed repaired bound)
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -2e4),
                                   a_max=np.full(7, 2e4))
    bounds = limits.shape_acceleration_bounds(ls, state.q, state.qd)
    bounds.acc_min[:] = 1.9e4
    bounds.acc_max[:] = 1.9e4
    lr = limits.LimitRealization(bounds=bounds)
    for stack in ([rotation_task(model, dyn)], two_task_set(model, dyn)):
        out = solvers.solve_dcts_multi(model, state, stack, lr, None, CFG, dyn)
        assert out.status == solvers.INFEASIBLE
        assert out.diagnostics.get("fallback") == "braking"
        assert out.s.tolist() == [0.0] * len(stack)
        assert np.all(out.tau <= model.tau_max + 1e-9)
        assert np.all(out.tau >= model.tau_min - 1e-9)


def test_diagnostics_hold_only_what_a_caller_reads(iiwa):
    """On the golden-stack states, scaled or not, each controller returns
    only the diagnostics a caller reads: none for plain OSC, the clamp flags
    for osc, the QP iterations for the QP baselines, the solve counts and the
    last QP for dcts (its braking fallback adds its own keys)."""
    for state, dyn, realized, tau_ext, lr in stack_cases(iiwa):
        task = realized[0]
        dcts = solvers.solve_dcts_multi(iiwa, state, realized, lr, tau_ext, CFG, dyn)
        assert dcts.status == solvers.OPTIMAL
        for out, keys in (
                (solvers.solve_osc(iiwa, state, task, tau_ext, CFG, dyn), set()),
                (solvers.solve_osc_saturated(iiwa, state, task, lr, tau_ext, CFG, dyn),
                 {"saturated"}),
                (solvers.solve_qp_mt(iiwa, state, task, CFG, dyn), {"qp_iterations"}),
                (solvers.solve_qp_md(iiwa, state, task, CFG, dyn), {"qp_iterations"}),
                (dcts, {"stages", "qp_iterations", "last_qp"})):
            assert out.diagnostics.keys() == keys


def test_dcts_solves_each_kkt_system_once_per_call(iiwa, monkeypatch):
    """On the golden-stack states no (K, rhs) reaches qpcore's KKT solve
    twice within one solve_dcts_multi call: the stages of a level, and the
    dependence tests of its sweep, share the directions of their QP family.
    Each stage with equality rows starts with one KKT solve of its own
    right side, 256 solves in all (248 when the rows entered one dual step
    at a time, their directions shared); giving each stage a direction
    dict of its own takes 344."""
    per_call = []
    kkt_solve = qpcore._kkt_solve

    def counting_solve(Hs, N, rhs):
        # K = [Hs N; N^T 0] is fixed by Hs and N with its shape
        per_call[-1].append((Hs.tobytes(), N.shape, N.tobytes(), rhs.tobytes()))
        return kkt_solve(Hs, N, rhs)

    dcts_multi = solvers.solve_dcts_multi

    def counting_dcts(*args, **kwargs):
        per_call.append([])
        return dcts_multi(*args, **kwargs)

    monkeypatch.setattr(qpcore, "_kkt_solve", counting_solve)
    monkeypatch.setattr(solvers, "solve_dcts_multi", counting_dcts)
    stack_outputs(iiwa)
    assert len(per_call) == N_STATES
    assert all(len(set(keys)) == len(keys) for keys in per_call)
    assert sum(map(len, per_call)) == 256


def test_the_criterion_10_posture_level_meets_its_equality_rows():
    """Level 2 of criterion 10's torque sweep at torque scale 0.3875 (the
    33-point sweep's 21st point), built here stage by stage as the cascade
    builds it: seven equality rows J = I over a Hessian that ``_level_qp``
    regularizes for a singular projector. Its s = 1 stage is infeasible, and
    the max-s stage and the pinned-scale stage at its scale end optimal
    with every equality row met to 1e-12. A start from the range-space form
    C H^-1 C^T instead of the KKT system missed an equality row by 5.7e-7
    in the max-s stage, past the solve tolerance 1e-8, so that stage ended
    infeasible and the level braked."""
    data = json.loads(rbd.bundled_model_path().read_text())
    data["gravity"] = [0.0, 0.0, 0.0]
    m0 = rbd.model_from_dict(data)
    scale = np.linspace(1.0, 0.02, 33)[20]
    model = replace(m0, tau_min=m0.tau_min * scale, tau_max=m0.tau_max * scale)
    state = rbd.JointState(np.array([-0.78, 2.05, 2.07, -1.65, -2.08, 2.03, 0.0]) * 0.9,
                           np.zeros(7))
    dyn = rbd.compute_dynamics(model, state)
    J6 = rbd.jacobian(model, dyn.kin, model.tool_frame)
    t1 = tasks.TaskInstance(J=J6[:3], jdot_qd=np.zeros(3), a_d=np.array([8.0, -4.0, 4.0]),
                            priority=1)
    t2 = tasks.TaskInstance(J=np.eye(7), jdot_qd=np.zeros(7), a_d=np.full(7, 40.0), priority=2)
    ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -1e5), a_max=np.full(7, 1e5))
    lr = limits.realize_joint_limits(ls, state.q, state.qd)
    projectors = solvers._nullspace_stack([t1, t2], dyn)
    comp = dyn.nu + dyn.g
    sides = (model.tau_min - comp, model.tau_max - comp, lr.bounds.acc_min, lr.bounds.acc_max)
    top = qpcore.solve(solvers._level_qp(dyn, t1.J, t1.a_d, -t1.jdot_qd, projectors[0],
                                         np.zeros(7), *sides, top=True, maximize_s=False))
    assert top.status == qpcore.OPTIMAL
    args = (dyn, t2.J, t2.a_d, -t2.jdot_qd, projectors[1], projectors[0] @ top.x[:7], *sides)
    fixed = solvers._level_qp(*args, top=False, maximize_s=False)
    assert qpcore.solve(fixed).status == qpcore.INFEASIBLE
    scale_qp = solvers._level_qp(*args, top=False, maximize_s=True)
    scaled = qpcore.solve(scale_qp)
    stage = fixed.with_beq(float(np.clip(scaled.x[7] - 1e-8, 0.0, 1.0)) * t2.a_d - t2.jdot_qd)
    for problem, sol in ((scale_qp, scaled), (stage, qpcore.solve(stage))):
        assert sol.status == qpcore.OPTIMAL
        assert np.abs(problem.Aeq @ sol.x - problem.beq).max() <= 1e-12


def test_level_qp_matches_the_padded_assembly(iiwa):
    """Both stages of both levels of the golden stack, on its 12 states,
    give the problem and the row table of the padded assembly byte for
    byte: the same JSON, rows and sides, and the same independent rows."""
    for state, dyn, realized, tau_ext, lr in stack_cases(iiwa):
        projectors = solvers._nullspace_stack(realized, dyn)
        comp = dyn.nu + dyn.g
        sides = (iiwa.tau_min - comp, iiwa.tau_max - comp, lr.bounds.acc_min, lr.bounds.acc_max)
        frozen = np.zeros(iiwa.n)
        for i, task in enumerate(realized):
            rhs0 = -task.jdot_qd
            if tau_ext is not None:
                rhs0 = rhs0 - task.J @ dyn.minv(tau_ext)
            args = (dyn, task.J, task.a_d, rhs0, projectors[i], frozen, *sides, i == 0)
            for maximize_s in (True, False):
                new = solvers._level_qp(*args, maximize_s=maximize_s)
                old = oracles.level_qp_padded(*args, maximize_s=maximize_s)
                assert new.to_json() == old.to_json()
                assert new._rows.C.tobytes() == old._rows.C.tobytes()
                assert new._rows.b.tobytes() == old._rows.b.tobytes()
                assert new._rows.eq_keep == old._rows.eq_keep
            # the next level's frozen part, from this level's s-pinned stage
            frozen = frozen + projectors[i] @ qpcore.solve(new).x


def top_level(model, dyn, task, tau_ext, lr):
    """(the s-pinned QP of the top level as ``solve_dcts_multi`` builds it,
    rhs0, torque sides, shaped acceleration bounds)."""
    n = model.n
    comp = dyn.nu + dyn.g
    rhs0 = -task.jdot_qd
    if tau_ext is not None:
        rhs0 = rhs0 - task.J @ dyn.minv(tau_ext)
    tau = (model.tau_min - comp, model.tau_max - comp)
    acc = (lr.bounds.acc_min, lr.bounds.acc_max)
    problem = solvers._level_qp(dyn, task.J, task.a_d, rhs0, np.eye(n), np.zeros(n),
                                *tau, *acc, top=True, maximize_s=False)
    return problem, rhs0, tau, acc


def test_optimal_stages_meet_their_task_equality(iiwa):
    """Every stage the top level of the golden stack can try, s = 0, 0.025,
    ..., 1 on seeds 8-12, either ends optimal with J qdd = s a_d + rhs0 or
    not optimal. A row that enters while as many rows are active as there
    are variables lies in their span, and its rounding-noise c z is no step;
    taken as one, it ended 14 of these solves optimal with the equality
    missed by up to 39.6."""
    optimal = worst = 0
    for seed in range(8, 13):
        for _, dyn, realized, tau_ext, lr in stack_cases(iiwa, seed):
            task = realized[0]
            fixed, rhs0, _, _ = top_level(iiwa, dyn, task, tau_ext, lr)
            for s in np.linspace(0.0, 1.0, 41):
                stage = fixed.with_beq(s * task.a_d + rhs0)
                sol = qpcore.solve(stage)
                if sol.status == qpcore.OPTIMAL:
                    optimal += 1
                    worst = max(worst, float(np.abs(stage.Aeq @ sol.x - stage.beq).max()))
    assert optimal > 1000
    assert worst <= 1e-6


def golden_variants(model, seeds=(5, 8, 9, 10, 11, 12)):
    """(state, dyn, realized tasks, tau_ext, limit realization) on the
    golden-stack states of ``seeds``, each once without and once with an
    external torque (the state's own pulse, or a seeded one)."""
    lset = limits.joint_space_limits(model, 1e-3, a_min=-ACC_LIMIT, a_max=ACC_LIMIT)
    rng = np.random.default_rng(3)
    for seed in seeds:
        for state, dyn, realized, tau_ext, _ in stack_cases(model, seed):
            pulse = rng.normal(0.0, 4.0, 7) if tau_ext is None else tau_ext
            for ext in (None, pulse):
                lr = limits.realize_joint_limits(lset, state.q, state.qd,
                                                 None if ext is None else dyn.minv(ext))
                yield state, dyn, realized, ext, lr


def _encoded(value):
    """A diagnostics value as bytes: a QP as its JSON, an array with its
    dtype and shape, anything else as its repr."""
    if isinstance(value, qpcore.QpProblem):
        return value.to_json().encode()
    if isinstance(value, np.ndarray):
        return f"{value.dtype} {value.shape}".encode() + value.tobytes()
    if isinstance(value, tuple):
        return np.array(value).tobytes()
    return repr(value).encode()


def test_sweep_decided_bisection_matches_solving_every_trial(iiwa):
    """The cascade that decides every bisection trial from each level's
    feasibility limit, solving only the trial it keeps and the lowest trial
    it decides infeasible, returns the bytes of the one that solves every
    trial, stage counts aside, on seeds 5 and 8-12 with and without
    tau_ext."""
    runs = fewer = 0
    for state, dyn, realized, tau_ext, lr in golden_variants(iiwa):
        out = solvers.solve_dcts_multi(iiwa, state, realized, lr, tau_ext, CFG, dyn)
        ref = oracles.dcts_every_trial(iiwa, state, realized, lr, tau_ext, CFG, dyn)
        for name in ("tau", "qdd", "s"):
            assert _encoded(getattr(out, name)) == _encoded(getattr(ref, name)), name
        assert out.status == ref.status == solvers.OPTIMAL
        d, d_ref = out.diagnostics, ref.diagnostics
        assert d.keys() == d_ref.keys()
        assert _encoded(d["last_qp"]) == _encoded(d_ref["last_qp"])
        assert d["stages"] <= d_ref["stages"]
        assert d["qp_iterations"] <= d_ref["qp_iterations"]
        fewer += d["stages"] < d_ref["stages"]
        runs += 1
    assert runs == 12 * N_STATES
    assert fewer >= 100


@pytest.mark.parametrize("shift", [0.05, -0.05, None])
def test_a_wrong_or_missing_limit_still_gives_every_trial_bytes(iiwa, monkeypatch, shift):
    """With the sweep's limit moved up by 0.05, the kept trial ends not
    optimal and the level reruns its bisection solving every trial, one
    solve more than the reference. Moved down by 0.05, the kept trial, if
    any, ends optimal, but so does the lowest trial decided infeasible, and
    the level reruns with one or two solves more. With no limit every trial
    is solved, as many solves as the reference. Either way every output
    holds the bytes of solving every trial."""
    sweep = qpcore.sweep
    monkeypatch.setattr(qpcore, "sweep", lambda *args: None if shift is None
                        else sweep(*args) + shift)
    reruns = 0
    for state, dyn, realized, tau_ext, lr in golden_variants(iiwa, seeds=(5, 8)):
        out = solvers.solve_dcts_multi(iiwa, state, realized, lr, tau_ext, CFG, dyn)
        ref = oracles.dcts_every_trial(iiwa, state, realized, lr, tau_ext, CFG, dyn)
        for name in ("tau", "qdd", "s"):
            assert _encoded(getattr(out, name)) == _encoded(getattr(ref, name)), name
        assert _encoded(out.diagnostics["last_qp"]) == _encoded(ref.diagnostics["last_qp"])
        extra = out.diagnostics["stages"] - ref.diagnostics["stages"]
        assert extra in {0.05: (0, 1), -0.05: (0, 1, 2), None: (0,)}[shift]
        reruns += extra > 0
    assert reruns >= (10 if shift else 0)


_STATES = {}


def golden_state(model, seed, k, ext_seed):
    """(dyn, realized tasks, tau_ext, limit realization) of golden-stack
    state k of ``seed``, with a seeded external torque or none."""
    if seed not in _STATES:
        _STATES[seed] = list(stack_cases(model, seed))
    state, dyn, realized, _, _ = _STATES[seed][k]
    tau_ext = None if ext_seed is None else np.random.default_rng(ext_seed).normal(0.0, 4.0, 7)
    lset = limits.joint_space_limits(model, 1e-3, a_min=-ACC_LIMIT, a_max=ACC_LIMIT)
    lr = limits.realize_joint_limits(lset, state.q, state.qd,
                                     None if tau_ext is None else dyn.minv(tau_ext))
    return dyn, realized, tau_ext, lr


GOLDEN_DRAWS = (st.sampled_from([5, *range(8, 15)]), st.integers(0, N_STATES - 1),
                st.one_of(st.none(), st.integers(0, 2**16)))


@given(*GOLDEN_DRAWS, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_the_sweep_limit_matches_the_lp_oracle(iiwa, seed, k, ext_seed, s0):
    """From an optimal top-level solve at scale s0, the sweep along a_d ends
    at the LP's largest feasible scale to 1e-9 when the task must scale, and
    at or beyond s = 1, or at no limit, when it need not."""
    dyn, realized, tau_ext, lr = golden_state(iiwa, seed, k, ext_seed)
    task = realized[0]
    fixed, rhs0, tau, acc = top_level(iiwa, dyn, task, tau_ext, lr)
    problem = fixed.with_beq(s0 * task.a_d + rhs0)
    sol = qpcore.solve(problem)
    assume(sol.status == qpcore.OPTIMAL)
    limit = qpcore.sweep(problem, sol, task.a_d)
    s_max = oracles.lp_max_scale(task.J, task.a_d, rhs0, dyn.M, *tau, *acc)
    if s_max < 1.0:
        assert limit is not None and abs(s0 + limit - s_max) <= 1e-9
    else:
        assert limit is None or s0 + limit >= 1.0 - 1e-9


POSTURE_A_D = np.array([90.0, -60.0, 120.0, -90.0, 180.0])


def lower_level_sweep(dyn, realized, tau_ext, lr, s_top, s0):
    """(sweep limit, LP limit) of a five-joint posture task below the golden
    stack's top level, with the top level solved at scale s_top frozen and
    the posture level solved at scale s0; None where either solve is not
    optimal or HiGHS finds no feasible step."""
    fixed, rhs0, tau, acc = top_level(dyn.model, dyn, realized[0], tau_ext, lr)
    top = qpcore.solve(fixed.with_beq(s_top * realized[0].a_d + rhs0))
    if top.status != qpcore.OPTIMAL:
        return None
    posture = tasks.TaskInstance(J=np.eye(7)[:5], jdot_qd=np.zeros(5), a_d=POSTURE_A_D,
                                 priority=2)
    projector = solvers._nullspace_stack([realized[0], posture], dyn)[1]
    level = solvers._level_qp(dyn, posture.J, POSTURE_A_D, np.zeros(5), projector, top.x,
                              *tau, *acc, top=False, maximize_s=False)
    problem = level.with_beq(s0 * POSTURE_A_D)
    sol = qpcore.solve(problem)
    if sol.status != qpcore.OPTIMAL:
        return None
    # HiGHS at 1e-10 may reject the solve's 1e-8 point
    t_max = oracles.lp_max_step(problem, POSTURE_A_D, 1.0 - s0)
    return None if t_max is None else (qpcore.sweep(problem, sol, POSTURE_A_D), t_max)


# (seed, k, ext_seed, s_top, s0) of lower levels where the sweep once
# decided from rounding noise: the first steps along nearly parallel active
# rows (x moving at 1e9 per unit t) and missed a row by 1e-7 at its limit;
# on the others a blocking row in the span of the active rows had c z of
# +8e-11 with |z| = 6e-10, taken as a step
SWEEP_WITNESSES = ((12, 6, 1, 0.28125, 0.0), (8, 2, None, 0.5, 0.0),
                   (9, 7, None, 0.0625, 0.0), (9, 7, 1254, 0.0, 0.0))


@given(*GOLDEN_DRAWS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(seed=12, k=6, ext_seed=1, s_top=0.28125, s0=0.0)
@example(seed=8, k=2, ext_seed=None, s_top=0.5, s0=0.0)
@example(seed=9, k=7, ext_seed=None, s_top=0.0625, s0=0.0)
@example(seed=9, k=7, ext_seed=1254, s_top=0.0, s0=0.0)
@settings(max_examples=200, deadline=None)
def test_the_sweep_limit_on_a_lower_level_matches_the_lp_oracle(iiwa, seed, k, ext_seed,
                                                               s_top, s0):
    """The same on a second level, whose torque and acceleration rows pass
    through its projector: a five-joint posture task below the golden
    stack's top level, with the top level solved at scale s_top frozen. The
    reference is an LP over the level QP's own rows and sides. The bound is
    1e-8 here: frozen on a corner of the limits, a level can start on more
    tight rows than it has free variables, and an exchange there may leave
    nearly parallel active rows (x moving at 1e9 per unit t); on one such
    draw the limit was 2e-9 past the LP's."""
    found = lower_level_sweep(*golden_state(iiwa, seed, k, ext_seed), s_top, s0)
    assume(found is not None)
    limit, t_max = found
    if t_max < 1.0 - s0 - 1e-8:
        assert limit is not None and abs(limit - t_max) <= 1e-8
    else:
        assert limit is None or limit >= t_max - 1e-8


@pytest.mark.parametrize("witness", SWEEP_WITNESSES, ids=str)
def test_the_sweep_limit_holds_when_m_moves_by_one_ulp(iiwa, witness):
    """On each witness level, with every entry of M moved one ulp up or
    down (and M refactorized), the sweep still ends within 1e-8 of the LP:
    its decisions rest on the problem, not on the last bit of the
    dynamics."""
    seed, k, ext_seed, s_top, s0 = witness
    dyn, realized, tau_ext, lr = golden_state(iiwa, seed, k, ext_seed)
    for direction in (0.0, np.inf, -np.inf):
        M = dyn.M if direction == 0.0 else np.nextafter(dyn.M, direction)
        nudged = replace(dyn, M=M, M_cho=rbd.spd_factor(M))
        found = lower_level_sweep(nudged, realized, tau_ext, lr, s_top, s0)
        assert found is not None
        limit, t_max = found
        assert t_max < 1.0 - s0 - 1e-8
        assert limit is not None and abs(limit - t_max) <= 1e-8, direction


def test_lazy_duals_equal_the_eager_build_on_every_stage(iiwa, monkeypatch):
    """Each stage of the golden stack, the constructed problems and those
    with_beq derived, builds on first read the dual vectors the eager
    reference builds from the same solve; they are read after every later
    stage of the call has been solved."""
    stages = []
    solve = qpcore.solve

    def recording(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        assert not set(qpcore._DUALS) & set(vars(sol))
        stages.append((sol, oracles.qp_duals_eager(*sol._pending)))
        return sol

    monkeypatch.setattr(qpcore, "solve", recording)
    stack_outputs(iiwa)
    assert len(stages) > 4 * N_STATES
    for sol, eager in stages:
        for name, vector in zip(qpcore._DUALS, eager):
            assert _encoded(getattr(sol, name)) == _encoded(vector), name


def test_top_level_scale_matches_the_lp_oracle(iiwa):
    """s_1 is the largest feasible scale of the top level, from below within
    the bisection's 1e-3: on the golden-stack states and on criterion 10's
    gravity-free sweep at three torque scales."""
    cases = [(iiwa, *case) for case in stack_cases(iiwa)]
    data = json.loads(rbd.bundled_model_path().read_text())
    data["gravity"] = [0.0, 0.0, 0.0]
    m0 = rbd.model_from_dict(data)
    state = rbd.JointState(np.array([-0.78, 2.05, 2.07, -1.65, -2.08, 2.03, 0.0]) * 0.9,
                           np.zeros(7))
    for scale in np.linspace(1.0, 0.02, 33)[[28, 30, 32]]:     # 0.143, 0.081, 0.020
        model = replace(m0, tau_min=m0.tau_min * scale, tau_max=m0.tau_max * scale)
        dyn = rbd.compute_dynamics(model, state)
        J6 = rbd.jacobian(model, dyn.kin, model.tool_frame)
        stack = [tasks.TaskInstance(J=J6[:3], jdot_qd=np.zeros(3),
                                    a_d=np.array([8.0, -4.0, 4.0]), priority=1),
                 tasks.TaskInstance(J=np.eye(7), jdot_qd=np.zeros(7),
                                    a_d=np.full(7, 40.0), priority=2)]
        ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -1e5),
                                       a_max=np.full(7, 1e5))
        cases.append((model, state, dyn, stack, None, limits.realize_joint_limits(
            ls, state.q, state.qd)))
    scaled = 0
    for model, state, dyn, stack, tau_ext, lr in cases:
        out = solvers.solve_dcts_multi(model, state, stack, lr, tau_ext, CFG, dyn)
        assert out.status == solvers.OPTIMAL
        _, rhs0, tau, acc = top_level(model, dyn, stack[0], tau_ext, lr)
        s_max = oracles.lp_max_scale(stack[0].J, stack[0].a_d, rhs0, dyn.M, *tau, *acc)
        assert s_max - 1e-3 <= out.s[0] <= s_max + 1e-9
        scaled += s_max < 1.0
    assert scaled >= 8


def test_dcts_requires_sorted_tasks(scene):
    model, state, dyn = scene
    tk = two_task_set(model, dyn)
    with pytest.raises(ValueError, match="sorted"):
        solvers.solve_dcts_multi(model, state, tk[::-1], None, None, CFG, dyn)


def test_readme_library_example_solves_its_task():
    """The README's library example runs as printed and DCTS meets its
    orientation task unscaled: s = 1 and J qdd + Jdot qd = a_d."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    out, task = namespace["out"], namespace["task"]
    assert out.status == solvers.OPTIMAL
    np.testing.assert_array_equal(out.s, [1.0])
    np.testing.assert_allclose(task.J @ out.qdd + task.jdot_qd, task.a_d, rtol=0, atol=1e-9)
