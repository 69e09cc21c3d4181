from __future__ import annotations

import json

import numpy as np
import pytest

from dcts import rbd, sim

from conftest import Q_STAR, planar_dict


def short_scenario(name="rotation_hold", duration=0.2):
    sc = sim.load_bundled_scenario(name)
    sc.duration = duration
    return sc


# ---------------------------------------------------------------------------
# integrator


def test_step_holds_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    tau = rbd.gravity_forces(iiwa, Q_STAR)
    out, qdd = sim.step(iiwa, state, tau, None, 1e-4)
    np.testing.assert_allclose(qdd, 0.0, atol=1e-8)
    np.testing.assert_allclose(out.q, state.q, atol=1e-12)
    np.testing.assert_allclose(out.qd, 0.0, atol=1e-12)


def test_step_rejects_bad_dt(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    with pytest.raises(ValueError):
        sim.step(iiwa, state, np.zeros(7), None, 0.0)


def test_pendulum_energy_drift(pendulum):
    """Free pendulum from horizontal: semi-implicit Euler drift < 0.5 % over 1 s."""
    state = rbd.JointState(np.zeros(1), np.zeros(1))

    def energy(s):
        # E = 1/2 m l^2 w^2 + m g l sin(q), zero at the horizontal
        return 0.5 * s.qd[0] ** 2 + 9.81 * np.sin(s.q[0])

    e0 = energy(state)
    drift = 0.0
    for _ in range(10000):
        state, _ = sim.step(pendulum, state, np.zeros(1), None, 1e-4)
        drift = max(drift, abs(energy(state) - e0))
    # energy scale of the swing is m g l = 9.81 J
    assert drift / 9.81 < 0.005


def test_step_first_order_convergence(pendulum):
    """Global trajectory error scales ~O(dt) against a fine reference."""
    def final_q(dt, t_end=0.5):
        state = rbd.JointState(np.zeros(1), np.zeros(1))
        for _ in range(int(round(t_end / dt))):
            state, _ = sim.step(pendulum, state, np.zeros(1), None, dt)
        return state.q[0]

    ref = final_q(1e-5)
    err_coarse = abs(final_q(4e-4) - ref)
    err_fine = abs(final_q(1e-4) - ref)
    ratio = err_coarse / err_fine
    assert 2.0 < ratio < 8.0        # ~4 expected for first order


# ---------------------------------------------------------------------------
# events


def test_apply_events_none_active():
    sc = short_scenario()
    state = rbd.JointState(sc.q0, np.zeros(7))
    np.testing.assert_allclose(sim.apply_events(sc, 0.0, sc.model, state), 0.0)


def test_cartesian_force_maps_through_jacobian():
    sc = short_scenario("push_recovery")
    model = sc.model
    state = rbd.JointState(sc.q0, np.zeros(7))
    tau = sim.apply_events(sc, 0.2, model, state)     # push active in [0.1, 0.5)
    J = rbd.jacobian(model, state.q, model.tool_frame)
    np.testing.assert_allclose(tau, J[:3].T @ np.array([10.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(sim.apply_events(sc, 0.6, model, state), 0.0)


def test_joint_torque_profile_trapezoid():
    ev = sim.Event(kind="joint_torque", start=1.0, duration=2.0, joint=4,
                   amplitude=30.0, ramp=0.5)
    assert ev.profile(0.9) == 0.0
    assert ev.profile(1.25) == pytest.approx(0.5)
    assert ev.profile(2.0) == pytest.approx(1.0)
    assert ev.profile(2.9) == pytest.approx(0.2)
    assert ev.profile(3.1) == 0.0


def test_unmodeled_mass_gravity_difference(iiwa):
    """At rest the payload observer reports exactly the gravity difference."""
    sc = short_scenario("payload_drop")
    model = sc.model
    state = rbd.JointState(sc.q0, np.zeros(7))
    plant = sc.plant_model(0.0)
    tau = sim.apply_events(sc, 0.0, model, state)
    g_diff = rbd.gravity_forces(model, state.q) - rbd.gravity_forces(plant, state.q)
    np.testing.assert_allclose(tau, g_diff, atol=1e-10)
    # and it is the payload wrench mapped through the point Jacobian
    ev = sc.events[0]
    J = rbd.jacobian(plant, state.q, plant.tool_frame, point=ev.com_offset)
    np.testing.assert_allclose(g_diff, J[:3].T @ (ev.mass * model.gravity), atol=1e-9)


def test_augment_with_point_mass_parallel_axis(iiwa):
    com = np.array([0.0, 0.0, 0.1])
    plant = sim.augment_with_point_mass(iiwa, 2.0, com)
    i = iiwa.n - 1
    assert plant.masses[i] == pytest.approx(iiwa.masses[i] + 2.0)
    expected_com = (iiwa.masses[i] * iiwa.coms[i] + 2.0 * com) / plant.masses[i]
    np.testing.assert_allclose(plant.coms[i], expected_com)
    # inertia grows (parallel axis), stays symmetric positive definite
    assert np.all(np.linalg.eigvalsh(plant.inertias[i])
                  >= np.linalg.eigvalsh(iiwa.inertias[i]).min() - 1e-12)


# ---------------------------------------------------------------------------
# energies


def test_energy_metrics_at_rest(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    g = rbd.gravity_forces(iiwa, Q_STAR)
    e_acc, e_tot, e_task, e_null = sim.energy_metrics(
        iiwa, state, g, J=rbd.jacobian(iiwa, Q_STAR, iiwa.tool_frame)[:3])
    assert e_acc == pytest.approx(0.0, abs=1e-12)
    assert e_tot == e_task == e_null == 0.0


def test_energy_metrics_null_velocity_invisible(iiwa):
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, 7)
    J = rbd.jacobian(iiwa, q, iiwa.tool_frame)[:3]
    bundle = rbd.task_dynamics(iiwa, q, J, epsilon=0.0)
    M = rbd.mass_matrix(iiwa, q)
    # velocity produced by a null-space torque impulse from rest: J qd = 0
    qd = np.linalg.solve(M, bundle.N @ rng.normal(size=7))
    state = rbd.JointState(q, qd)
    g = rbd.gravity_forces(iiwa, q)
    _, e_tot, e_task, e_null = sim.energy_metrics(iiwa, state, g, J=J)
    assert e_task < 1e-10
    assert e_null == pytest.approx(e_tot, rel=1e-9)


# ---------------------------------------------------------------------------
# run_scenario


def test_rotation_hold_regulates():
    sc = short_scenario(duration=0.5)
    tr = sim.run_scenario(sc, solver="dcts")
    assert tr.pos_err[-1] < tr.pos_err[0]
    assert np.all(tr.s >= 0) and np.all(tr.s <= 1)
    assert tr.e_kin_null.min() > -1e-9


def test_scenario_determinism_bytes(tmp_path):
    sc1 = short_scenario(duration=0.15)
    sc2 = short_scenario(duration=0.15)
    t1 = sim.run_scenario(sc1, solver="dcts")
    t2 = sim.run_scenario(sc2, solver="dcts")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_csv_layout(tmp_path):
    sc = short_scenario(duration=0.05)
    tr = sim.run_scenario(sc, solver="osc")
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    n, k = tr.n, tr.k
    assert header[:1 + 3 * n] == (
        ["t"] + [f"q{j+1}" for j in range(n)] + [f"qd{j+1}" for j in range(n)]
        + [f"tau{j+1}" for j in range(n)])
    assert header[1 + 3 * n:1 + 3 * n + k + 4] == (
        [f"s{j+1}" for j in range(k)]
        + ["E_acc", "E_kin_total", "E_kin_task", "E_kin_null"])
    assert len(lines) == 1 + len(tr.t)
    assert len(lines[1].split(",")) == len(header)


def test_summary_fields():
    sc = short_scenario(duration=0.05)
    s = sim.run_scenario(sc, solver="qp-mt").summary()
    for key in ("mean_position_error", "max_position_error",
                "mean_acceleration_error", "violation_pct",
                "violation_pct_per_joint", "energy", "scaling", "status_counts"):
        assert key in s
    assert set(s["violation_pct"]) == {"q", "v", "tau"}


def test_qp_md_null_energy_decays_after_push():
    """Damping regularizer dissipates the pushed-in null-space energy."""
    sc = sim.load_bundled_scenario("push_recovery")
    tr = sim.run_scenario(sc, solver="qp-md")
    t_end_push = 0.5
    i0 = np.searchsorted(tr.t, t_end_push)
    i2 = np.searchsorted(tr.t, t_end_push + 2.0)
    peak = tr.e_kin_null[:i0 + 1].max()
    assert tr.e_kin_null[i2] < 0.05 * peak


def test_unknown_solver_rejected():
    sc = short_scenario(duration=0.05)
    with pytest.raises(sim.ConfigError, match="valid"):
        sim.run_scenario(sc, solver="nope")


# ---------------------------------------------------------------------------
# scenario files and validation


def test_bundled_scenarios_validate_clean():
    for name in ("rotation_hold", "push_recovery", "star_octagon",
                 "limit_push", "payload_drop"):
        path = sim.bundled_scenario_path(name)
        issues = sim.validate_scenario_dict(json.loads(path.read_text()),
                                            source=str(path), model_dir=path.parent)
        assert not issues, f"{name}: {issues}"


def test_validation_reports_all_errors():
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["solver"] = "wrong"
    data["duration_s"] = -1.0
    data["tasks"][0].pop("stiffness")
    data["solver_config"]["scaling_mode"] = "exact"
    issues = sim.validate_scenario_dict(data, source="s")
    messages = [m for level, m in issues if level == "error"]
    assert len(messages) == 4
    assert any("solver" in m for m in messages)
    assert any("solver_config" in m and "scaling_mode" in m for m in messages)
    assert any("duration" in m for m in messages)
    assert any("stiffness" in m for m in messages)


def test_validation_warns_on_late_event():
    data = json.loads(sim.bundled_scenario_path("push_recovery").read_text())
    data["events"][0]["start_s"] = 99.0
    issues = sim.validate_scenario_dict(data, source="s")
    assert any(level == "warning" and "beyond" in m for level, m in issues)


def test_model_limit_overrides_apply():
    data = json.loads(sim.bundled_scenario_path("star_octagon").read_text())
    sc = sim.scenario_from_dict(data, source="s")
    np.testing.assert_allclose(sc.model.tau_max, 80.0)
    ls = sc.limit_set()
    assert ls.c_max[1] == pytest.approx(np.radians(168.0))
