from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcts import rbd, sim, solvers

from conftest import Q_STAR, planar_dict


def short_scenario(name="rotation_hold", duration=0.2):
    sc = sim.load_bundled_scenario(name)
    sc.duration = duration
    return sc


# ---------------------------------------------------------------------------
# integrator


def test_step_holds_equilibrium(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    tau = rbd.compute_dynamics(iiwa, state).g
    out, qdd = sim.step(iiwa, state, tau, None, 1e-4, rbd.Kinematics(iiwa, state.q))
    np.testing.assert_allclose(qdd, 0.0, atol=1e-8)
    np.testing.assert_allclose(out.q, state.q, atol=1e-12)
    np.testing.assert_allclose(out.qd, 0.0, atol=1e-12)


def test_step_rejects_bad_dt(iiwa):
    state = rbd.JointState(Q_STAR, np.zeros(7))
    with pytest.raises(ValueError):
        sim.step(iiwa, state, np.zeros(7), None, 0.0, rbd.Kinematics(iiwa, state.q))


def test_pendulum_energy_drift(pendulum):
    """Free pendulum from horizontal: semi-implicit Euler drift < 0.5 % over 1 s."""
    state = rbd.JointState(np.zeros(1), np.zeros(1))

    def energy(s):
        # E = 1/2 m l^2 w^2 + m g l sin(q), zero at the horizontal
        return 0.5 * s.qd[0] ** 2 + 9.81 * np.sin(s.q[0])

    e0 = energy(state)
    drift = 0.0
    for _ in range(10000):
        kin = rbd.Kinematics(pendulum, state.q)
        state, _ = sim.step(pendulum, state, np.zeros(1), None, 1e-4, kin)
        drift = max(drift, abs(energy(state) - e0))
    # energy scale of the swing is m g l = 9.81 J
    assert drift / 9.81 < 0.005


def test_step_first_order_convergence(pendulum):
    """Global trajectory error scales ~O(dt) against a fine reference."""
    def final_q(dt, t_end=0.5):
        state = rbd.JointState(np.zeros(1), np.zeros(1))
        for _ in range(int(round(t_end / dt))):
            kin = rbd.Kinematics(pendulum, state.q)
            state, _ = sim.step(pendulum, state, np.zeros(1), None, dt, kin)
        return state.q[0]

    ref = final_q(1e-5)
    err_coarse = abs(final_q(4e-4) - ref)
    err_fine = abs(final_q(1e-4) - ref)
    ratio = err_coarse / err_fine
    assert 2.0 < ratio < 8.0        # ~4 expected for first order


# ---------------------------------------------------------------------------
# events


def measured(sc, t, state):
    """The noise-free tau_ext a tick measures at ``state`` from rest (no last
    acceleration): the scripted torques at the nominal model's kinematics,
    plus the payload observer while the plant is not the model."""
    kin = rbd.Kinematics(sc.model, state.q)
    tau = sim.scripted_tau_ext(sc.events, t, sc.model, kin)
    plant = sc.plant_model(t)
    if plant is not sc.model:
        tau = tau + sim.payload_observer(sc.model, plant, state, np.zeros(sc.model.n),
                                         kin, rbd.Kinematics(plant, state.q))
    return tau


def test_measured_tau_ext_none_active():
    sc = short_scenario()
    state = rbd.JointState(sc.q0, np.zeros(7))
    np.testing.assert_allclose(measured(sc, 0.0, state), 0.0)


def test_cartesian_force_maps_through_jacobian():
    sc = short_scenario("push_recovery")
    model = sc.model
    state = rbd.JointState(sc.q0, np.zeros(7))
    tau = measured(sc, 0.2, state)     # push active in [0.1, 0.5)
    J = rbd.jacobian(model, rbd.Kinematics(model, state.q), model.tool_frame)
    np.testing.assert_allclose(tau, J[:3].T @ np.array([10.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(measured(sc, 0.6, state), 0.0)


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
    tau = measured(sc, 0.0, state)
    g_diff = rbd.compute_dynamics(model, state).g - rbd.compute_dynamics(plant, state).g
    np.testing.assert_allclose(tau, g_diff, atol=1e-10)
    # and it is the payload wrench mapped through the point Jacobian
    ev = sc.events[0]
    J = rbd.jacobian(plant, rbd.Kinematics(plant, state.q), plant.tool_frame,
                     point=ev.com_offset)
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
    dyn = rbd.compute_dynamics(iiwa, state)
    e_acc, e_tot, e_task, e_null = sim.energy_metrics(
        dyn, dyn.g, rbd.jacobian(iiwa, dyn.kin, iiwa.tool_frame)[:3])
    assert e_acc == pytest.approx(0.0, abs=1e-12)
    assert e_tot == e_task == e_null == 0.0


def test_energy_metrics_null_velocity_invisible(iiwa):
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, 7)
    rest = rbd.compute_dynamics(iiwa, rbd.JointState(q, np.zeros(7)))
    J = rbd.jacobian(iiwa, rest.kin, iiwa.tool_frame)[:3]
    bundle = rbd.task_dynamics(J, rest.minv, epsilon=0.0)
    # velocity produced by a null-space torque impulse from rest: J qd = 0
    qd = np.linalg.solve(rest.M, bundle.N @ rng.normal(size=7))
    dyn = rbd.compute_dynamics(iiwa, rbd.JointState(q, qd))
    _, e_tot, e_task, e_null = sim.energy_metrics(dyn, dyn.g, J)
    assert e_task < 1e-10
    assert e_null == pytest.approx(e_tot, rel=1e-9)


# ---------------------------------------------------------------------------
# run_scenario


def test_rotation_hold_regulates():
    sc = short_scenario(duration=0.5)
    [tr] = sim.run_scenario(sc, ["dcts"])
    assert tr.pos_err[-1] < tr.pos_err[0]
    assert np.all(tr.s >= 0) and np.all(tr.s <= 1)
    assert tr.e_kin_null.min() > -1e-9


def test_scenario_determinism_bytes(tmp_path):
    sc1 = short_scenario(duration=0.15)
    sc2 = short_scenario(duration=0.15)
    [t1] = sim.run_scenario(sc1, ["dcts"])
    [t2] = sim.run_scenario(sc2, ["dcts"])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def two_task_dict(duration: float) -> dict:
    """rotation_hold with a joint-posture task below its orientation task."""
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = duration
    data["tasks"].append({"priority": 2, "mode": "impedance", "selector": "joint_posture",
                          "stiffness": 10.0, "damping": 6.0})
    return data


def test_trace_csv_layout(tmp_path):
    """One scale column per task sits between tau and the energies."""
    [one] = sim.run_scenario(short_scenario(duration=0.05), ["osc"])
    [two] = sim.run_scenario(sim.scenario_from_dict(two_task_dict(0.005)), ["dcts"])
    for tr, k in ((one, 1), (two, 2)):
        path = tmp_path / f"k{k}.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        n = tr.n
        assert header == tr.header()
        assert header[:1 + 3 * n] == (
            ["t"] + [f"q{j+1}" for j in range(n)] + [f"qd{j+1}" for j in range(n)]
            + [f"tau{j+1}" for j in range(n)])
        assert header[1 + 3 * n:1 + 3 * n + k + 4] == (
            [f"s{j+1}" for j in range(k)]
            + ["E_acc", "E_kin_total", "E_kin_task", "E_kin_null"])
        assert len(lines) == 1 + len(tr.t)
        assert len(lines[1].split(",")) == len(header)


def test_readme_trace_columns_match_the_header():
    """The README's Trace CSV block names the column groups of
    ``Trace.header()`` in order, and its gnuplot example plots E_kin_null."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Trace CSV", 1)[1].split("\n## ", 1)[0]
    block = re.sub(r"\(.*?\)", "", section.split("```")[1])
    names = [re.match(r"[A-Za-z_]+?(?=1\.\.|$)", token.strip()).group()
             for token in block.split(",")]
    header = sim.Trace("x", "osc", n=7, k=1, ticks=0).header()
    groups = [col.rstrip("0123456789") for col in header]
    assert names == [g for i, g in enumerate(groups) if i == 0 or g != groups[i - 1]]
    column = int(re.search(r"using 1:(\d+)", section).group(1))
    assert header[column - 1] == "E_kin_null"


def test_reused_scenario_gives_the_same_trace(tmp_path, iiwa):
    """Running one Scenario object twice writes the same bytes, because each
    run takes fresh copies of its stateful trackers. The first waypoint is the
    initial tool point, so the tracker advances on tick 0."""
    data = json.loads(sim.bundled_scenario_path("star_octagon").read_text())
    data["duration_s"] = 0.02
    task = data["tasks"][0]
    kin = rbd.Kinematics(iiwa, np.array(data["q0_rad"]))
    start = kin.point(iiwa.tool_frame, task["point_m"])
    task["waypoints"] = {"type": "explicit",
                         "points_m": [start.tolist(), (start + [0.0, 0.1, 0.0]).tolist()]}
    sc = sim.scenario_from_dict(data)
    runs = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        sim.run_scenario(sc, ["dcts"])[0].to_csv(path)
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]


def test_summary_fields():
    sc = short_scenario(duration=0.05)
    s = sim.run_scenario(sc, ["qp-mt"])[0].summary()
    for key in ("mean_position_error", "max_position_error",
                "mean_acceleration_error", "violation_pct",
                "violation_pct_per_joint", "energy", "scaling", "status_counts"):
        assert key in s
    assert set(s["violation_pct"]) == {"q", "v", "tau"}


def test_braking_tick_records_every_task_scale_as_zero():
    """A two-task run that brakes on every tick (1 N m torque limits cannot
    hold the arm) records s = 0 for both tasks, so the summary counts no
    task as unscaled."""
    data = two_task_dict(0.003)
    data["limits"]["tau_min_nm"] = [-1.0] * 7
    data["limits"]["tau_max_nm"] = [1.0] * 7
    [tr] = sim.run_scenario(sim.scenario_from_dict(data))
    assert (tr.status == sim.STATUS_CODE[solvers.INFEASIBLE]).all()
    assert not tr.s.any()
    assert tr.summary()["scaling"] == {"min": 0.0, "mean": 0.0}


def test_qp_md_null_energy_decays_after_push():
    """Damping regularizer dissipates the pushed-in null-space energy."""
    sc = sim.load_bundled_scenario("push_recovery")
    [tr] = sim.run_scenario(sc, ["qp-md"])
    t_end_push = 0.5
    i0 = np.searchsorted(tr.t, t_end_push)
    i2 = np.searchsorted(tr.t, t_end_push + 2.0)
    peak = tr.e_kin_null[:i0 + 1].max()
    assert tr.e_kin_null[i2] < 0.05 * peak


def test_one_kinematics_per_plant_substep(monkeypatch):
    """Each solver of a lockstep run builds rbd.Kinematics rows for exactly
    the configurations its tick visits: one per plant substep, the first
    reusing the controller's, which the tasks, the measured events and the
    dynamics share. While an unmodeled mass is active, the plant model's
    kinematics at q, which the payload observer and the first substep share,
    takes its transforms from the controller's and builds no row. So a tick
    of 10 substeps builds 10 rows per solver, with or without a payload. A
    batched build of B configurations counts B rows, and substeps 2-10 are
    one build for all solvers."""
    rows = []
    init = rbd.Kinematics.__init__
    monkeypatch.setattr(rbd.Kinematics, "__init__",
                        lambda self, model, q: rows.append(len(np.atleast_2d(q)))
                        or init(self, model, q))
    for name, names in (("star_octagon", ["dcts", "osc"]),
                        ("push_recovery", ["osc", "dcts", "qp-md"]),
                        ("payload_drop", ["osc", "dcts", "qp-md"])):
        sc = short_scenario(name, duration=0.02)
        for ev in sc.events:
            ev.start = 0.01
        rows.clear()
        traces = sim.run_scenario(sc, names)
        assert round(sc.control_dt / sc.integrator_dt) == 10
        payload = [sc.plant_model(t) is not sc.model for t in traces[0].t]
        assert any(payload) == (name == "payload_drop")
        assert sum(rows) == len(names) * 10 * len(payload)
        assert len(rows) == (len(names) + 9) * len(payload)
        for tr in traces:
            assert not tr.tau_ext[:10].any()
            assert tr.tau_ext[10:].any(axis=1).all() == bool(sc.events)


def test_jacobian_calls_of_a_push_window(monkeypatch):
    """On a 10-tick osc + dcts push_recovery window with the push active,
    each run's tick calls ``rbd.jacobian`` twice at its own state: once for
    its tool task and once for the measured push, which the first plant
    substep integrates too. Substeps 2-10 each take one batched call for
    both runs."""
    sc = short_scenario("push_recovery", duration=0.01)
    for ev in sc.events:
        ev.start = 0.0
    shapes = []
    jacobian = rbd.jacobian
    monkeypatch.setattr(rbd, "jacobian", lambda model, kin, *args, **kwargs:
                        shapes.append(kin.p.ndim) or jacobian(model, kin, *args, **kwargs))
    [trace, _] = sim.run_scenario(sc, ["osc", "dcts"])
    assert len(trace.t) == 10 and trace.tau_ext.any(axis=1).all()
    assert (shapes.count(2), shapes.count(3)) == (40, 90)


@pytest.mark.parametrize("name", ["push_recovery", "payload_drop"])
def test_the_plant_integrates_the_scripted_torques_alone(monkeypatch, name):
    """With noise on the measurement and the event active, the tau_ext that
    the first plant substep of each tick hands to ``rbd.forward_dynamics``
    is ``scripted_tau_ext`` at the tick's state, byte for byte, and not the
    measured tau_ext of the trace: the plant never integrates the noise or
    the payload observer."""
    sc = short_scenario(name, duration=0.005)
    sc.tau_ext_noise_std = 0.5
    for ev in sc.events:
        ev.start = 0.0
    handed = []
    forward = rbd.forward_dynamics
    monkeypatch.setattr(rbd, "forward_dynamics", lambda model, kin, qd, tau, tau_ext, *rest:
                        handed.append(tau_ext.copy()) or forward(model, kin, qd, tau,
                                                                 tau_ext, *rest))
    traces = sim.run_scenario(sc, ["osc", "dcts"])
    substeps = round(sc.control_dt / sc.integrator_dt)
    assert len(handed) == substeps * len(traces[0].t)
    for tick, first in enumerate(handed[::substeps]):
        for b, trace in enumerate(traces):
            kin = rbd.Kinematics(sc.model, trace.q[tick])
            scripted = sim.scripted_tau_ext(sc.events, trace.t[tick], sc.model, kin)
            assert first[b].tobytes() == scripted.tobytes()
            assert not np.array_equal(first[b], trace.tau_ext[tick])
    assert all(ev.active(t) for ev in sc.events for t in traces[0].t)


def test_violation_side_of_a_trace_gives_the_bytes_of_its_rows():
    """``_violation_side`` on a (ticks, n) array gives the bytes of its calls
    on each row, with values on, just inside and just outside the relative
    1e-6 band around each bound."""
    rng = np.random.default_rng(4)
    lo, hi = -rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7)
    values = rng.uniform(1.5 * lo, 1.5 * hi, (60, 7))
    for factor in (1.0, 1.0 + 5e-7, 1.0 + 2e-6):
        values = np.vstack([values, lo * factor, hi * factor])
    rows = np.stack([sim._violation_side(row, lo, hi) for row in values])
    whole = sim._violation_side(values, lo, hi)
    assert whole.dtype == np.int8 and whole.tobytes() == rows.tobytes()
    assert set(np.unique(whole)) == {-1, 0, 1}


@pytest.mark.parametrize("payload", [True, False])
def test_link_transforms_calls_per_tick(monkeypatch, payload):
    """The per-tick kinematics cost of a two-solver lockstep run:
    ``rbd.link_transforms`` runs once per solver at its tick's state, whose
    Kinematics the first plant substep reuses, and once per later substep
    for both solvers' plants in one batch; an active payload adds none."""
    sc = short_scenario("payload_drop", duration=0.01)
    if not payload:
        sc.events = []
    calls = []
    transforms = rbd.link_transforms
    monkeypatch.setattr(rbd, "link_transforms",
                        lambda model, q: calls.append(q.shape) or transforms(model, q))
    names = ["osc", "dcts"]
    [trace, _] = sim.run_scenario(sc, names)
    ticks = len(trace.t)
    substeps = round(sc.control_dt / sc.integrator_dt)
    assert all((sc.plant_model(t) is not sc.model) == payload for t in trace.t)
    assert len(calls) == len(names) * ticks + (substeps - 1) * ticks


def test_unknown_solver_rejected():
    sc = short_scenario(duration=0.05)
    with pytest.raises(sim.ConfigError, match="valid"):
        sim.run_scenario(sc, ["nope"])


# ---------------------------------------------------------------------------
# scenario files and validation


BUNDLED = ("rotation_hold", "push_recovery", "star_octagon", "limit_push", "payload_drop")


def test_bundled_scenarios_validate_clean():
    for name in BUNDLED:
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


def test_payload_windows_may_touch_but_not_overlap():
    """Two payloads are one too many only while both are active: windows
    that meet end to start, or a zero-duration one, are accepted."""
    data = json.loads(sim.bundled_scenario_path("payload_drop").read_text())
    first = data["events"][0]
    for start, duration, overlaps in ((2.0, 0.5, False), (1.0, 0.0, False),
                                      (1.999, 0.5, True)):
        data["events"] = [first, dict(first, start_s=start, duration_s=duration)]
        errors = [m for level, m in sim.validate_scenario_dict(data, source="s")
                  if level == "error"]
        assert errors == (["s.events[1]: unmodeled_mass overlaps events[0]; "
                           "the plant carries one payload at a time"] if overlaps else [])


@pytest.mark.parametrize("name, path, key, expected", [
    ("star_octagon", ("tasks", 0, "waypoints"), "radius",
     "tasks[0]: waypoints: unknown key 'radius'"),
    ("star_octagon", ("tasks", 0), "stiffness", "tasks[0]: unknown key 'stiffness'"),
    ("push_recovery", ("events", 0), "joint", "events[0]: unknown key 'joint'"),
])
def test_unknown_key_is_named(name, path, key, expected):
    """Each object takes the keys of its own kind, mode or type: a tracker
    task reads no stiffness and a Cartesian force no joint."""
    data = json.loads(sim.bundled_scenario_path(name).read_text())
    node = data
    for k in path:
        node = node[k]
    node[key] = 1.0
    issues = sim.validate_scenario_dict(data, source="s")
    assert [m for level, m in issues if level == "error"] == [f"s.{expected}"]


def test_posture_target_types():
    """A posture task holds q0 by default or for an ``initial`` target, and
    the q_rad of a ``posture`` target."""
    q = [0.1 * j for j in range(7)]
    for target, expected in ((None, None), ({"type": "initial"}, None),
                             ({"type": "posture", "q_rad": q}, q)):
        data = two_task_dict(0.01)
        if target is not None:
            data["tasks"][1]["target"] = target
        sc = sim.scenario_from_dict(data)
        np.testing.assert_array_equal(sc.tasks[1].target_q,
                                      sc.q0 if expected is None else expected)


def test_model_limit_overrides_apply():
    data = json.loads(sim.bundled_scenario_path("star_octagon").read_text())
    sc = sim.scenario_from_dict(data, source="s")
    np.testing.assert_allclose(sc.model.tau_max, 80.0)
    ls = sc.limits
    assert ls.c_max[1] == pytest.approx(np.radians(168.0))


def _paths(node, prefix=()):
    """Every key or index path into a JSON tree, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_scenario(draw):
    """A bundled scenario dict with one entry dropped or set to NaN, a
    negative number, a string or a list of the wrong length."""
    name = draw(st.sampled_from(BUNDLED))
    data = json.loads(sim.bundled_scenario_path(name).read_text())
    *parents, last = draw(st.sampled_from(list(_paths(data))))
    node = data
    for key in parents:
        node = node[key]
    old = node[last]
    mutation = draw(st.sampled_from(("drop", "nan", "negative", "string", "length")))
    if mutation == "drop":
        node.pop(last)
    elif mutation == "nan":
        node[last] = float("nan")
    elif mutation == "negative":
        node[last] = -draw(st.floats(1e-3, 1e3))
    elif mutation == "string":
        node[last] = "abc"
    else:
        size = len(old) if isinstance(old, list) else 1
        node[last] = [0.5] * draw(st.integers(0, size + 2).filter(lambda k: k != size))
    return name, data


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutated_scenario())
def test_validation_agrees_with_loading_and_running(case):
    """validate_scenario_dict reports an error exactly when loading raises
    ConfigError; a scenario that validates runs 5 ticks."""
    name, data = case
    path = sim.bundled_scenario_path(name)
    args = (data, str(path), path.parent)
    if any(level == "error" for level, _ in sim.validate_scenario_dict(*args)):
        with pytest.raises(sim.ConfigError):
            sim.scenario_from_dict(*args)
        return
    sc = sim.scenario_from_dict(*args)
    sc.duration = 5 * sc.control_dt
    [trace] = sim.run_scenario(sc)
    assert len(trace.t) == 5 and np.isfinite(trace.tau).all()
