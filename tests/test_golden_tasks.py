"""Golden outputs of the realized tasks and of all four solvers.

``test_golden_stack.py`` pins what the DCTS cascade returns on a two-task
stack; this file pins what feeds every solver and what each one returns. On
the same 12 seeded states it realizes ``tool_pos`` (priority 1) and
``tool_rot_xy`` (priority 2) and hashes each task's ``J``, ``jdot_qd``,
``a_d`` and ``error``. It then runs ``dcts`` on the stack and ``osc``,
``qp-mt`` and ``qp-md`` on the ``tool_pos`` task, each state once without
and once with a joint-torque ``tau_ext``, and hashes every output: ``tau``,
``qdd``, ``s``, the status and the diagnostics other than the QP object.

A change that alters these bytes on purpose must say why and record the new
hashes here.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dcts import limits, rbd, solvers, tasks
from test_golden_stack import ACC_LIMIT, N_STATES, Q_NOMINAL

GOLDEN_TASKS = "a0f136940b0ce43b639733f54709bedac1dcd567d105d87ce0b46a570f13f1c8"
GOLDEN_SOLVERS = {
    "dcts": "c65231e02d4a95f17db3d8eaf307bc5e5c1c527471247fb5e43480f8ab7dc2c3",
    "osc": "b92feaec7ba5e8389fb501a76f6f4906f94fa50e860301033ea00738c903ba1d",
    "qp-mt": "f9664ea636126430c1d997739ca95ffe0422308152a956e4099246309f3c9293",
    "qp-md": "13120a4eb212f6b8590c330a1d7e7df30fe0bf6665b058301cb3be8f3a8a3aa7",
}
CFG = solvers.SolverConfig()       # a scenario's settings when its file sets none


def seeded_cases(model, seed: int = 5):
    """(state, dyn, specs, tau_ext) on the states of ``test_golden_stack``:
    the same draws in the same order, so the states, targets and the odd
    states' torques are that test's; the even states' torques come from a
    second stream. Each state is given once with tau_ext None and once with
    its torque."""
    rng = np.random.default_rng(seed)
    extra = np.random.default_rng(seed + 1)
    for k in range(N_STATES):
        q = Q_NOMINAL + rng.uniform(-0.2, 0.2, 7)
        qd = rng.normal(0.0, 0.3, 7)
        state = rbd.JointState(q, qd)
        dyn = rbd.compute_dynamics(model, state)
        T = dyn.transforms[model.tool_frame]
        tilt = rbd.axis_rotation(np.array([1.0, 0.0, 0.0]), float(rng.uniform(0.2, 0.6)))
        specs = [
            tasks.TaskSpec(priority=1, mode="impedance", selector="tool_pos",
                           stiffness=400.0 * np.eye(3), damping=40.0 * np.eye(3),
                           target_position=T[:3, 3] + rng.uniform(-0.3, 0.3, 3)),
            tasks.TaskSpec(priority=2, mode="impedance", selector="tool_rot_xy",
                           stiffness=200.0 * np.eye(2), damping=28.0 * np.eye(2),
                           target_rotation=tilt @ T[:3, :3])]
        torque = (rng if k % 2 else extra).normal(0.0, 4.0, 7)
        yield state, dyn, specs, None
        yield state, dyn, specs, torque


def _update(h, value) -> None:
    """Feed a nested output value to the hash, its structure included."""
    if isinstance(value, dict):
        h.update(f"dict {len(value)}".encode())
        for key in sorted(value, key=str):
            h.update(str(key).encode())
            _update(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"list {len(value)}".encode())
        for item in value:
            _update(h, item)
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str} {arr.shape}".encode() + arr.tobytes())


def solve(name, model, state, dyn, realized, tau_ext, lset):
    """One solver's control output, called as ``sim.run_scenario`` calls it."""
    if name == "dcts":
        offset = None if tau_ext is None else dyn.minv(tau_ext)
        lr = limits.realize_joint_limits(lset, state.q, state.qd, offset)
        return solvers.solve_dcts_multi(model, state, realized, lr, tau_ext, CFG, dyn)
    if name == "osc":
        lr = limits.realize_joint_limits(lset, state.q, state.qd)
        return solvers.solve_osc_saturated(model, state, realized[0], lr, tau_ext, CFG, dyn)
    solve_qp = solvers.solve_qp_mt if name == "qp-mt" else solvers.solve_qp_md
    return solve_qp(model, state, realized[0], CFG, dyn)


def golden_hashes(model) -> tuple[str, dict[str, str]]:
    lset = limits.joint_space_limits(model, 1e-3, a_min=-ACC_LIMIT, a_max=ACC_LIMIT)
    task_hash = hashlib.sha256()
    solver_hashes = {name: hashlib.sha256() for name in GOLDEN_SOLVERS}
    for state, dyn, specs, tau_ext in seeded_cases(model):
        realized = [tasks.realize_task(spec, dyn) for spec in specs]
        for task in realized:
            _update(task_hash, [task.J, task.jdot_qd, task.a_d, task.error])
        for name, h in solver_hashes.items():
            out = solve(name, model, state, dyn, realized, tau_ext, lset)
            diagnostics = {k: v for k, v in out.diagnostics.items() if k != "last_qp"}
            _update(h, [out.tau, out.qdd, out.s, out.status, diagnostics])
    return task_hash.hexdigest(), {name: h.hexdigest() for name, h in solver_hashes.items()}


def test_realized_tasks_and_solvers_golden(iiwa):
    task_hash, solver_hashes = golden_hashes(iiwa)
    assert task_hash == GOLDEN_TASKS
    assert solver_hashes == GOLDEN_SOLVERS
