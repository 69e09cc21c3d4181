"""Golden outputs of the DCTS cascade on a two-task stack that scales.

No bundled scenario has two tasks, so the closed-loop golden windows in
``test_golden.py`` never run the multi-level path with task scaling. This
test realizes ``tool_pos`` (priority 1) and ``tool_rot_xy`` (priority 2) on
seeded states around an interior posture, with position targets far enough
away that the acceleration limits force the top level to scale on most
states, and joint-torque pulses on every other state. It hashes what
``solve_dcts_multi`` returns per state: ``tau``, ``qdd``, ``s``, the status
and the stage and QP iteration counts.

A change that alters these bytes on purpose must say why and record the new
hash here.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dcts import limits, rbd, solvers, tasks

Q_NOMINAL = np.array([0.0, 0.3, 0.0, -1.5, 0.0, 1.0, 0.0])
ACC_LIMIT = np.array([30.0, 25.0, 60.0, 70.0, 400.0, 400.0, 600.0])
N_STATES = 12

GOLDEN = "642a0a46f01be782bab480084d8e23c5cd6b5b8163d5a6e4a5ebb80d3e8f9062"


def stack_cases(model, seed: int = 5):
    """(state, dyn, realized tasks, tau_ext, limit realization) on N_STATES
    seeded states, in order."""
    lset = limits.joint_space_limits(model, 1e-3, a_min=-ACC_LIMIT, a_max=ACC_LIMIT)
    rng = np.random.default_rng(seed)
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
        realized = [tasks.realize_task(spec, dyn) for spec in specs]
        tau_ext = rng.normal(0.0, 4.0, 7) if k % 2 else None
        lr = limits.realize_joint_limits(lset, q, qd,
                                         None if tau_ext is None else dyn.minv(tau_ext))
        yield state, dyn, realized, tau_ext, lr


def stack_outputs(model, seed: int = 5):
    """solve_dcts_multi on N_STATES seeded states, in order."""
    return [solvers.solve_dcts_multi(model, state, realized, lr, tau_ext,
                                     solvers.SolverConfig(), dyn)
            for state, dyn, realized, tau_ext, lr in stack_cases(model, seed)]


def outputs_hash(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        d = out.diagnostics
        for arr in (out.tau, out.qdd, out.s):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(f"{out.status} {d['stages']} {d['qp_iterations']}".encode())
    return h.hexdigest()


def test_two_task_stack_golden(iiwa):
    outs = stack_outputs(iiwa)
    scaled = [out for out in outs if out.s[0] < 1.0]
    # the cascade paths this pins: s = 1 throughout, and max-s, energy and
    # bisection stages on the top level with the second level solved below it
    assert len(scaled) >= 8 and len(scaled) < N_STATES
    assert all(out.status == solvers.OPTIMAL for out in outs)
    assert all(out.diagnostics["stages"] > 3 for out in scaled)
    assert outputs_hash(outs) == GOLDEN
