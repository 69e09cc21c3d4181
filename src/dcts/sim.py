"""Forward-dynamics simulation, external-force scripting, scenarios and metrics.

The control loop runs at ``control_dt`` with zero-order-hold torque; the plant
integrates semi-implicitly (qd += qdd h; q += qd h, ``step``) at
``integrator_dt`` substeps. External events:

- ``cartesian_force``: a world-frame force on a frame point, felt by the plant
  and measured by the controller as tau_ext = J^T f,
- ``joint_torque``: a trapezoidal joint-torque profile, likewise measured,
- ``unmodeled_mass``: a point mass rigidly attached to a frame; it enters only
  the plant-side dynamics (the controller keeps the nominal model and
  measures the mass through ``payload_observer``).

Energy bookkeeping per tick: acceleration energy 1/2 tau'^T M^-1 tau' of the
command above compensation (the raw-command variant is logged too), total
kinetic energy 1/2 qd^T M qd and its task/null split through the task-space
inertia of the priority-1 task.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import limits as limits_mod
from . import rbd, solvers as solvers_mod, tasks as tasks_mod
from .rbd import (_REQUIRED, _floats, _get, _input_path, _int, _list, _nonneg, _num, _obj,
                  _only, _positive, _read_json, _vec3)

STATUS_CODE = {solvers_mod.OPTIMAL: 0, solvers_mod.DEGRADED: 1,
               solvers_mod.INFEASIBLE: 2, solvers_mod.MAX_ITER: 3}
MAX_TICKS = 10**7   # control ticks a scenario may run; a trace takes ~400 B a tick
MAX_SUBSTEPS = 1000  # plant substeps per control tick; each is a forward-dynamics solve,
                     # so a tick here costs 100 of a bundled scenario's plant (10 substeps)


class ConfigError(ValueError):
    """Raised for malformed scenario files."""


# ---------------------------------------------------------------------------
# events


@dataclass
class Event:
    kind: str                      # cartesian_force | joint_torque | unmodeled_mass
    start: float
    duration: float
    force: np.ndarray | None = None        # (3,) world frame [N]
    frame: int | None = None               # link index; None = tool frame
    point: np.ndarray | None = None        # offset in frame coordinates [m]
    joint: int | None = None               # 0-based
    amplitude: float = 0.0                 # [N m]
    ramp: float = 0.0                      # [s]
    mass: float = 0.0                      # [kg]
    com_offset: np.ndarray | None = None   # in the attachment frame [m]
    plant: rbd.RobotModel | None = None    # unmodeled_mass: augmented model, set by Scenario

    def active(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration

    def profile(self, t: float) -> float:
        """Trapezoidal scaling in [0, 1] for ramped events."""
        if not self.active(t):
            return 0.0
        if self.ramp <= 0:
            return 1.0
        up = (t - self.start) / self.ramp
        down = (self.start + self.duration - t) / self.ramp
        return float(np.clip(min(up, down), 0.0, 1.0))


def augment_with_point_mass(model: rbd.RobotModel, mass: float,
                            com_in_last_link: np.ndarray) -> rbd.RobotModel:
    """Plant model with a point mass rigidly attached to the last link."""
    i = model.n - 1
    m0 = model.masses[i]
    m1 = m0 + mass
    com0 = model.coms[i]
    com1 = (m0 * com0 + mass * com_in_last_link) / m1
    inertia1 = (model.inertias[i]
                + m0 * _shift(com0 - com1)
                + mass * _shift(com_in_last_link - com1))
    masses = model.masses.copy()
    coms = model.coms.copy()
    inertias = model.inertias.copy()
    masses[i] = m1
    coms[i] = com1
    inertias[i] = inertia1
    return replace(model, masses=masses, coms=coms, inertias=inertias,
                   name=model.name + "+payload")


def _shift(d: np.ndarray) -> np.ndarray:
    """Parallel-axis inertia increment for a unit mass displaced by d."""
    return np.dot(d, d) * np.eye(3) - np.outer(d, d)


def scripted_tau_ext(events: list[Event], t: float, model: rbd.RobotModel,
                     kin: rbd.Kinematics) -> np.ndarray:
    """Joint torques of the active scripted forces and torques at time t, at
    the configuration of ``kin``, the ``rbd.Kinematics`` of ``model`` at one
    q or at a batch of them.

    An unmodeled mass contributes nothing here: the plant feels it through
    its augmented model, and the controller measures it through
    ``payload_observer``.
    """
    tau = np.zeros(kin.p.shape[:-1])
    for ev in events:
        if not ev.active(t):
            continue
        if ev.kind == "cartesian_force":
            frame = model.tool_frame if ev.frame is None else ev.frame
            J = rbd.jacobian(model, kin, frame, point=ev.point)
            tau += J[..., :3, :].swapaxes(-1, -2) @ (ev.profile(t) * ev.force)
        elif ev.kind == "joint_torque":
            tau[..., ev.joint] += ev.profile(t) * ev.amplitude
    return tau


def payload_observer(nominal: rbd.RobotModel, plant: rbd.RobotModel,
                     state: rbd.JointState, qdd_prev: np.ndarray,
                     kin: rbd.Kinematics, plant_kin: rbd.Kinematics) -> np.ndarray:
    """Torque-sensor view of an unmodeled mass: the generalized force that,
    added to the nominal model, reproduces the plant's motion.

    Evaluated at the last observed acceleration (one-tick observer lag, like a
    momentum observer on hardware): tau_ext = ID_nominal - ID_plant at
    (q, qd, qdd_prev). At rest this is exactly the payload gravity wrench.
    ``kin`` and ``plant_kin`` are the ``rbd.Kinematics`` of the two models
    at ``state.q``.
    """
    return (rbd.inverse_dynamics(nominal, kin, state.qd, qdd_prev)
            - rbd.inverse_dynamics(plant, plant_kin, state.qd, qdd_prev))


# ---------------------------------------------------------------------------
# integrator


def step(model: rbd.RobotModel, state: rbd.JointState, tau: np.ndarray,
         tau_ext: np.ndarray | None, dt: float, kin: rbd.Kinematics,
         M_cho=None, nu_g: np.ndarray | None = None) -> tuple[rbd.JointState, np.ndarray]:
    """One semi-implicit Euler step of the forward dynamics, of one state or
    of a batch of them, from ``kin``, the ``rbd.Kinematics`` at ``state.q``.

    Returns the new state and the acceleration qdd the step used; the factor
    ``M_cho`` of M and nu + g at the state are reused when the caller has
    them. ``run_scenario`` integrates the plant with this step. A diverging
    plant raises ValueError from the finiteness check of ``rbd.spd_solve``
    inside ``rbd.forward_dynamics``, before any new ``JointState`` is built.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    qdd = rbd.forward_dynamics(model, kin, state.qd, tau, tau_ext, M_cho, nu_g)
    qd = state.qd + qdd * dt
    return rbd.JointState(state.q + qd * dt, qd), qdd


# ---------------------------------------------------------------------------
# energies


def energy_metrics(dyn: rbd.ChainDynamics, tau_cmd: np.ndarray,
                   J: np.ndarray) -> tuple[float, float, float, float]:
    """(E_acc, E_kin_total, E_kin_task, E_kin_null) at the state of ``dyn``.

    E_acc uses tau' = tau_cmd - nu - g; the task split uses the task-space
    inertia of the task Jacobian J, damped by ``rbd.EPSILON_LAMBDA``.
    """
    tau_prime = np.asarray(tau_cmd, float) - dyn.nu - dyn.g
    e_acc = 0.5 * float(tau_prime @ dyn.minv(tau_prime))
    e_total = 0.5 * float(dyn.qd @ dyn.M @ dyn.qd)
    Lambda = rbd.spd_solve(rbd.lambda_factor(J, dyn.minv, rbd.EPSILON_LAMBDA)[0],
                           np.eye(len(J)))
    Lambda = 0.5 * (Lambda + Lambda.T)
    xd = J @ dyn.qd
    e_task = 0.5 * float(xd @ Lambda @ xd)
    return e_acc, e_total, e_task, e_total - e_task


# ---------------------------------------------------------------------------
# scenario definition


@dataclass
class Scenario:
    """A checked scenario, built by ``load_scenario`` or ``scenario_from_dict``."""

    name: str
    model: rbd.RobotModel
    q0: np.ndarray
    qd0: np.ndarray
    duration: float
    control_dt: float
    integrator_dt: float
    solver: str
    solver_config: solvers_mod.SolverConfig
    tasks: list[tasks_mod.TaskSpec]       # targets resolved at q0, sorted by priority
    limits: limits_mod.LimitSet
    events: list[Event]
    seed: int = 0
    tau_ext_noise_std: float = 0.0
    source: str = "<memory>"

    def __post_init__(self):
        for ev in self.events:
            if ev.kind == "unmodeled_mass":
                com = self.model.tool[:3, :3] @ ev.com_offset + self.model.tool[:3, 3]
                ev.plant = augment_with_point_mass(self.model, ev.mass, com)

    def plant_model(self, t: float) -> rbd.RobotModel:
        for ev in self.events:
            if ev.kind == "unmodeled_mass" and ev.active(t):
                return ev.plant
        return self.model


# ---------------------------------------------------------------------------
# trace


# The trace columns in CSV order: (attribute, CSV name or None when the
# column is not written, width None for one value per tick or "n"/"k" for one
# per joint/task, dtype). Names of wide columns get the 1-based index appended.
_COLUMNS = (
    ("t", "t", None, float),
    ("q", "q", "n", float),
    ("qd", "qd", "n", float),
    ("tau", "tau", "n", float),
    ("s", "s", "k", float),                     # task scales, 1 when unscaled
    ("e_acc", "E_acc", None, float),
    ("e_kin_total", "E_kin_total", None, float),
    ("e_kin_task", "E_kin_task", None, float),
    ("e_kin_null", "E_kin_null", None, float),
    ("viol_q", "viol_q", "n", np.int8),         # -1, 0, +1: which side is violated
    ("viol_v", "viol_v", "n", np.int8),
    ("viol_tau", "viol_tau", "n", np.int8),
    ("saturated", "sat", "n", bool),            # naive clamp active (projector baseline)
    ("e_acc_raw", "E_acc_raw", None, float),
    ("pos_err", "pos_err", None, float),        # priority-1 task position error [m or rad]
    ("acc_err", "acc_err", None, float),        # priority-1 task acceleration error
    ("status", "status", None, int),            # see STATUS_CODE
    ("repaired", "repaired", None, bool),       # bound repair active on some direction
    ("qdd", None, "n", float),
    ("tau_ext", None, "n", float),
)


@dataclass
class Trace:
    """Per-tick record of one run: one array of ``ticks`` rows per entry of
    ``_COLUMNS``, zero-filled at construction and filled in by
    ``run_scenario``."""

    scenario: str
    solver: str
    n: int
    k: int
    ticks: InitVar[int]

    def __post_init__(self, ticks: int):
        for attr, _, width, dtype in _COLUMNS:
            shape = (ticks,) if width is None else (ticks, getattr(self, width))
            setattr(self, attr, np.zeros(shape, dtype))

    def summary(self) -> dict:
        ticks = len(self.t)
        pct = lambda mask: 100.0 * float(np.count_nonzero(mask)) / max(ticks, 1)
        return {
            "scenario": self.scenario,
            "solver": self.solver,
            "ticks": ticks,
            "duration_s": float(self.t[-1] + (self.t[1] - self.t[0])) if ticks > 1 else 0.0,
            "mean_position_error": float(np.mean(self.pos_err)),
            "max_position_error": float(np.max(self.pos_err)),
            "mean_acceleration_error": float(np.mean(self.acc_err)),
            "violation_pct": {
                "q": pct(self.viol_q.any(axis=1)),
                "v": pct(self.viol_v.any(axis=1)),
                "tau": pct(self.viol_tau.any(axis=1)),
            },
            "violation_pct_per_joint": {
                "q": [pct(self.viol_q[:, j] != 0) for j in range(self.n)],
                "v": [pct(self.viol_v[:, j] != 0) for j in range(self.n)],
                "tau": [pct(self.viol_tau[:, j] != 0) for j in range(self.n)],
            },
            "saturation_pct": pct(self.saturated.any(axis=1)),
            "energy": {
                "acc_integral": float(np.trapezoid(self.e_acc, self.t)),
                "acc_raw_integral": float(np.trapezoid(self.e_acc_raw, self.t)),
                "kin_total_peak": float(self.e_kin_total.max()),
                "kin_null_peak": float(self.e_kin_null.max()),
            },
            "scaling": {"min": float(self.s.min()), "mean": float(self.s.mean())},
            "status_counts": {name: int(np.count_nonzero(self.status == code))
                              for name, code in STATUS_CODE.items()},
        }

    def header(self) -> list[str]:
        cols = []
        for _, name, width, _ in _COLUMNS:
            if name is not None:
                cols += ([name] if width is None
                         else [f"{name}{j+1}" for j in range(getattr(self, width))])
        return cols

    def to_csv(self, path: str | Path) -> None:
        table = np.column_stack([getattr(self, attr) for attr, name, _, _ in _COLUMNS
                                 if name is not None])
        np.savetxt(path, table, fmt="%.10g", delimiter=",",
                   header=",".join(self.header()), comments="")


def _violation_side(value: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 per entry of ``value``, one row or a (ticks, n) array:
    which side of [lo, hi] it violates beyond a relative 1e-6."""
    span_tol = 1e-6 * np.maximum(np.abs(lo), np.abs(hi))
    side = np.zeros(value.shape, dtype=np.int8)
    side[value > hi + span_tol] = 1
    side[value < lo - span_tol] = -1
    return side


def _segment_distance(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-16:
        return float(np.linalg.norm(x - b))
    u = float(np.clip((x - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(x - (a + u * ab)))


# ---------------------------------------------------------------------------
# the control loop


@dataclass
class _Run:
    """One solver's part of a lockstep run: its own plant state, stateful
    task trackers, noise stream and trace."""

    solver: str
    state: rbd.JointState
    specs: list[tasks_mod.TaskSpec]
    rng: np.random.Generator
    trace: Trace
    qdd_prev: np.ndarray
    out: solvers_mod.ControlOutput | None = None


def run_scenario(scenario: Scenario, solvers: list[str] | None = None,
                 record_hook=None) -> list[Trace]:
    """Run one scenario with each of ``solvers`` (default: the scenario's
    own) in lockstep and return one trace per solver, in order.

    Every solver keeps its own plant state, trackers, noise stream and trace,
    and its tick runs its own dynamics, tasks, bounds and controller; each
    plant substep then advances all solvers' plants in one batched call. A
    solver's trace is the same as a run of that solver alone.
    ``record_hook(solver, tick, state, dyn, realized, out)`` is called after
    each solver's control tick when given.
    """
    model = scenario.model
    names = list(solvers or [scenario.solver])
    for name in names:
        problem = solvers_mod.solver_error(name, len(scenario.tasks))
        if problem is not None:
            raise ConfigError(f"{scenario.source}: {problem}")
    cfg = scenario.solver_config
    lset = scenario.limits
    noise = scenario.tau_ext_noise_std

    n_ticks = int(round(scenario.duration / scenario.control_dt))
    substeps = max(1, int(round(scenario.control_dt / scenario.integrator_dt)))
    h = scenario.control_dt / substeps
    runs = [_Run(solver=name,
                 state=rbd.JointState(scenario.q0.copy(), scenario.qd0.copy()),
                 specs=copy.deepcopy(scenario.tasks),       # trackers are stateful
                 rng=np.random.default_rng(scenario.seed),
                 trace=Trace(scenario=scenario.name, solver=name, n=model.n,
                             k=len(scenario.tasks), ticks=n_ticks),
                 qdd_prev=np.zeros(model.n))
            for name in names]

    for tick in range(n_ticks):
        t = tick * scenario.control_dt
        plant = scenario.plant_model(t)
        dyns, plant_kins, scripted, leads = [], [], [], []
        for run in runs:
            state, trace = run.state, run.trace
            dyn = rbd.compute_dynamics(model, state)
            plant_kin = dyn.kin if plant is model else dyn.kin.with_inertia(plant)
            # measured: the scripted torques, which the first plant substep
            # integrates too, plus an active payload's observer, plus noise
            tau_ext = scripted_tau_ext(scenario.events, t, model, dyn.kin)
            scripted.append(tau_ext)
            if plant is not model:
                tau_ext = tau_ext + payload_observer(model, plant, state, run.qdd_prev,
                                                     dyn.kin, plant_kin)
            if noise > 0:
                tau_ext = tau_ext + run.rng.normal(0.0, noise, model.n)
            realized = [tasks_mod.realize_task(sp, dyn) for sp in run.specs]
            ext = tau_ext if np.any(tau_ext) else None

            if run.solver == "dcts":
                offset = (dyn.minv(tau_ext) if ext is not None and cfg.ext_force_in_bounds
                          else None)
                limit_real = limits_mod.realize_joint_limits(lset, state.q, state.qd, offset)
                out = solvers_mod.solve_dcts_multi(model, state, realized, limit_real, ext,
                                                   cfg, dyn)
            elif run.solver == "osc":
                limit_real = limits_mod.realize_joint_limits(lset, state.q, state.qd)
                out = solvers_mod.solve_osc_saturated(model, state, realized[0], limit_real,
                                                      ext, cfg, dyn)
            else:
                limit_real = None
                solve = (solvers_mod.solve_qp_mt if run.solver == "qp-mt"
                         else solvers_mod.solve_qp_md)
                out = solve(model, state, realized[0], cfg=cfg, dyn=dyn)
            run.out = out

            tau_cmd = out.tau
            lead = realized[0]
            e_acc, e_tot, e_task, e_null = energy_metrics(dyn, tau_cmd, lead.J)
            trace.q[tick] = state.q
            trace.qd[tick] = state.qd
            trace.tau[tick] = tau_cmd
            trace.tau_ext[tick] = tau_ext
            trace.s[tick] = out.s
            trace.e_acc[tick] = e_acc
            trace.e_acc_raw[tick] = 0.5 * float(tau_cmd @ dyn.minv(tau_cmd))
            trace.e_kin_total[tick] = e_tot
            trace.e_kin_task[tick] = e_task
            trace.e_kin_null[tick] = e_null
            trace.saturated[tick] = out.diagnostics.get("saturated", False)
            trace.pos_err[tick] = _position_error(run.specs[0], lead, dyn.kin, model.tool_frame)
            trace.status[tick] = STATUS_CODE.get(out.status, 3)
            trace.repaired[tick] = limit_real is not None and limit_real.bounds.any_repaired
            if record_hook is not None:
                record_hook(run.solver, tick, state, dyn, realized, out)
            dyns.append(dyn)
            plant_kins.append(plant_kin)
            leads.append(lead)

        # integrate every run's plant, one batched step per substep; the
        # first substep starts from each run's own q and reuses what its
        # tick computed there, its scripted torques included
        sub = rbd.JointState(np.stack([run.state.q for run in runs]),
                             np.stack([run.state.qd for run in runs]))
        tau = np.stack([run.out.tau for run in runs])
        kin = rbd.Kinematics.stack(plant_kins)
        tau_ext_plant = np.stack(scripted)
        M_cho = nu_g = None
        if plant is model:
            M_cho = [dyn.M_cho for dyn in dyns]
            nu_g = np.stack([dyn.nu_g for dyn in dyns])
        for j in range(substeps):
            if j > 0:
                kin = rbd.Kinematics(plant, sub.q)
                M_cho = nu_g = None
                tau_ext_plant = scripted_tau_ext(scenario.events, t, plant, kin)
            sub, qdd = step(plant, sub, tau, tau_ext_plant, h, kin, M_cho, nu_g)
            if j == 0:
                qdd_first = qdd

        for b, (run, lead) in enumerate(zip(runs, leads)):
            run.trace.qdd[tick] = qdd_first[b]
            run.trace.acc_err[tick] = float(np.linalg.norm(
                lead.J @ qdd_first[b] + lead.jdot_qd - lead.a_d))
            run.state = rbd.JointState(sub.q[b], sub.qd[b])
            run.qdd_prev = qdd_first[b]

    for run in runs:
        trace = run.trace
        trace.t[:] = np.arange(n_ticks) * scenario.control_dt
        trace.viol_q[:] = _violation_side(trace.q, lset.c_min, lset.c_max)
        trace.viol_v[:] = _violation_side(trace.qd, lset.v_min, lset.v_max)
        trace.viol_tau[:] = _violation_side(trace.tau, model.tau_min, model.tau_max)
    return [run.trace for run in runs]


def _position_error(spec: tasks_mod.TaskSpec, lead: tasks_mod.TaskInstance,
                    kin: rbd.Kinematics, tool_frame: int) -> float:
    """The lead task's position error: the distance to the tracker's current
    segment or waypoint, or the norm of the task error."""
    if spec.mode != "waypoint_tracker":
        return float(np.linalg.norm(lead.error)) if lead.error is not None else 0.0
    tracker = spec.tracker
    seg = tracker.segment()
    x = kin.point(tool_frame, spec.point)
    if seg is not None:
        return _segment_distance(x, seg[0], seg[1])
    if tracker.current is not None:
        return float(np.linalg.norm(x - tracker.current))
    return 0.0


# ---------------------------------------------------------------------------
# scenario files: one parser converts and checks every field once. The
# converters (shared with the model parser in rbd) and builders raise
# KeyError, TypeError or ValueError; the parser records each as an error
# naming its field.


def _whole(ratio: float) -> bool:
    """Whether ``ratio`` is finite and an integer within a relative 1e-9."""
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio


def _solver_config(value) -> solvers_mod.SolverConfig:
    return solvers_mod.SolverConfig(**_obj(value))


# the keys of a task by mode, besides the common ones, and of a Cartesian
# and a posture task target by type
_TASK_KEYS = {"waypoint_tracker": ("waypoints", "tolerance_m", "kp", "kv", "v_sat"),
              "impedance": ("stiffness", "damping", "target"),
              "force_impedance": ("stiffness", "damping", "target")}
_TARGET_KEYS = {"initial": ("type",), "initial_rotated": ("type", "axis", "angle_deg")}
_POSTURE_TARGET_KEYS = {"initial": ("type",), "posture": ("type", "q_rad")}


def _build_task(tc, i: int, model: rbd.RobotModel, q0: np.ndarray,
                T_tool: np.ndarray) -> tasks_mod.TaskSpec:
    """TaskSpec of the i-th task config with its target resolved at q0, where
    the tool frame is at ``T_tool``."""
    tc = _obj(tc)
    mode, selector = tc["mode"], tc["selector"]
    if mode in _TASK_KEYS:                          # TaskSpec rejects other modes
        _only(tc, ("priority", "mode", "selector", "point_m", "name", *_TASK_KEYS[mode]))
    common = dict(priority=_get(tc, "priority", _int), mode=mode, selector=selector,
                  point=_get(tc, "point_m", _vec3, None),
                  name=str(tc.get("name", f"task{i+1}")))
    if mode == "waypoint_tracker":
        return tasks_mod.TaskSpec(**common, tracker=_build_tracker(tc))
    m = {"tool_pos": 3, "tool_rot_xy": 2}.get(selector, model.n)   # TaskSpec rejects others
    gain = lambda v: _floats(v, (m, m)) if np.ndim(v) == 2 else np.diag(_floats(v, (m,)))
    common.update(stiffness=_get(tc, "stiffness", gain), damping=_get(tc, "damping", gain))
    target = _get(tc, "target", _obj, {"type": "initial"})
    kind = target.get("type", "initial")
    keys = _POSTURE_TARGET_KEYS if selector == "joint_posture" else _TARGET_KEYS
    if kind not in keys:
        raise ValueError(f"unknown target type {kind!r}")
    _only(target, keys[kind], "target: ")
    if selector == "joint_posture":
        q = (q0.copy() if kind == "initial"
             else _get(target, "q_rad", partial(_floats, shape=(model.n,), fill=False)))
        return tasks_mod.TaskSpec(**common, target_q=q)
    position, rotation = T_tool[:3, 3].copy(), T_tool[:3, :3].copy()
    if kind == "initial_rotated":
        axis = _get(target, "axis", _vec3)
        if not axis.any():
            raise ValueError("axis: must be nonzero")
        angle = math.radians(_get(target, "angle_deg", _num))
        axis = axis / np.abs(axis).max()        # so that a tiny axis has a nonzero norm
        rotation = rbd.axis_rotation(axis / np.linalg.norm(axis), angle) @ T_tool[:3, :3]
    return tasks_mod.TaskSpec(**common, target_position=position, target_rotation=rotation)


def _build_tracker(tc: dict) -> tasks_mod.WaypointTracker:
    wp = _get(tc, "waypoints", _obj)
    kind = wp.get("type", "explicit")
    if kind == "octagon_with_center":
        _only(wp, ("type", "center_m", "radius_m", "phase_deg", "lead_in"), "waypoints: ")
        center = _get(wp, "center_m", _vec3)
        points = tasks_mod.octagon_waypoints(
            center, _get(wp, "radius_m", _num),
            phase=math.radians(_get(wp, "phase_deg", _num, 0.0)))
        if wp.get("lead_in", True):
            points = [center.copy()] + points
    elif kind == "explicit":
        _only(wp, ("type", "points_m"), "waypoints: ")
        points = list(_get(wp, "points_m", lambda v: _floats(v, (len(v), 3))))
    else:
        raise ValueError(f"unknown waypoint set type {kind!r}")
    num = lambda key: _get(tc, key, _num)
    return tasks_mod.WaypointTracker(waypoints=points, tolerance=num("tolerance_m"),
                                     kp=num("kp"), kv=num("kv"), v_sat=num("v_sat"))


# the keys of an event by kind, besides kind, start_s and duration_s
_EVENT_KEYS = {"cartesian_force": ("force_n", "frame", "point_m"),
               "joint_torque": ("joint", "amplitude_nm", "ramp_s"),
               "unmodeled_mass": ("mass_kg", "com_offset_m")}


def _build_event(e, n: int) -> Event:
    e = _obj(e)
    kind = e["kind"]
    if kind not in _EVENT_KEYS:
        raise ValueError(f"unknown event kind {kind!r}")
    _only(e, ("kind", "start_s", "duration_s", *_EVENT_KEYS[kind]))
    common = dict(kind=kind, start=_get(e, "start_s", _nonneg),
                  duration=_get(e, "duration_s", _nonneg))
    if kind == "cartesian_force":
        return Event(**common, force=_get(e, "force_n", _vec3),
                     frame=_get(e, "frame", partial(_int, low=0, high=n), None),
                     point=_get(e, "point_m", _vec3, np.zeros(3)))
    if kind == "joint_torque":
        return Event(**common, joint=_get(e, "joint", partial(_int, low=1, high=n)) - 1,
                     amplitude=_get(e, "amplitude_nm", _num),
                     ramp=_get(e, "ramp_s", _nonneg, 0.0))
    mass = _get(e, "mass_kg", _positive)
    com_offset = _get(e, "com_offset_m", _vec3, np.zeros(3))
    if mass > 1000.0:
        raise ValueError("mass_kg: must be in (0, 1000] kg")
    if np.abs(com_offset).max() > 10.0:
        raise ValueError("com_offset_m: each component must lie within +-10 m")
    return Event(**common, mass=mass, com_offset=com_offset)


def _parse(data, source: str,
           model_dir: Path | None) -> tuple[Scenario | None, list[tuple[str, str]]]:
    """Convert and check a scenario dict in one pass.

    Returns the Scenario and every (level, message) issue found, each naming
    its field; the Scenario is None when any issue is an error.
    """
    issues: list[tuple[str, str]] = []
    err = lambda m: issues.append(("error", m))

    def get(where, build, *args):
        """build(*args), or None with its error recorded under ``where``."""
        try:
            return build(*args)
        except KeyError as e:
            err(f"{where}: missing field {e}")
        except (TypeError, ValueError) as e:
            err(f"{where}: {e}")

    def read(d, key, convert=None, default=_REQUIRED, where=source):
        return get(where, _get, d, key, convert, default)

    if not isinstance(data, dict):
        return None, [("error", f"{source}: expected a JSON object")]
    get(source, _only, data, ("name", "model", "duration_s", "control_dt_s", "integrator_dt_s",
                              "q0_rad", "qd0_rad", "solver", "solver_config", "tasks",
                              "events", "limits", "seed", "tau_ext_noise_std"))
    duration = read(data, "duration_s", _positive)
    control_dt = read(data, "control_dt_s", _positive, 1e-3)
    integrator_dt = read(data, "integrator_dt_s", _positive, 1e-4)
    if control_dt and integrator_dt:
        substeps = control_dt / integrator_dt
        if not _whole(substeps):
            err(f"{source}: integrator_dt_s must divide control_dt_s")
        elif round(substeps) > MAX_SUBSTEPS:
            err(f"{source}: integrator_dt_s must be at least control_dt_s / {MAX_SUBSTEPS}, "
                f"got {substeps:.3g} substeps per control tick")
    if duration and control_dt:
        ticks = duration / control_dt
        if not _whole(ticks):
            err(f"{source}: duration_s must be a whole number of control_dt_s")
        elif round(ticks) > MAX_TICKS:
            err(f"{source}: duration_s must be at most {MAX_TICKS:g} control ticks, "
                f"got {ticks:.3g}")
    cfg = read(data, "solver_config", _solver_config, {})
    seed = read(data, "seed", partial(_int, low=0), 0)
    noise = read(data, "tau_ext_noise_std", _nonneg, 0.0)
    task_configs = read(data, "tasks", partial(_list, nonempty=True))
    events = read(data, "events", _list, []) or []
    lim = read(data, "limits", _obj, {}) or {}
    solver = data.get("solver", "dcts")
    problem = solvers_mod.solver_error(solver, len(task_configs or ()))
    if problem is not None:
        err(f"{source}.solver: {problem}")
    # the outputs are <out>/<name>__<solver>.*, so the name must stay one file name
    name = str(data.get("name", Path(source).stem))
    if name in ("", ".", "..") or "/" in name or "\\" in name or not name.isprintable():
        err(f"{source}.name: must name an output file, got {name!r}")
    model = read(data, "model", partial(_resolve_model, model_dir=model_dir))
    if model is None:
        return None, issues

    vec = partial(_floats, shape=(model.n,))
    q0 = read(data, "q0_rad", vec)
    qd0 = read(data, "qd0_rad", vec, 0.0)
    where = f"{source}.limits"
    b = {key: read(lim, key, vec, default, where) for key, default in (
        ("q_min_rad", model.q_min), ("q_max_rad", model.q_max),
        ("v_min_rad_s", model.v_min), ("v_max_rad_s", model.v_max),
        ("acc_min_rad_s2", -10.0), ("acc_max_rad_s2", 10.0),
        ("tau_min_nm", model.tau_min), ("tau_max_nm", model.tau_max),
        ("viability_brake_rad_s2", None))}
    for lo, hi in (("q_min_rad", "q_max_rad"), ("v_min_rad_s", "v_max_rad_s"),
                   ("acc_min_rad_s2", "acc_max_rad_s2"), ("tau_min_nm", "tau_max_nm")):
        if b[lo] is not None and b[hi] is not None and np.any(b[lo] >= b[hi]):
            err(f"{where}: {lo} must be < {hi}")
    brake_fraction = read(lim, "brake_fraction", _num, 0.4, where)
    get(where, _only, lim, (*b, "brake_fraction"))

    if q0 is not None and task_configs:
        T_tool = rbd.link_transforms(model, q0)[model.tool_frame]
        specs = [get(f"{source}.tasks[{i}]", _build_task, tc, i, model, q0, T_tool)
                 for i, tc in enumerate(task_configs)]
        priorities = [spec.priority for spec in specs if spec is not None]
        if len(set(priorities)) != len(priorities):
            err(f"{source}.tasks: duplicate priorities {priorities}")
    evs = [get(f"{source}.events[{i}]", _build_event, e, model.n) for i, e in enumerate(events)]
    payloads = [(i, ev) for i, ev in enumerate(evs)
                if ev is not None and ev.kind == "unmodeled_mass" and ev.duration > 0]
    for j, (i1, ev1) in enumerate(payloads):
        for i0, ev0 in payloads[:j]:
            if ev0.start < ev1.start + ev1.duration and ev1.start < ev0.start + ev0.duration:
                err(f"{source}.events[{i1}]: unmodeled_mass overlaps events[{i0}]; "
                    "the plant carries one payload at a time")
    for i, ev in enumerate(evs):
        if ev is not None and duration is not None and ev.start >= duration:
            issues.append(("warning", f"{source}.events[{i}]: event starts at {ev.start}s, "
                                      "beyond the scenario duration"))
    if any(level == "error" for level, _ in issues):
        return None, issues
    lset = get(where, limits_mod.limit_set, b["q_min_rad"], b["q_max_rad"], b["v_min_rad_s"],
               b["v_max_rad_s"], b["acc_min_rad_s2"], b["acc_max_rad_s2"], control_dt,
               brake_fraction, b["viability_brake_rad_s2"])
    if lset is None:
        return None, issues
    model = replace(model, tau_min=b["tau_min_nm"], tau_max=b["tau_max_nm"])
    return Scenario(name=name, model=model, q0=q0,
                    qd0=qd0, duration=duration, control_dt=control_dt,
                    integrator_dt=integrator_dt, solver=solver, solver_config=cfg,
                    tasks=sorted(specs, key=lambda spec: spec.priority), limits=lset,
                    events=evs, seed=seed, tau_ext_noise_std=noise, source=source), issues


def _checked(parsed: tuple[Scenario | None, list[tuple[str, str]]]) -> Scenario:
    scenario, issues = parsed
    errors = [m for level, m in issues if level == "error"]
    if errors:
        raise ConfigError("; ".join(errors))
    return scenario


def scenario_from_dict(data: dict, source: str = "<dict>",
                       model_dir: Path | None = None) -> Scenario:
    """The Scenario of a dict; a ConfigError lists every error found."""
    return _checked(_parse(data, source, model_dir))


def validate_scenario_dict(data: dict, source: str = "<dict>",
                           model_dir: Path | None = None) -> list[tuple[str, str]]:
    """Every (level, message) issue of a scenario dict; errors are exactly
    what makes ``scenario_from_dict`` raise."""
    return _parse(data, source, model_dir)[1]


def _resolve_model(ref: str, model_dir: Path | None) -> rbd.RobotModel:
    return rbd.load_model(_input_path(ref, base=model_dir))


def bundled_scenario_path(name: str) -> Path:
    return _input_path(f"bundled:{name}", "scenarios/")


def read_scenario(ref: str | Path) -> tuple[Scenario | None, list[tuple[str, str]]]:
    """Read and parse a scenario file; ``bundled:<name>`` names a shipped one.

    Returns the Scenario (None on any error) and the issues, an unreadable
    file or invalid JSON among them.
    """
    path = _input_path(ref, "scenarios/")
    try:
        data = _read_json(path, ConfigError)
    except ConfigError as e:
        return None, [("error", str(e))]
    return _parse(data, str(path), path.parent)


def load_scenario(path: str | Path) -> Scenario:
    return _checked(read_scenario(path))


def load_bundled_scenario(name: str) -> Scenario:
    return load_scenario(f"bundled:{name}")
