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

import io
import json
import math
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import limits as limits_mod
from . import rbd, solvers, tasks as tasks_mod

STATUS_CODE = {solvers.OPTIMAL: 0, solvers.DEGRADED: 1,
               solvers.INFEASIBLE: 2, solvers.MAX_ITER: 3}


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
                     q: np.ndarray,
                     transforms: np.ndarray | None = None) -> np.ndarray:
    """Joint torques of the active scripted forces and torques at time t.

    An unmodeled mass contributes nothing here: the plant feels it through
    its augmented model, and the controller measures it through
    ``payload_observer``.
    """
    tau = np.zeros(model.n)
    for ev in events:
        if not ev.active(t):
            continue
        if ev.kind == "cartesian_force":
            frame = model.tool_frame if ev.frame is None else ev.frame
            J = rbd.jacobian(model, q, frame, point=ev.point, transforms=transforms)
            tau += J[:3].T @ (ev.profile(t) * ev.force)
        elif ev.kind == "joint_torque":
            tau[ev.joint] += ev.profile(t) * ev.amplitude
    return tau


def payload_observer(nominal: rbd.RobotModel, plant: rbd.RobotModel,
                     state: rbd.JointState, qdd_prev: np.ndarray) -> np.ndarray:
    """Torque-sensor view of an unmodeled mass: the generalized force that,
    added to the nominal model, reproduces the plant's motion.

    Evaluated at the last observed acceleration (one-tick observer lag, like a
    momentum observer on hardware): tau_ext = ID_nominal - ID_plant at
    (q, qd, qdd_prev). At rest this is exactly the payload gravity wrench.
    """
    return (rbd.inverse_dynamics(nominal, state.q, state.qd, qdd_prev)
            - rbd.inverse_dynamics(plant, state.q, state.qd, qdd_prev))


def apply_events(scenario: "Scenario", t: float, model: rbd.RobotModel,
                 state: rbd.JointState,
                 qdd_prev: np.ndarray | None = None,
                 transforms: np.ndarray | None = None) -> np.ndarray:
    """Controller-side (measured) tau_ext at time t.

    Scripted forces and torques are measured directly; an active unmodeled
    mass is measured through the observer (quasi-static at rest when no
    previous acceleration is available). ``transforms`` are the link
    transforms of ``model`` at ``state.q`` when the caller has them.
    """
    tau = scripted_tau_ext(scenario.events, t, model, state.q, transforms)
    plant = scenario.plant_model(t)
    if plant is not model:
        tau = tau + payload_observer(
            model, plant, state,
            np.zeros(model.n) if qdd_prev is None else qdd_prev)
    return tau


# ---------------------------------------------------------------------------
# integrator


def step(model: rbd.RobotModel, state: rbd.JointState, tau: np.ndarray,
         tau_ext: np.ndarray | None, dt: float,
         transforms: np.ndarray | None = None,
         M_cho=None) -> tuple[rbd.JointState, np.ndarray]:
    """One semi-implicit Euler step of the forward dynamics.

    Returns the new state and the acceleration qdd the step used; the link
    ``transforms`` and the factor ``M_cho`` of M at ``state.q`` are reused
    when the caller has them. ``run_scenario`` integrates the plant with this
    step; a non-finite result raises ValueError from the new ``JointState``.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    qdd = rbd.forward_dynamics(model, state.q, state.qd, tau, tau_ext, transforms, M_cho)
    qd = state.qd + qdd * dt
    return rbd.JointState(state.q + qd * dt, qd), qdd


def rk4_step(model: rbd.RobotModel, state: rbd.JointState, tau: np.ndarray,
             tau_ext: np.ndarray | None, dt: float) -> rbd.JointState:
    """Classical Runge-Kutta step; used for conservation studies."""
    def f(q, qd):
        return qd, rbd.forward_dynamics(model, q, qd, tau, tau_ext)

    k1q, k1v = f(state.q, state.qd)
    k2q, k2v = f(state.q + 0.5 * dt * k1q, state.qd + 0.5 * dt * k1v)
    k3q, k3v = f(state.q + 0.5 * dt * k2q, state.qd + 0.5 * dt * k2v)
    k4q, k4v = f(state.q + dt * k3q, state.qd + dt * k3v)
    q = state.q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd = state.qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return rbd.JointState(q, qd)


# ---------------------------------------------------------------------------
# energies


def energy_metrics(model: rbd.RobotModel, state: rbd.JointState,
                   tau_cmd: np.ndarray, J: np.ndarray | None = None,
                   epsilon: float = 1e-6,
                   dyn: rbd.ChainDynamics | None = None) -> tuple[float, float, float, float]:
    """(E_acc, E_kin_total, E_kin_task, E_kin_null) at the current state.

    E_acc uses tau' = tau_cmd - nu - g; the task split uses the damped
    task-space inertia of J (zeros when no task Jacobian is given).
    """
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    tau_prime = np.asarray(tau_cmd, float) - dyn.nu - dyn.g
    e_acc = 0.5 * float(tau_prime @ dyn.minv(tau_prime))
    e_total = 0.5 * float(dyn.qd @ dyn.M @ dyn.qd)
    if J is None:
        e_task = 0.0
    else:
        bundle = rbd.task_dynamics(model, dyn.q, J, epsilon=epsilon, minv=dyn.minv)
        xd = J @ dyn.qd
        e_task = 0.5 * float(xd @ bundle.Lambda @ xd)
    return e_acc, e_total, e_task, e_total - e_task


# ---------------------------------------------------------------------------
# scenario definition


@dataclass
class LimitConfig:
    """Per-scenario joint-space limit overrides; None falls back to the model."""

    acc_min: np.ndarray
    acc_max: np.ndarray
    q_min: np.ndarray | None = None
    q_max: np.ndarray | None = None
    v_min: np.ndarray | None = None
    v_max: np.ndarray | None = None
    dt: float | None = None       # defaults to control_dt
    brake_fraction: float = 0.4
    viability_brake: np.ndarray | None = None


@dataclass
class Scenario:
    name: str
    model: rbd.RobotModel
    q0: np.ndarray
    qd0: np.ndarray
    duration: float
    control_dt: float
    integrator_dt: float
    solver: str
    solver_config: solvers.SolverConfig
    task_configs: list[dict]
    limit_config: LimitConfig
    events: list[Event]
    seed: int = 0
    tau_ext_noise_std: float = 0.0
    source: str = "<memory>"

    def __post_init__(self):
        if self.integrator_dt > self.control_dt + 1e-12:
            raise ConfigError(f"{self.source}: integrator_dt must be <= control_dt")
        if self.solver not in solvers.SOLVER_NAMES:
            raise ConfigError(f"{self.source}: unknown solver {self.solver!r}; "
                              f"valid: {', '.join(solvers.SOLVER_NAMES)}")
        for ev in self.events:
            if ev.kind == "unmodeled_mass":
                com = self.model.tool[:3, :3] @ ev.com_offset + self.model.tool[:3, 3]
                ev.plant = augment_with_point_mass(self.model, ev.mass, com)

    def limit_set(self) -> limits_mod.LimitSet:
        lc = self.limit_config
        dt = lc.dt or self.control_dt
        pick = lambda ov, default: default if ov is None else ov
        return limits_mod.limit_set(
            pick(lc.q_min, self.model.q_min), pick(lc.q_max, self.model.q_max),
            pick(lc.v_min, self.model.v_min), pick(lc.v_max, self.model.v_max),
            lc.acc_min, lc.acc_max, dt, lc.brake_fraction, lc.viability_brake)

    def plant_model(self, t: float) -> rbd.RobotModel:
        for ev in self.events:
            if ev.kind == "unmodeled_mass" and ev.active(t):
                return ev.plant
        return self.model

    def make_tasks(self, state0: rbd.JointState) -> list[tasks_mod.TaskSpec]:
        """Fresh TaskSpec objects (trackers are stateful) with targets resolved at t0."""
        dyn0 = rbd.compute_dynamics(self.model, state0)
        T_tool = dyn0.transforms[self.model.tool_frame]
        specs = []
        for i, tc in enumerate(sorted(self.task_configs, key=lambda c: c["priority"])):
            where = f"{self.source}.tasks[{i}]"
            mode = tc["mode"]
            selector = tc["selector"]
            m = {"tool_pos": 3, "tool_rot_xy": 2,
                 "joint_posture": self.model.n}[selector]
            if mode == "waypoint_tracker":
                specs.append(tasks_mod.TaskSpec(
                    priority=tc["priority"], mode=mode, selector=selector,
                    tracker=_build_tracker(tc, T_tool, where),
                    point=(np.asarray(tc["point_m"], float) if "point_m" in tc else None),
                    name=tc.get("name", f"task{i+1}")))
                continue
            K = _gain_matrix(tc["stiffness"], m)
            D = _gain_matrix(tc["damping"], m)
            target = tc.get("target", {"type": "initial"})
            kind = target.get("type", "initial")
            kwargs = dict(priority=tc["priority"], mode=mode, selector=selector,
                          stiffness=K, damping=D, name=tc.get("name", f"task{i+1}"))
            if "point_m" in tc:
                kwargs["point"] = np.asarray(tc["point_m"], float)
            if selector == "joint_posture":
                kwargs["target_q"] = (state0.q.copy() if kind == "initial"
                                      else np.asarray(target["q_rad"], float))
            elif kind == "initial":
                kwargs["target_position"] = T_tool[:3, 3].copy()
                kwargs["target_rotation"] = T_tool[:3, :3].copy()
            elif kind == "initial_rotated":
                axis = np.asarray(target["axis"], float)
                axis = axis / np.linalg.norm(axis)
                ang = math.radians(float(target["angle_deg"]))
                R = rbd.axis_rotation(axis, ang)
                kwargs["target_position"] = T_tool[:3, 3].copy()
                kwargs["target_rotation"] = R @ T_tool[:3, :3]
            elif kind == "pose":
                kwargs["target_position"] = np.asarray(target["position_m"], float)
                kwargs["target_rotation"] = np.asarray(target["rotation"], float)
            else:
                raise ConfigError(f"{where}: unknown target type {kind!r}")
            specs.append(tasks_mod.TaskSpec(**kwargs))
        return specs


def _gain_matrix(value, m: int) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        return float(v) * np.eye(m)
    if v.ndim == 1:
        return np.diag(v)
    return v


def _build_tracker(tc: dict, T_tool: np.ndarray, where: str) -> tasks_mod.WaypointTracker:
    wp = tc["waypoints"]
    kind = wp.get("type", "explicit")
    if kind == "octagon_with_center":
        center = np.asarray(wp["center_m"], float)
        points = tasks_mod.octagon_waypoints(center, float(wp["radius_m"]),
                                             phase=math.radians(wp.get("phase_deg", 0.0)))
        if wp.get("lead_in", True):
            points = [center.copy()] + points
    elif kind == "explicit":
        points = [np.asarray(p, float) for p in wp["points_m"]]
    else:
        raise ConfigError(f"{where}: unknown waypoint set type {kind!r}")
    return tasks_mod.WaypointTracker(
        waypoints=points, tolerance=float(tc["tolerance_m"]), kp=float(tc["kp"]),
        kv=float(tc["kv"]), v_sat=float(tc["v_sat"]))


# ---------------------------------------------------------------------------
# trace


@dataclass
class Trace:
    """Per-tick record of one run: arrays of ``ticks`` rows, zero-filled at
    construction and filled in by ``run_scenario``."""

    scenario: str
    solver: str
    n: int
    k: int
    ticks: InitVar[int]
    t: np.ndarray = field(init=False)
    q: np.ndarray = field(init=False)
    qd: np.ndarray = field(init=False)
    qdd: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)
    tau_ext: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)             # task scales, 1 when unscaled
    e_acc: np.ndarray = field(init=False)
    e_acc_raw: np.ndarray = field(init=False)
    e_kin_total: np.ndarray = field(init=False)
    e_kin_task: np.ndarray = field(init=False)
    e_kin_null: np.ndarray = field(init=False)
    viol_q: np.ndarray = field(init=False)        # (-1, 0, +1) per joint: which side is violated
    viol_v: np.ndarray = field(init=False)
    viol_tau: np.ndarray = field(init=False)
    saturated: np.ndarray = field(init=False)     # bool, naive clamp active (projector baseline)
    pos_err: np.ndarray = field(init=False)       # priority-1 task position error [m or rad]
    acc_err: np.ndarray = field(init=False)       # priority-1 task acceleration error
    status: np.ndarray = field(init=False)        # int codes, see STATUS_CODE
    repaired: np.ndarray = field(init=False)      # bool, bound repair active on some direction

    def __post_init__(self, ticks: int):
        for name in ("q", "qd", "qdd", "tau", "tau_ext"):
            setattr(self, name, np.zeros((ticks, self.n)))
        for name in ("viol_q", "viol_v", "viol_tau"):
            setattr(self, name, np.zeros((ticks, self.n), np.int8))
        for name in ("t", "e_acc", "e_acc_raw", "e_kin_total", "e_kin_task",
                     "e_kin_null", "pos_err", "acc_err"):
            setattr(self, name, np.zeros(ticks))
        self.s = np.ones((ticks, self.k))
        self.saturated = np.zeros((ticks, self.n), bool)
        self.status = np.zeros(ticks, int)
        self.repaired = np.zeros(ticks, bool)

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
        n, k = self.n, self.k
        cols = ["t"]
        cols += [f"q{j+1}" for j in range(n)]
        cols += [f"qd{j+1}" for j in range(n)]
        cols += [f"tau{j+1}" for j in range(n)]
        cols += [f"s{j+1}" for j in range(k)]
        cols += ["E_acc", "E_kin_total", "E_kin_task", "E_kin_null"]
        cols += [f"viol_q{j+1}" for j in range(n)]
        cols += [f"viol_v{j+1}" for j in range(n)]
        cols += [f"viol_tau{j+1}" for j in range(n)]
        cols += [f"sat{j+1}" for j in range(n)]
        cols += ["E_acc_raw", "pos_err", "acc_err", "status", "repaired"]
        return cols

    def to_csv(self, path: str | Path) -> None:
        buf = io.StringIO()
        buf.write(",".join(self.header()) + "\n")
        fmt = lambda v: format(float(v), ".10g")
        for i in range(len(self.t)):
            row = [fmt(self.t[i])]
            row += [fmt(v) for v in self.q[i]]
            row += [fmt(v) for v in self.qd[i]]
            row += [fmt(v) for v in self.tau[i]]
            row += [fmt(v) for v in self.s[i]]
            row += [fmt(self.e_acc[i]), fmt(self.e_kin_total[i]),
                    fmt(self.e_kin_task[i]), fmt(self.e_kin_null[i])]
            row += [str(int(v)) for v in self.viol_q[i]]
            row += [str(int(v)) for v in self.viol_v[i]]
            row += [str(int(v)) for v in self.viol_tau[i]]
            row += [str(int(v)) for v in self.saturated[i]]
            row += [fmt(self.e_acc_raw[i]), fmt(self.pos_err[i]),
                    fmt(self.acc_err[i]), str(int(self.status[i])),
                    str(int(self.repaired[i]))]
            buf.write(",".join(row) + "\n")
        Path(path).write_text(buf.getvalue())


def _violation_side(value: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    rel_tol: float = 1e-6) -> np.ndarray:
    span_tol = rel_tol * np.maximum(np.abs(lo), np.abs(hi))
    side = np.zeros(len(value), dtype=np.int8)
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


def task_count_error(solver: str, k: int) -> str | None:
    """Why ``solver`` cannot run a stack of k tasks, or None when it can."""
    if k > 1 and solver in solvers.SINGLE_TASK_SOLVERS:
        return f"solver {solver!r} takes one task, the scenario has {k}"
    return None


def run_scenario(scenario: Scenario, solver: str | None = None,
                 ext_force_in_bounds: bool | None = None,
                 ext_force_in_task: bool | None = None,
                 dump_qp_path: str | None = None,
                 record_hook=None) -> Trace:
    """Run one scenario with one solver and return the full trace.

    ``record_hook(tick, state, dyn, realized, out)`` is called after each
    control tick when given (used by tests to replay solvers in lockstep).
    """
    model = scenario.model
    name = solver or scenario.solver
    if name not in solvers.SOLVER_NAMES:
        raise ConfigError(f"unknown solver {name!r}; valid: {', '.join(solvers.SOLVER_NAMES)}")
    problem = task_count_error(name, len(scenario.task_configs))
    if problem is not None:
        raise ConfigError(f"{scenario.source}: {problem}")
    cfg = replace(scenario.solver_config)
    if ext_force_in_bounds is not None:
        cfg.ext_force_in_bounds = ext_force_in_bounds
    if ext_force_in_task is not None:
        cfg.ext_force_in_task = ext_force_in_task
    if dump_qp_path is not None:
        cfg.dump_qp_path = str(dump_qp_path)

    state = rbd.JointState(scenario.q0.copy(), scenario.qd0.copy())
    specs = scenario.make_tasks(state)
    lead_spec = specs[0]
    lset = scenario.limit_set()
    rng = np.random.default_rng(scenario.seed)
    noise = scenario.tau_ext_noise_std

    n_ticks = int(round(scenario.duration / scenario.control_dt))
    substeps = max(1, int(round(scenario.control_dt / scenario.integrator_dt)))
    h = scenario.control_dt / substeps
    trace = Trace(scenario=scenario.name, solver=name, n=model.n, k=len(specs),
                  ticks=n_ticks)

    qdd_prev = np.zeros(model.n)
    for tick in range(n_ticks):
        t = tick * scenario.control_dt
        dyn = rbd.compute_dynamics(model, state)
        tau_ext = apply_events(scenario, t, model, state, qdd_prev, dyn.transforms)
        if noise > 0:
            tau_ext = tau_ext + rng.normal(0.0, noise, model.n)
        realized = [tasks_mod.realize_task(sp, dyn) for sp in specs]
        ext = tau_ext if np.any(tau_ext) else None

        if name == "dcts":
            offset = dyn.minv(tau_ext) if (ext is not None and cfg.ext_force_in_bounds) else None
            limit_real = limits_mod.realize_joint_limits(lset, state.q, state.qd, offset)
            out = solvers.solve_dcts_multi(model, state, realized, limit_real, ext, cfg, dyn)
        elif name == "osc":
            limit_real = limits_mod.realize_joint_limits(lset, state.q, state.qd)
            out = solvers.solve_osc_saturated(model, state, realized[0], limit_real,
                                              ext, cfg, dyn)
        else:
            limit_real = None
            solve = solvers.solve_qp_mt if name == "qp-mt" else solvers.solve_qp_md
            out = solve(model, state, realized[0], cfg=cfg, dyn=dyn)

        tau_cmd = out.tau
        lead = realized[0]
        e_acc, e_tot, e_task, e_null = energy_metrics(
            model, state, tau_cmd, J=lead.J, epsilon=cfg.epsilon_lambda, dyn=dyn)

        # integrate the plant
        plant = scenario.plant_model(t)
        sub = state
        for j in range(substeps):
            reuse = j == 0 and plant is model       # the tick's own q: same bytes
            transforms = dyn.transforms if reuse else rbd.link_transforms(plant, sub.q)
            tau_ext_plant = scripted_tau_ext(scenario.events, t, plant, sub.q, transforms)
            sub, qdd = step(plant, sub, tau_cmd, tau_ext_plant, h, transforms,
                            dyn.M_cho if reuse else None)
            if j == 0:
                qdd_first = qdd

        # metrics and flags at the tick
        if lead_spec.mode == "waypoint_tracker":
            tracker = lead_spec.tracker
            seg = tracker.segment()
            Ttool = dyn.transforms[model.tool_frame]
            x = (Ttool[:3, 3] if lead_spec.point is None
                 else Ttool[:3, :3] @ lead_spec.point + Ttool[:3, 3])
            if seg is not None:
                pos_err = _segment_distance(x, seg[0], seg[1])
            elif tracker.current is not None:
                pos_err = float(np.linalg.norm(x - tracker.current))
            else:
                pos_err = 0.0
        else:
            pos_err = float(np.linalg.norm(lead.error)) if lead.error is not None else 0.0

        trace.t[tick] = t
        trace.q[tick] = state.q
        trace.qd[tick] = state.qd
        trace.qdd[tick] = qdd_first
        trace.tau[tick] = tau_cmd
        trace.tau_ext[tick] = tau_ext
        trace.s[tick, :len(out.s)] = out.s[:trace.k]
        trace.e_acc[tick] = e_acc
        trace.e_acc_raw[tick] = 0.5 * float(tau_cmd @ dyn.minv(tau_cmd))
        trace.e_kin_total[tick] = e_tot
        trace.e_kin_task[tick] = e_task
        trace.e_kin_null[tick] = e_null
        trace.viol_q[tick] = _violation_side(state.q, lset.c_min, lset.c_max)
        trace.viol_v[tick] = _violation_side(state.qd, lset.v_min, lset.v_max)
        trace.viol_tau[tick] = _violation_side(tau_cmd, model.tau_min, model.tau_max)
        trace.saturated[tick] = out.diagnostics.get("saturated", False)
        trace.pos_err[tick] = pos_err
        trace.acc_err[tick] = float(np.linalg.norm(lead.J @ qdd_first + lead.jdot_qd - lead.a_d))
        trace.status[tick] = STATUS_CODE.get(out.status, 3)
        trace.repaired[tick] = limit_real is not None and limit_real.bounds.any_repaired
        if record_hook is not None:
            record_hook(tick, state, dyn, realized, out)
        state = sub
        qdd_prev = qdd_first
    return trace


# ---------------------------------------------------------------------------
# scenario files


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing field '{key}'")
    return d[key]


def scenario_from_dict(data: dict, source: str = "<dict>",
                       model_dir: Path | None = None) -> Scenario:
    issues = validate_scenario_dict(data, source, model_dir)
    errors = [m for level, m in issues if level == "error"]
    if errors:
        raise ConfigError("; ".join(errors))
    model = _resolve_model(data["model"], model_dir)
    n = model.n
    lim_over = data.get("limits", {})
    if "tau_max_nm" in lim_over or "tau_min_nm" in lim_over:
        tau_max = np.broadcast_to(np.asarray(
            lim_over.get("tau_max_nm", model.tau_max), float), (n,)).copy()
        tau_min = np.broadcast_to(np.asarray(
            lim_over.get("tau_min_nm", -tau_max), float), (n,)).copy()
        model = replace(model, tau_min=tau_min, tau_max=tau_max)
    q0 = np.asarray(_require(data, "q0_rad", source), dtype=float)
    qd0 = np.asarray(data.get("qd0_rad", np.zeros(n)), dtype=float)
    lim = data.get("limits", {})
    vec = lambda key, default: (None if default is None and key not in lim else
                                np.broadcast_to(np.asarray(lim.get(key, default), float),
                                                (n,)).copy())
    acc_min = vec("acc_min_rad_s2", -10.0)
    acc_max = vec("acc_max_rad_s2", 10.0)
    limit_config = LimitConfig(acc_min=acc_min, acc_max=acc_max,
                               q_min=vec("q_min_rad", None), q_max=vec("q_max_rad", None),
                               v_min=vec("v_min_rad_s", None), v_max=vec("v_max_rad_s", None),
                               dt=lim.get("dt_s"),
                               brake_fraction=float(lim.get("brake_fraction", 0.4)),
                               viability_brake=vec("viability_brake_rad_s2", None))
    events = [_event_from_dict(e, f"{source}.events[{i}]")
              for i, e in enumerate(data.get("events", []))]
    sc = data.get("solver_config", {})
    cfg = solvers.SolverConfig(**sc)
    return Scenario(name=str(data.get("name", Path(source).stem)), model=model,
                    q0=q0, qd0=qd0,
                    duration=float(_require(data, "duration_s", source)),
                    control_dt=float(data.get("control_dt_s", 1e-3)),
                    integrator_dt=float(data.get("integrator_dt_s", 1e-4)),
                    solver=str(data.get("solver", "dcts")),
                    solver_config=cfg,
                    task_configs=_require(data, "tasks", source),
                    limit_config=limit_config,
                    events=events, seed=int(data.get("seed", 0)),
                    tau_ext_noise_std=float(data.get("tau_ext_noise_std", 0.0)),
                    source=source)


def _event_from_dict(e: dict, where: str) -> Event:
    kind = _require(e, "kind", where)
    common = dict(kind=kind, start=float(_require(e, "start_s", where)),
                  duration=float(_require(e, "duration_s", where)))
    if kind == "cartesian_force":
        return Event(**common, force=np.asarray(_require(e, "force_n", where), float),
                     frame=e.get("frame"), point=np.asarray(e.get("point_m", [0, 0, 0]), float))
    if kind == "joint_torque":
        return Event(**common, joint=int(_require(e, "joint", where)) - 1,
                     amplitude=float(_require(e, "amplitude_nm", where)),
                     ramp=float(e.get("ramp_s", 0.0)))
    if kind == "unmodeled_mass":
        return Event(**common, mass=float(_require(e, "mass_kg", where)),
                     com_offset=np.asarray(e.get("com_offset_m", [0, 0, 0]), float))
    raise ConfigError(f"{where}: unknown event kind {kind!r}")


def _resolve_model(ref: str, model_dir: Path | None) -> rbd.RobotModel:
    if isinstance(ref, str) and ref.startswith("bundled:"):
        return rbd.load_bundled_model(ref.split(":", 1)[1])
    path = Path(ref)
    if not path.is_absolute() and model_dir is not None:
        path = model_dir / path
    return rbd.load_model(path)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    return scenario_from_dict(data, source=str(path), model_dir=path.parent)


def bundled_scenario_path(name: str) -> Path:
    from importlib import resources
    return Path(resources.files("dcts").joinpath(f"data/scenarios/{name}.json"))


def load_bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))


def validate_scenario_dict(data: dict, source: str = "<dict>",
                           model_dir: Path | None = None) -> list[tuple[str, str]]:
    """All schema/invariant problems of a scenario dict as (level, message)."""
    issues: list[tuple[str, str]] = []
    err = lambda m: issues.append(("error", m))
    warn = lambda m: issues.append(("warning", m))

    model = None
    if "model" not in data:
        err(f"{source}: missing field 'model'")
    else:
        try:
            model = _resolve_model(data["model"], model_dir)
        except (rbd.ModelError, OSError) as e:
            err(f"{source}.model: {e}")
    duration = data.get("duration_s")
    if duration is None:
        err(f"{source}: missing field 'duration_s'")
    elif duration <= 0:
        err(f"{source}.duration_s: must be > 0")
    control_dt = data.get("control_dt_s", 1e-3)
    integ_dt = data.get("integrator_dt_s", 1e-4)
    if integ_dt > control_dt:
        err(f"{source}: integrator_dt_s must be <= control_dt_s")
    solver = data.get("solver", "dcts")
    if solver not in solvers.SOLVER_NAMES:
        err(f"{source}.solver: unknown {solver!r}; valid: {', '.join(solvers.SOLVER_NAMES)}")
    unknown = set(data.get("solver_config", {})) - {f.name for f in fields(solvers.SolverConfig)}
    if unknown:
        err(f"{source}.solver_config: unknown keys {sorted(unknown)}")
    if model is not None:
        q0 = data.get("q0_rad")
        if q0 is None:
            err(f"{source}: missing field 'q0_rad'")
        elif len(q0) != model.n:
            err(f"{source}.q0_rad: expected {model.n} entries, got {len(q0)}")
    if not data.get("tasks"):
        err(f"{source}: needs at least one task")
    else:
        for i, tc in enumerate(data["tasks"]):
            where = f"{source}.tasks[{i}]"
            for key in ("priority", "mode", "selector"):
                if key not in tc:
                    err(f"{where}: missing field '{key}'")
            mode = tc.get("mode")
            if mode == "waypoint_tracker":
                for key in ("kp", "kv", "v_sat", "tolerance_m", "waypoints"):
                    if key not in tc:
                        err(f"{where}: missing field '{key}'")
            elif mode in ("impedance", "force_impedance"):
                for key in ("stiffness", "damping"):
                    if key not in tc:
                        err(f"{where}: missing field '{key}'")
                    elif np.any(np.asarray(tc[key], float) <= 0):
                        err(f"{where}.{key}: must be positive definite")
            elif mode is not None:
                err(f"{where}.mode: unknown {mode!r}")
        priorities = [tc.get("priority") for tc in data["tasks"]]
        if len(set(priorities)) != len(priorities):
            err(f"{source}.tasks: duplicate priorities {priorities}")
        problem = task_count_error(solver, len(data["tasks"]))
        if problem is not None:
            err(f"{source}.tasks: {problem}")
    lim = data.get("limits", {})
    acc_min = np.asarray(lim.get("acc_min_rad_s2", -10.0), float)
    acc_max = np.asarray(lim.get("acc_max_rad_s2", 10.0), float)
    if np.any(acc_min >= acc_max):
        err(f"{source}.limits: acc_min must be < acc_max")
    for i, e in enumerate(data.get("events", [])):
        where = f"{source}.events[{i}]"
        kind = e.get("kind")
        if kind not in ("cartesian_force", "joint_torque", "unmodeled_mass"):
            err(f"{where}.kind: unknown {kind!r}")
            continue
        try:
            ev = _event_from_dict(e, where)
        except ConfigError as ex:
            err(str(ex))
            continue
        if duration is not None and ev.start >= duration:
            warn(f"{where}: event starts at {ev.start}s, beyond the scenario duration")
        if kind == "joint_torque" and model is not None and not (0 <= ev.joint < model.n):
            err(f"{where}.joint: joint {ev.joint + 1} outside 1..{model.n}")
    return issues
