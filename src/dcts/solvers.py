"""Torque-level redundancy resolution: projector OSC, QP baselines and DCTS.

All controllers map (model, state, task(s), external joint torques) to a
commanded torque with gravity/bias compensation included. Conventions:

- tau' denotes the command above compensation, tau = tau' + nu + g. The
  acceleration-energy objective is 1/2 tau'^T M^-1 tau' (minimizing over the
  full tau would be dominated by gravity and break the OSC equivalence).
- OSC solves the task exactly through the dynamically consistent inverse:
  tau' = J^T Lambda (a_d - Jdot qd - J M^-1 tau_ext).
- QP-MT/QP-MD minimize ||J qdd - (a_d - Jdot qd)||^2 plus a regularizer
  (torque norm about gravity, or joint damping qdd -> -D qd), subject to the
  torque box; they ignore external torques, which is their documented flaw.
- DCTS solves min 1/2 tau'^T M^-1 tau' + priority-ordered scaling of the
  desired task accelerations, subject to the dynamics link tau = M qdd + nu
  + g, torque bounds, shaped acceleration bounds and the per-level scaled
  task equalities with external-torque terms; multi-task stacks use
  dynamically consistent null-space projectors of the augmented Jacobians,
  qdd = sum_i N_i qdd_i.

Task scaling is resolved lexicographically: first try all s_i = 1; on
infeasibility maximize s_1, then s_2 given s_1, ..., and finally minimize the
acceleration energy with all s_i fixed. This realizes the w_i >> w_{i-1} >> 1
penalty ordering in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import qpcore, rbd
from .limits import LimitRealization
from .tasks import TaskInstance

OPTIMAL, DEGRADED, INFEASIBLE, MAX_ITER = "optimal", "degraded", "infeasible", "max_iter"

SOLVER_NAMES = ("osc", "qp-mt", "qp-md", "dcts")
# solvers that take the priority-1 task only
SINGLE_TASK_SOLVERS = ("osc", "qp-mt", "qp-md")


@dataclass
class SolverConfig:
    """Tuning knobs shared by the torque solvers."""

    epsilon_lambda: float = 1e-6          # damping for near-singular task inertia
    qp_tol: float = 1e-8
    qp_max_iter: int = 200
    qp_mt_weight: float = 1e-3
    qp_md_weight: float = 1e-3
    qp_md_damping: float = 10.0           # [1/s]
    torque_regularizer: str = "about_gravity"   # | "plain"
    ext_force_in_task: bool = True
    ext_force_in_bounds: bool = True
    brake_damping: float = 10.0           # [1/s] infeasible-fallback braking
    dump_qp_path: str | None = None

    def __post_init__(self):
        if self.torque_regularizer not in ("about_gravity", "plain"):
            raise ValueError(f"unknown torque_regularizer {self.torque_regularizer!r}")


@dataclass
class ControlOutput:
    """Commanded torque (compensation included) plus solver bookkeeping."""

    tau: np.ndarray
    qdd: np.ndarray
    s: np.ndarray
    status: str
    diagnostics: dict = field(default_factory=dict)


def naive_saturate(tau: np.ndarray, tau_min: np.ndarray, tau_max: np.ndarray) -> np.ndarray:
    """Elementwise torque clamp without re-solving."""
    return np.clip(tau, tau_min, tau_max)


def _lambda_factor(J: np.ndarray, dyn: rbd.ChainDynamics, epsilon: float):
    """Cholesky of J M^-1 J^T, exact when well conditioned, damped otherwise.

    Returns (factor, Minv_Jt, degraded_flag).
    """
    Minv_Jt = dyn.minv(J.T)
    A = J @ Minv_Jt
    A = 0.5 * (A + A.T)
    # cond alone is scale-invariant; a vanishing task Jacobian (fully projected
    # away) must fall through to damping too
    try:
        if np.abs(A).max() > 1e-9 and np.linalg.cond(A) < 1e10:
            return cho_factor(A, lower=True), Minv_Jt, False
    except LinAlgError:
        pass
    m = A.shape[0]
    return cho_factor(A + max(epsilon, 1e-12) * np.eye(m), lower=True), Minv_Jt, True


def solve_osc(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
              tau_ext: np.ndarray | None = None,
              cfg: SolverConfig | None = None,
              dyn: rbd.ChainDynamics | None = None) -> ControlOutput:
    """Projector-based operational space control for a single task.

    The command achieves J M^-1 (tau - nu - g + tau_ext) = a_d - Jdot qd
    exactly (up to the linear solve) and minimizes the acceleration energy
    1/2 tau'^T M^-1 tau' over the task-consistent set.
    """
    cfg = cfg or SolverConfig()
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    J = task.J
    rhs = task.a_d - task.jdot_qd
    minv_tau_ext = None
    if tau_ext is not None and np.any(tau_ext):
        minv_tau_ext = dyn.minv(np.asarray(tau_ext, float))
        rhs = rhs - J @ minv_tau_ext
    factor, _, degraded = _lambda_factor(J, dyn, cfg.epsilon_lambda)
    lam = cho_solve(factor, rhs)
    tau_prime = J.T @ lam
    qdd = dyn.minv(tau_prime)
    if minv_tau_ext is not None:
        qdd = qdd + minv_tau_ext
    return ControlOutput(tau=tau_prime + dyn.nu + dyn.g, qdd=qdd, s=np.ones(1),
                         status=DEGRADED if degraded else OPTIMAL,
                         diagnostics={"tau_prime": tau_prime})


def solve_osc_saturated(model: rbd.RobotModel, state: rbd.JointState,
                        task: TaskInstance,
                        limit_real: LimitRealization | None,
                        tau_ext: np.ndarray | None = None,
                        cfg: SolverConfig | None = None,
                        dyn: rbd.ChainDynamics | None = None) -> ControlOutput:
    """Projector baseline: OSC + joint-saturation level + naive torque clamp.

    Joint accelerations that the shaped bounds forbid are pinned at the bound
    as a top-priority joint-space task; the original task runs through the
    dynamically consistent null-space projector of the pinned rows. The final
    command torque is clamped elementwise (no re-solve), which is exactly the
    failure mode this baseline is known for: when the clamp bites, neither the
    pinned accelerations nor the task acceleration are realized.

    Only joint-space limited spaces (Jc = I) are supported here.
    """
    cfg = cfg or SolverConfig()
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    n = model.n
    minv_tau_ext = None
    if tau_ext is not None and np.any(tau_ext):
        minv_tau_ext = dyn.minv(np.asarray(tau_ext, float))

    pinned: dict[int, float] = {}
    tau_prime = np.zeros(n)
    status = OPTIMAL
    for _ in range(n + 1):
        if pinned:
            idx = sorted(pinned)
            Js = np.zeros((len(idx), n))
            for r, j in enumerate(idx):
                Js[r, j] = 1.0
            a_s = np.array([pinned[j] for j in idx])
            fac_s, Minv_Jst, deg1 = _lambda_factor(Js, dyn, cfg.epsilon_lambda)
            tau_s = Js.T @ cho_solve(fac_s, a_s)
            # acceleration-space projector of the pinned rows: Js @ Ns = 0
            Ns = np.eye(n) - Minv_Jst @ cho_solve(fac_s, Js)
            Jp = task.J @ Ns
            rhs = task.a_d - task.jdot_qd - task.J @ dyn.minv(tau_s)
            if minv_tau_ext is not None:
                rhs = rhs - task.J @ minv_tau_ext
            fac_t, _, deg2 = _lambda_factor(Jp, dyn, cfg.epsilon_lambda)
            tau_prime = tau_s + Jp.T @ cho_solve(fac_t, rhs)
            if deg1 or deg2:
                status = DEGRADED
        else:
            out = solve_osc(model, state, task, tau_ext, cfg, dyn)
            tau_prime = out.diagnostics["tau_prime"]
            status = out.status
        if limit_real is None:
            break
        qdd_pred = dyn.minv(tau_prime)
        if minv_tau_ext is not None:
            qdd_pred = qdd_pred + minv_tau_ext
        lo, hi = limit_real.bounds.acc_min, limit_real.bounds.acc_max
        below = lo - qdd_pred
        above = qdd_pred - hi
        margin = np.maximum(below, above)
        margin[list(pinned)] = -np.inf
        worst = int(np.argmax(margin))
        if margin[worst] <= 1e-9:
            break
        pinned[worst] = lo[worst] if below[worst] >= above[worst] else hi[worst]

    tau = tau_prime + dyn.nu + dyn.g
    tau_clamped = naive_saturate(tau, model.tau_min, model.tau_max)
    saturated = np.abs(tau - tau_clamped) > 1e-12
    qdd = dyn.minv(tau_clamped - dyn.nu - dyn.g)
    if minv_tau_ext is not None:
        qdd = qdd + minv_tau_ext
    return ControlOutput(tau=tau_clamped, qdd=qdd, s=np.ones(1), status=status,
                         diagnostics={"saturated": saturated,
                                      "pinned": dict(pinned),
                                      "tau_unclamped": tau})


# ---------------------------------------------------------------------------
# QP baselines


def _solve_qp_baseline(dyn: rbd.ChainDynamics, task: TaskInstance,
                       H_reg: np.ndarray, y_reg: np.ndarray, w: float,
                       cfg: SolverConfig) -> ControlOutput:
    """min ||J qdd - b||^2 + w ||H_reg qdd - y_reg||^2 s.t. torque box."""
    J, b = task.J, task.a_d - task.jdot_qd
    H = 2.0 * (J.T @ J + w * H_reg.T @ H_reg)
    f = -2.0 * (J.T @ b + w * H_reg.T @ y_reg)
    comp = dyn.nu + dyn.g
    problem = qpcore.QpProblem(H=H, f=f, Ain=dyn.M,
                               lower=dyn.model.tau_min - comp,
                               upper=dyn.model.tau_max - comp)
    sol = qpcore.solve(problem, tol=cfg.qp_tol, max_iter=cfg.qp_max_iter)
    if sol.status != qpcore.OPTIMAL:
        return _brake_fallback(dyn, cfg, sol.status, {"qp": sol.status})
    qdd = sol.x
    tau = dyn.M @ qdd + comp
    return ControlOutput(tau=tau, qdd=qdd, s=np.ones(1), status=OPTIMAL,
                         diagnostics={"qp_iterations": sol.iterations, "kkt": sol.kkt})


def solve_qp_mt(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
                tau_ext: np.ndarray | None = None,
                cfg: SolverConfig | None = None,
                dyn: rbd.ChainDynamics | None = None) -> ControlOutput:
    """QP baseline with a minimum-torque regularizer.

    By default the regularizer is centered at the gravity torque,
    ||tau - g||^2 = ||M qdd + nu||^2, so the comparison is not dominated by
    static gravity magnitude; torque_regularizer="plain" gives the bare
    ||tau||^2. External torques are ignored by construction.
    """
    cfg = cfg or SolverConfig()
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    y = -dyn.nu if cfg.torque_regularizer == "about_gravity" else -(dyn.nu + dyn.g)
    return _solve_qp_baseline(dyn, task, dyn.M, y, cfg.qp_mt_weight, cfg)


def solve_qp_md(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
                tau_ext: np.ndarray | None = None,
                cfg: SolverConfig | None = None,
                dyn: rbd.ChainDynamics | None = None) -> ControlOutput:
    """QP baseline with a joint-space damping regularizer ||qdd + D qd||^2."""
    cfg = cfg or SolverConfig()
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    D = cfg.qp_md_damping * np.eye(model.n)
    return _solve_qp_baseline(dyn, task, np.eye(model.n), -(D @ state.qd),
                              cfg.qp_md_weight, cfg)


# ---------------------------------------------------------------------------
# DCTS


def _brake_fallback(dyn: rbd.ChainDynamics, cfg: SolverConfig, status: str,
                    diagnostics: dict) -> ControlOutput:
    """Safe braking command when the constrained problem has no solution."""
    model = dyn.model
    brake = np.clip(dyn.M @ (-cfg.brake_damping * dyn.qd),
                    model.tau_min - dyn.g, model.tau_max - dyn.g)
    tau = np.clip(dyn.g + brake, model.tau_min, model.tau_max)
    qdd = dyn.minv(tau - dyn.nu - dyn.g)
    diagnostics = dict(diagnostics, fallback="braking")
    return ControlOutput(tau=tau, qdd=qdd, s=np.zeros(1), status=status,
                         diagnostics=diagnostics)


def _nullspace_stack(tasks: list[TaskInstance], dyn: rbd.ChainDynamics,
                     cfg: SolverConfig) -> list[np.ndarray]:
    """Dynamically consistent null-space projectors of the augmented stacks.

    N_1 = I; N_i is built from the augmented Jacobian of tasks 1..i-1. The
    torque-space projector I - J^T Jbar^T and the acceleration-space form
    I - Jbar J are M-conjugates of one projection; the coupling
    qdd = sum_i N_i qdd_i lives in acceleration space, so the latter applies:
    J_aug (I - Jbar J_aug) = 0 keeps lower-priority accelerations invisible
    to every higher task, and the induced torque M N_acc qdd_i automatically
    lands in the torque null space (J M^-1 M N_acc = J N_acc... = 0).
    """
    n = dyn.model.n
    projectors = [np.eye(n)]
    for i in range(1, len(tasks)):
        J_aug = np.vstack([t.J for t in tasks[:i]])
        factor, Minv_Jt, _ = _lambda_factor(J_aug, dyn, cfg.epsilon_lambda)
        jbar = Minv_Jt @ cho_solve(factor, np.eye(J_aug.shape[0]))
        projectors.append(np.eye(n) - jbar @ J_aug)
    return projectors


def _level_qp(dyn, cfg, J_i, a_d, rhs0, N_i, frozen, tau_lo, tau_hi,
              Jc, acc_lo, acc_hi, s_value, maximize_s):
    """One QP of the per-level cascade.

    Variables are the level's own acceleration qdd_i (plus its scale when
    free). The level contributes N_i qdd_i on top of the frozen contribution
    of the higher levels; torque and limited-space rows bound the total.
    With ``s_value`` given the task equality is pinned and the objective is
    the total acceleration energy; with ``maximize_s`` the objective is
    (1 - s)^2 plus a small energy term for conditioning.
    """
    n = N_i.shape[0]
    m = J_i.shape[0]
    nv = n + (0 if s_value is not None else 1)

    MN = dyn.M @ N_i
    Hq = N_i.T @ MN
    if nv > n or np.abs(np.linalg.det(N_i)) < 0.5:      # singular projector
        Hq = Hq + (1e-9 * max(np.trace(dyn.M) / n, 1.0)) * np.eye(n)
    H = np.zeros((nv, nv))
    f = np.zeros(nv)
    if maximize_s:
        H[:n, :n] = 1e-4 * Hq
        f[:n] = 1e-4 * (N_i.T @ (dyn.M @ frozen))
        H[n, n] = 2.0
        f[n] = -2.0
    else:
        H[:n, :n] = Hq
        f[:n] = N_i.T @ (dyn.M @ frozen)

    Aeq = np.zeros((m, nv))
    Aeq[:, :n] = J_i
    if s_value is None:
        Aeq[:, n] = -a_d
        beq = rhs0
    else:
        beq = s_value * a_d + rhs0

    tau_frozen = dyn.M @ frozen
    ain = [np.hstack([MN, np.zeros((n, nv - n))])]
    lo = [tau_lo - tau_frozen]
    hi = [tau_hi - tau_frozen]
    if Jc is not None:
        JcN = Jc @ N_i
        ain.append(np.hstack([JcN, np.zeros((JcN.shape[0], nv - n))]))
        lo.append(acc_lo - Jc @ frozen)
        hi.append(acc_hi - Jc @ frozen)
    lb = np.full(nv, -np.inf)
    ub = np.full(nv, np.inf)
    if s_value is None:
        lb[n] = 0.0
        ub[n] = 1.0

    problem = qpcore.QpProblem(H=H, f=f, Aeq=Aeq, beq=beq,
                               Ain=np.vstack(ain), lower=np.concatenate(lo),
                               upper=np.concatenate(hi), lb=lb, ub=ub)
    if cfg.dump_qp_path:
        qpcore.dump_problem(problem, cfg.dump_qp_path)
    return qpcore.solve(problem, tol=cfg.qp_tol, max_iter=cfg.qp_max_iter)


def solve_dcts_multi(model: rbd.RobotModel, state: rbd.JointState,
                     tasks: list[TaskInstance],
                     limit_real: LimitRealization | None = None,
                     tau_ext: np.ndarray | None = None,
                     cfg: SolverConfig | None = None,
                     dyn: rbd.ChainDynamics | None = None) -> ControlOutput:
    """Dynamically consistent constrained task hierarchy solve, k >= 1 tasks.

    The hierarchy is resolved level by level: each
    priority level solves its own QP over (qdd_i, s_i) with the contributions
    of the higher levels frozen, the task equality on its own block, and the
    torque and shaped-bound rows applied to the accumulated acceleration.
    Per level: try s_i = 1; if infeasible, maximize s_i and re-minimize the
    acceleration energy at the fixed scale. Freezing higher levels is what
    realizes the strict hierarchy: a lower level can neither disturb nor
    trade away anything the levels above already claimed.
    """
    cfg = cfg or SolverConfig()
    if dyn is None:
        dyn = rbd.compute_dynamics(model, state)
    if not tasks:
        raise ValueError("need at least one task")
    if any(a.priority > b.priority for a, b in zip(tasks, tasks[1:])):
        raise ValueError("tasks must be sorted by priority (1 = highest)")
    n = model.n
    k = len(tasks)
    projectors = _nullspace_stack(tasks, dyn, cfg)
    minv_tau_ext = None
    if tau_ext is not None and np.any(tau_ext) and cfg.ext_force_in_task:
        minv_tau_ext = dyn.minv(np.asarray(tau_ext, float))

    comp = dyn.nu + dyn.g
    tau_lo = model.tau_min - comp
    tau_hi = model.tau_max - comp
    if limit_real is not None:
        Jc = limit_real.Jc
        acc_lo = limit_real.bounds.acc_min - limit_real.jdot_c_qd
        acc_hi = limit_real.bounds.acc_max - limit_real.jdot_c_qd
    else:
        Jc, acc_lo, acc_hi = None, None, None

    frozen = np.zeros(n)
    qdd_blocks = []
    s_out = np.ones(k)
    stages = 0
    iterations = 0
    last_sol = None
    for i, t in enumerate(tasks):
        rhs0 = -t.jdot_qd
        if minv_tau_ext is not None:
            rhs0 = rhs0 - t.J @ minv_tau_ext
        args = (dyn, cfg, t.J, t.a_d, rhs0, projectors[i], frozen,
                tau_lo, tau_hi, Jc, acc_lo, acc_hi)
        sol = _level_qp(*args, s_value=1.0, maximize_s=False)
        stages += 1
        iterations += sol.iterations
        if sol.status != qpcore.OPTIMAL:
            if sol.status == qpcore.MAX_ITER:
                return _brake_fallback(dyn, cfg, MAX_ITER,
                                       {"stage": f"level-{i + 1}-full"})
            sol = _level_qp(*args, s_value=None, maximize_s=True)
            stages += 1
            iterations += sol.iterations
            if sol.status != qpcore.OPTIMAL:
                return _brake_fallback(
                    dyn, cfg, INFEASIBLE,
                    {"qp": sol.status, "stage": f"level-{i + 1}-scale",
                     "blocking": sol.infeasible_constraint})
            # back off by the solver tolerance so the pinned-scale re-solve
            # stays strictly feasible
            s_lo = float(np.clip(sol.x[n] - 1e-8, 0.0, 1.0))
            sol_lo = _level_qp(*args, s_value=s_lo, maximize_s=False)
            stages += 1
            iterations += sol_lo.iterations
            if sol_lo.status != qpcore.OPTIMAL:
                return _brake_fallback(
                    dyn, cfg, INFEASIBLE,
                    {"qp": sol_lo.status, "stage": f"level-{i + 1}-energy",
                     "blocking": sol_lo.infeasible_constraint})
            # the penalty stage's s is exact when a constraint pins it but
            # biased low when its conditioning term does; bisect the true
            # feasibility boundary
            s_hi = 1.0
            for _ in range(10):
                if s_hi - s_lo <= 1e-3:
                    break
                mid = 0.5 * (s_lo + s_hi)
                trial = _level_qp(*args, s_value=mid, maximize_s=False)
                stages += 1
                iterations += trial.iterations
                if trial.status == qpcore.OPTIMAL:
                    s_lo, sol_lo = mid, trial
                else:
                    s_hi = mid
            s_out[i] = s_lo
            sol = sol_lo
        qdd_i = sol.x[:n]
        qdd_blocks.append(qdd_i)
        frozen = frozen + projectors[i] @ qdd_i
        last_sol = sol

    tau = dyn.M @ frozen + comp
    active = {
        "torque": [int(j) for j in np.nonzero(
            (last_sol.ineq_duals_lower[:n] > 1e-9)
            | (last_sol.ineq_duals_upper[:n] > 1e-9))[0]],
        "limited_space": [int(j) for j in np.nonzero(
            (last_sol.ineq_duals_lower[n:] > 1e-9)
            | (last_sol.ineq_duals_upper[n:] > 1e-9))[0]],
    }
    return ControlOutput(tau=tau, qdd=frozen, s=s_out, status=OPTIMAL,
                         diagnostics={"stages": stages, "qp_iterations": iterations,
                                      "active": active, "kkt": last_sol.kkt,
                                      "qdd_aug": np.concatenate(qdd_blocks)})

