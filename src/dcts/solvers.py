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
  torque box; they take no external torque argument, which is their
  documented flaw.
- DCTS solves min 1/2 tau'^T M^-1 tau' + priority-ordered scaling of the
  desired task accelerations, subject to the dynamics link tau = M qdd + nu
  + g, torque bounds, shaped joint-acceleration bounds and the per-level
  scaled task equalities with external-torque terms; multi-task stacks use
  dynamically consistent null-space projectors of the augmented Jacobians,
  qdd = sum_i N_i qdd_i.

Task scaling is resolved lexicographically: first try all s_i = 1; on
infeasibility maximize s_1, then s_2 given s_1, ..., and finally minimize the
acceleration energy with all s_i fixed. This realizes the w_i >> w_{i-1} >> 1
penalty ordering in the limit.

Every solver takes the same ``cfg``, a ``SolverConfig`` holding what a
scenario file or the CLI sets; the tuning values nothing sets are the module
constants below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from . import qpcore, rbd
from .limits import LimitRealization
from .tasks import TaskInstance

OPTIMAL, DEGRADED, INFEASIBLE, MAX_ITER = "optimal", "degraded", "infeasible", "max_iter"

SOLVER_NAMES = ("osc", "qp-mt", "qp-md", "dcts")


def solver_error(name: str, k: int) -> str | None:
    """Why solver ``name`` cannot run k tasks, or None; only DCTS runs a stack."""
    if name not in SOLVER_NAMES:
        return f"unknown solver {name!r}; valid: {', '.join(SOLVER_NAMES)}"
    if k > 1 and name != "dcts":
        return f"solver {name!r} takes one task, the scenario has {k}"
    return None


QP_MT_WEIGHT = 1e-3
QP_MD_WEIGHT = 1e-3
QP_MD_DAMPING = 10.0       # [1/s]
BRAKE_DAMPING = 10.0       # [1/s] infeasible-fallback braking


@dataclass
class SolverConfig:
    """The solver settings a scenario file or the CLI sets."""

    torque_regularizer: str = "about_gravity"   # | "plain"
    ext_force_in_bounds: bool = True

    def __post_init__(self):
        for f in fields(self):      # the annotation picks the rule
            v = getattr(self, f.name)
            if not isinstance(v, bool if f.type == "bool" else str):
                raise ValueError(f"{f.name}: invalid value {v!r}")
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


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only: one array per size for every tick."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _minv_tau_ext(dyn: rbd.ChainDynamics, tau_ext: np.ndarray | None) -> np.ndarray | None:
    """M^-1 tau_ext, or None when there is no external torque."""
    if tau_ext is None or not tau_ext.any():
        return None
    return dyn.minv(tau_ext)


def _osc_torque(dyn: rbd.ChainDynamics, task: TaskInstance, minv_tau_ext: np.ndarray | None,
                pinned: dict[int, float]) -> tuple[np.ndarray, bool]:
    """The OSC law of both OSC controllers: tau' and whether it damped a task
    inertia. ``pinned`` joints hold their accelerations at top priority."""
    J = task.J
    rhs = task.a_d - task.jdot_qd
    damped = False
    if pinned:
        n = dyn.model.n
        idx = sorted(pinned)
        Js = _identity(n)[idx]
        a_s = np.array([pinned[j] for j in idx])
        fac_s, Minv_Jst, damped = rbd.lambda_factor(Js, dyn.minv)
        tau_s = Js.T @ rbd.spd_solve(fac_s, a_s)
        # acceleration-space projector of the pinned rows: Js @ Ns = 0
        Ns = _identity(n) - Minv_Jst @ rbd.spd_solve(fac_s, Js)
        J = task.J @ Ns
        rhs = rhs - task.J @ dyn.minv(tau_s)
    if minv_tau_ext is not None:
        rhs = rhs - task.J @ minv_tau_ext
    factor, _, damped_task = rbd.lambda_factor(J, dyn.minv)
    tau_prime = J.T @ rbd.spd_solve(factor, rhs)
    if pinned:
        tau_prime = tau_s + tau_prime
    return tau_prime, damped or damped_task


def solve_osc(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
              tau_ext: np.ndarray | None, cfg: SolverConfig,
              dyn: rbd.ChainDynamics) -> ControlOutput:
    """Projector-based operational space control for a single task.

    The command achieves J M^-1 (tau - nu - g + tau_ext) = a_d - Jdot qd
    exactly (up to the linear solve) and minimizes the acceleration energy
    1/2 tau'^T M^-1 tau' over the task-consistent set.
    """
    minv_tau_ext = _minv_tau_ext(dyn, tau_ext)
    tau_prime, damped = _osc_torque(dyn, task, minv_tau_ext, {})
    qdd = dyn.minv(tau_prime)
    if minv_tau_ext is not None:
        qdd = qdd + minv_tau_ext
    return ControlOutput(tau=tau_prime + dyn.nu + dyn.g, qdd=qdd, s=np.ones(1),
                         status=DEGRADED if damped else OPTIMAL)


def solve_osc_saturated(model: rbd.RobotModel, state: rbd.JointState,
                        task: TaskInstance, limit_real: LimitRealization,
                        tau_ext: np.ndarray | None, cfg: SolverConfig,
                        dyn: rbd.ChainDynamics) -> ControlOutput:
    """Projector baseline: OSC + joint-saturation level + naive torque clamp.

    Joint accelerations that the shaped bounds forbid are pinned at the bound
    as a top-priority joint-space task; the original task runs through the
    dynamically consistent null-space projector of the pinned rows. The final
    command torque is clamped elementwise (no re-solve), which is exactly the
    failure mode this baseline is known for: when the clamp bites, neither the
    pinned accelerations nor the task acceleration are realized. Any pass
    that damps a task inertia makes the status ``degraded``.
    """
    minv_tau_ext = _minv_tau_ext(dyn, tau_ext)
    lo, hi = limit_real.bounds.acc_min, limit_real.bounds.acc_max
    pinned: dict[int, float] = {}
    degraded = False
    for _ in range(model.n + 1):
        tau_prime, damped = _osc_torque(dyn, task, minv_tau_ext, pinned)
        degraded = degraded or damped
        qdd_pred = dyn.minv(tau_prime)
        if minv_tau_ext is not None:
            qdd_pred = qdd_pred + minv_tau_ext
        below = lo - qdd_pred
        above = qdd_pred - hi
        margin = np.maximum(below, above)
        margin[list(pinned)] = -np.inf
        worst = int(np.argmax(margin))
        if margin[worst] <= 1e-9:
            break
        pinned[worst] = lo[worst] if below[worst] >= above[worst] else hi[worst]

    tau = tau_prime + dyn.nu + dyn.g
    tau_clamped = np.clip(tau, model.tau_min, model.tau_max)
    saturated = np.abs(tau - tau_clamped) > 1e-12
    qdd = dyn.minv(tau_clamped - dyn.nu - dyn.g)
    if minv_tau_ext is not None:
        qdd = qdd + minv_tau_ext
    return ControlOutput(tau=tau_clamped, qdd=qdd, s=np.ones(1),
                         status=DEGRADED if degraded else OPTIMAL,
                         diagnostics={"saturated": saturated})


# ---------------------------------------------------------------------------
# QP baselines


def _solve_qp_baseline(dyn: rbd.ChainDynamics, task: TaskInstance,
                       H_reg: np.ndarray, y_reg: np.ndarray, w: float) -> ControlOutput:
    """min ||J qdd - b||^2 + w ||H_reg qdd - y_reg||^2 s.t. torque box."""
    J, b = task.J, task.a_d - task.jdot_qd
    H = 2.0 * (J.T @ J + w * H_reg.T @ H_reg)
    f = -2.0 * (J.T @ b + w * H_reg.T @ y_reg)
    comp = dyn.nu + dyn.g
    problem = qpcore.QpProblem(H=H, f=f, Ain=dyn.M,
                               lower=dyn.model.tau_min - comp,
                               upper=dyn.model.tau_max - comp)
    sol = qpcore.solve(problem)
    if sol.status != qpcore.OPTIMAL:
        return _brake_fallback(dyn, 1, sol.status, {"qp": sol.status})
    qdd = sol.x
    tau = dyn.M @ qdd + comp
    return ControlOutput(tau=tau, qdd=qdd, s=np.ones(1), status=OPTIMAL,
                         diagnostics={"qp_iterations": sol.iterations})


def solve_qp_mt(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
                cfg: SolverConfig, dyn: rbd.ChainDynamics) -> ControlOutput:
    """QP baseline with a minimum-torque regularizer.

    By default the regularizer is centered at the gravity torque,
    ||tau - g||^2 = ||M qdd + nu||^2, so the comparison is not dominated by
    static gravity magnitude; torque_regularizer="plain" gives the bare
    ||tau||^2. The baseline takes no external torque: its task equation
    leaves tau_ext out.
    """
    y = -dyn.nu if cfg.torque_regularizer == "about_gravity" else -(dyn.nu + dyn.g)
    return _solve_qp_baseline(dyn, task, dyn.M, y, QP_MT_WEIGHT)


def solve_qp_md(model: rbd.RobotModel, state: rbd.JointState, task: TaskInstance,
                cfg: SolverConfig, dyn: rbd.ChainDynamics) -> ControlOutput:
    """QP baseline with a joint-space damping regularizer ||qdd + D qd||^2;
    like QP-MT it takes no external torque."""
    D = QP_MD_DAMPING * _identity(model.n)
    return _solve_qp_baseline(dyn, task, _identity(model.n), -(D @ state.qd),
                              QP_MD_WEIGHT)


# ---------------------------------------------------------------------------
# DCTS


def _brake_fallback(dyn: rbd.ChainDynamics, k: int, status: str,
                    diagnostics: dict) -> ControlOutput:
    """Safe braking command when the constrained problem has no solution;
    every one of the k task scales reads 0."""
    model = dyn.model
    brake = np.clip(dyn.M @ (-BRAKE_DAMPING * dyn.qd),
                    model.tau_min - dyn.g, model.tau_max - dyn.g)
    tau = np.clip(dyn.g + brake, model.tau_min, model.tau_max)
    qdd = dyn.minv(tau - dyn.nu - dyn.g)
    diagnostics = dict(diagnostics, fallback="braking")
    return ControlOutput(tau=tau, qdd=qdd, s=np.zeros(k), status=status,
                         diagnostics=diagnostics)


def _nullspace_stack(tasks: list[TaskInstance], dyn: rbd.ChainDynamics) -> list[np.ndarray]:
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
    projectors = [_identity(n)]
    for i in range(1, len(tasks)):
        J_aug = np.vstack([t.J for t in tasks[:i]])
        factor, Minv_Jt, _ = rbd.lambda_factor(J_aug, dyn.minv)
        jbar = Minv_Jt @ rbd.spd_solve(factor, _identity(J_aug.shape[0]))
        projectors.append(_identity(n) - jbar @ J_aug)
    return projectors


def _level_qp(dyn, J_i, a_d, rhs0, N_i, frozen, tau_lo, tau_hi,
              acc_lo, acc_hi, top, maximize_s):
    """The QP of one level of the per-level cascade.

    Variables are the level's own acceleration qdd_i (plus its scale when
    ``maximize_s``). The level contributes N_i qdd_i on top of the frozen
    contribution of the higher levels; torque and joint-acceleration rows
    bound the total. With ``maximize_s`` the objective is (1 - s)^2 plus a small energy
    term for conditioning. Otherwise the objective is the total acceleration
    energy and the task equality is J_i qdd_i = s a_d + rhs0, built at s = 1;
    the other stages set their s through ``with_beq``. Below the ``top``
    level N_i is a singular projector; there, and with ``maximize_s``, the
    energy Hessian is regularized.
    """
    n = N_i.shape[0]
    MN = dyn.M @ N_i
    Hq = N_i.T @ MN
    if maximize_s or not top:
        Hq = Hq + (1e-9 * max(dyn.M.trace() / n, 1.0)) * _identity(n)
    tau_frozen = dyn.M @ frozen
    f = N_i.T @ tau_frozen
    # torque rows on M N_i, then the shaped acceleration rows on N_i
    Ain = np.concatenate([MN, N_i])
    lower = np.concatenate([tau_lo - tau_frozen, acc_lo - frozen])
    upper = np.concatenate([tau_hi - tau_frozen, acc_hi - frozen])
    if not maximize_s:
        return qpcore.QpProblem(H=Hq, f=f, Aeq=J_i, beq=a_d + rhs0, Ain=Ain,
                                lower=lower, upper=upper)
    # the scale is one more variable, in [0, 1], on no inequality row
    H = np.zeros((n + 1, n + 1))
    H[:n, :n] = 1e-4 * Hq
    H[n, n] = 2.0
    return qpcore.QpProblem(H=H, f=np.append(1e-4 * f, -2.0), Aeq=np.column_stack([J_i, -a_d]),
                            beq=rhs0, Ain=np.column_stack([Ain, np.zeros(2 * n)]),
                            lower=lower, upper=upper, lb=np.append(np.full(n, -np.inf), 0.0),
                            ub=np.append(np.full(n, np.inf), 1.0))


def solve_dcts_multi(model: rbd.RobotModel, state: rbd.JointState,
                     tasks: list[TaskInstance],
                     limit_real: LimitRealization,
                     tau_ext: np.ndarray | None, cfg: SolverConfig,
                     dyn: rbd.ChainDynamics) -> ControlOutput:
    """Dynamically consistent constrained task hierarchy solve, k >= 1 tasks.

    The hierarchy is resolved level by level: each
    priority level solves its own QP over (qdd_i, s_i) with the contributions
    of the higher levels frozen, the task equality on its own block, and the
    torque and shaped-bound rows applied to the accumulated acceleration.
    Per level: try s_i = 1; if infeasible, maximize s_i and re-minimize the
    acceleration energy at the fixed scale. Freezing higher levels is what
    realizes the strict hierarchy: a lower level can neither disturb nor
    trade away anything the levels above already claimed.

    ``diagnostics["last_qp"]`` is the last stage the cascade decided, on
    every return: a solved problem, or the last bisection trial, solved or
    decided from the level's limit (``qpcore.sweep``). ``stages`` and
    ``qp_iterations`` count the solves that ran.
    """
    if not tasks:
        raise ValueError("need at least one task")
    if any(a.priority > b.priority for a, b in zip(tasks, tasks[1:])):
        raise ValueError("tasks must be sorted by priority (1 = highest)")
    n = model.n
    k = len(tasks)
    projectors = _nullspace_stack(tasks, dyn)
    minv_tau_ext = _minv_tau_ext(dyn, tau_ext)
    comp = dyn.nu + dyn.g
    tau_lo = model.tau_min - comp
    tau_hi = model.tau_max - comp
    acc_lo, acc_hi = limit_real.bounds.acc_min, limit_real.bounds.acc_max

    frozen = np.zeros(n)
    s_out = np.ones(k)
    stages = iterations = 0
    last_qp = None

    def solve(problem: qpcore.QpProblem) -> qpcore.QpSolution:
        """Solve one stage of the cascade, count it and keep its problem."""
        nonlocal stages, iterations, last_qp
        sol = qpcore.solve(problem)
        stages += 1
        iterations += sol.iterations
        last_qp = problem
        return sol

    def trial(s: float) -> qpcore.QpSolution:
        """Solve the s-pinned stage of the level at hand at scale s."""
        return solve(fixed.with_beq(s * t.a_d + rhs0))

    def bisect(s_lo: float, s_max: float | None):
        """Bisect the level's s-pinned family for its largest feasible scale
        above s_lo. With no limit s_max every trial is solved; otherwise the
        limit decides every trial, and only the trial kept and the lowest
        trial decided infeasible are solved. Returns the kept scale, the
        solution of its solve or None, and the last trial's scale or None;
        None if either solve contradicts s_max."""
        start, s_hi, kept, mid = s_lo, 1.0, None, None
        while s_hi - s_lo > 1e-3:       # at most 10 trials
            mid = 0.5 * (s_lo + s_hi)
            if s_max is None:
                solved = trial(mid)
                feasible = solved.status == qpcore.OPTIMAL
            else:
                feasible, solved = mid < s_max, None
            if feasible:
                s_lo, kept = mid, solved
            else:
                s_hi = mid
        if s_max is None:
            return s_lo, kept, mid
        kept = trial(s_lo) if s_lo != start else None
        if (kept is not None and kept.status != qpcore.OPTIMAL
                or s_hi < 1.0 and trial(s_hi).status == qpcore.OPTIMAL):
            return None
        return s_lo, kept, mid

    def brake(stage: str, sol: qpcore.QpSolution) -> ControlOutput:
        """Brake after ``stage`` of the level at hand failed to solve."""
        diagnostics = {"stage": f"level-{i + 1}-{stage}", "last_qp": last_qp}
        if stage != "full":
            diagnostics.update(qp=sol.status, blocking=sol.infeasible_constraint)
        return _brake_fallback(dyn, k, MAX_ITER if stage == "full" else INFEASIBLE, diagnostics)

    for i, t in enumerate(tasks):
        rhs0 = -t.jdot_qd
        if minv_tau_ext is not None:
            rhs0 = rhs0 - t.J @ minv_tau_ext
        args = (dyn, t.J, t.a_d, rhs0, projectors[i], frozen,
                tau_lo, tau_hi, acc_lo, acc_hi, i == 0)
        # the s-pinned stages differ only in beq = s a_d + rhs0
        fixed = _level_qp(*args, maximize_s=False)
        sol = solve(fixed)
        if sol.status == qpcore.MAX_ITER:
            return brake("full", sol)
        if sol.status != qpcore.OPTIMAL:
            sol = solve(_level_qp(*args, maximize_s=True))
            if sol.status != qpcore.OPTIMAL:
                return brake("scale", sol)
            # back off by the solver tolerance so the pinned-scale re-solve
            # stays strictly feasible
            s_lo = min(max(sol.x[n].item() - 1e-8, 0.0), 1.0)
            sol = trial(s_lo)
            if sol.status != qpcore.OPTIMAL:
                return brake("energy", sol)
            # the penalty stage's s is exact when a constraint pins it but
            # biased low when its conditioning term does: bisect the true
            # boundary from the level's exact limit (swept from the stage
            # just solved, last_qp), solving every trial again if a solve
            # contradicts the limit
            limit = qpcore.sweep(last_qp, sol, t.a_d)
            decided = None if limit is None else bisect(s_lo, s_lo + limit)
            s, kept, last = decided or bisect(s_lo, None)
            if kept is not None:
                sol = kept
            if last is not None:
                last_qp = fixed.with_beq(last * t.a_d + rhs0)
            s_out[i] = s
        frozen = frozen + projectors[i] @ sol.x[:n]

    tau = dyn.M @ frozen + comp
    return ControlOutput(tau=tau, qdd=frozen, s=s_out, status=OPTIMAL,
                         diagnostics={"stages": stages, "qp_iterations": iterations,
                                      "last_qp": last_qp})
