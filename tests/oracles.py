"""Independent oracles the test suite checks the library against.

Everything here is deliberately written on a different code path than the
library: forward kinematics through scipy Rotation composition, planar
two-link dynamics from the textbook closed forms, Jacobians by central
differences, a classical Runge-Kutta integrator for conservation studies, a
brute-force active-set enumeration for small QPs, a least-squares
null-space solve for its candidates and for QPs with equality rows only,
HiGHS linear programs for the largest feasible task scale and the largest
feasible step of a QP's equality right side, the DCTS cascade that solves
every bisection trial and the dual vectors of a solve built eagerly.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial.transform import Rotation

from dcts import qpcore, rbd, solvers


def fk_chain(model_dict: dict, q, frame: int | None = None):
    """Chained-transform forward kinematics straight from the model dict.

    Returns (position, rotation) of the requested link frame (default tool),
    composing rotations through scipy instead of the library's matrices.
    """
    joints = model_dict["joints"]
    R = Rotation.identity()
    p = np.zeros(3)
    for i, j in enumerate(joints):
        R_origin = Rotation.from_euler("xyz", j["origin_rpy"])
        p = p + R.apply(j["origin_xyz"])
        R = R * R_origin * Rotation.from_rotvec(np.asarray(j["axis"], float) * q[i])
        if frame == i:
            return p, R.as_matrix()
    tool = model_dict.get("tool", {"xyz": [0, 0, 0], "rpy": [0, 0, 0]})
    p = p + R.apply(tool["xyz"])
    R = R * Rotation.from_euler("xyz", tool["rpy"])
    return p, R.as_matrix()


def jacobian_fd(fk, q, h: float = 1e-6) -> np.ndarray:
    """Central-difference geometric Jacobian of a pose function fk(q)."""
    q = np.asarray(q, dtype=float)
    p0, R0 = fk(q)
    J = np.zeros((6, len(q)))
    for k in range(len(q)):
        dq = np.zeros(len(q))
        dq[k] = h
        pp, Rp = fk(q + dq)
        pm, Rm = fk(q - dq)
        J[:3, k] = (pp - pm) / (2 * h)
        dR = (Rp - Rm) / (2 * h) @ R0.T
        J[3:, k] = [dR[2, 1], dR[0, 2], dR[1, 0]]
    return J


# ---------------------------------------------------------------------------
# planar two-link arm with point masses at the link tips, gravity along -y


def twolink_mass(q, m1=1.0, m2=1.0, l1=1.0, l2=1.0) -> np.ndarray:
    c2 = np.cos(q[1])
    return np.array([
        [m1 * l1**2 + m2 * (l1**2 + 2 * l1 * l2 * c2 + l2**2),
         m2 * (l2**2 + l1 * l2 * c2)],
        [m2 * (l2**2 + l1 * l2 * c2), m2 * l2**2],
    ])


def twolink_bias(q, qd, m1=1.0, m2=1.0, l1=1.0, l2=1.0) -> np.ndarray:
    s2 = np.sin(q[1])
    h = m2 * l1 * l2 * s2
    return np.array([-h * (2 * qd[0] * qd[1] + qd[1] ** 2), h * qd[0] ** 2])


def twolink_gravity(q, m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=9.81) -> np.ndarray:
    c1 = np.cos(q[0])
    c12 = np.cos(q[0] + q[1])
    return np.array([
        g * (m1 * l1 * c1 + m2 * (l1 * c1 + l2 * c12)),
        g * m2 * l2 * c12,
    ])


def twolink_inverse_dynamics(q, qd, qdd, **kw) -> np.ndarray:
    return (twolink_mass(q, **{k: v for k, v in kw.items() if k != "g"}) @ qdd
            + twolink_bias(q, qd, **{k: v for k, v in kw.items() if k != "g"})
            + twolink_gravity(q, **kw))


# ---------------------------------------------------------------------------
# classical Runge-Kutta step of the library's forward dynamics


def rk4_step(model, state, tau, tau_ext, dt: float):
    """One RK4 step of qdd = forward_dynamics(q, qd, tau, tau_ext); the
    library integrates semi-implicitly, this fourth-order step checks energy
    conservation."""
    def f(q, qd):
        return qd, rbd.forward_dynamics(model, rbd.Kinematics(model, q), qd, tau, tau_ext)

    k1q, k1v = f(state.q, state.qd)
    k2q, k2v = f(state.q + 0.5 * dt * k1q, state.qd + 0.5 * dt * k1v)
    k3q, k3v = f(state.q + 0.5 * dt * k2q, state.qd + 0.5 * dt * k2v)
    k4q, k4v = f(state.q + dt * k3q, state.qd + dt * k3v)
    q = state.q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd = state.qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return rbd.JointState(q, qd)


# ---------------------------------------------------------------------------
# brute-force QP by active-set enumeration (for small dense problems)


def qp_brute_force(p, feas_tol: float = 1e-8):
    """Globally minimize a small QP by enumerating active sets.

    Returns (objective, x) or None when no feasible candidate exists. Every
    subset of the one-sided constraints (sized so the KKT system stays
    square-ish) is solved as equalities (``equality_qp_min``) and
    feasibility-checked; the best feasible stationary point over all
    subsets is the optimum.
    """
    d = p.dim
    rows = []
    for i in range(len(p.lower)):
        if np.isfinite(p.lower[i]):
            rows.append((p.Ain[i], p.lower[i]))
        if np.isfinite(p.upper[i]):
            rows.append((-p.Ain[i], -p.upper[i]))
    for j in range(d):
        if np.isfinite(p.lb[j]):
            e = np.zeros(d); e[j] = 1.0
            rows.append((e, p.lb[j]))
        if np.isfinite(p.ub[j]):
            e = np.zeros(d); e[j] = -1.0
            rows.append((e, -p.ub[j]))

    n_eq = len(p.beq)
    best = None
    for k in range(0, d - n_eq + 1):
        for combo in itertools.combinations(range(len(rows)), k):
            if n_eq or combo:
                A = np.vstack([p.Aeq] + [rows[i][0] for i in combo])
                b = np.concatenate([p.beq, [rows[i][1] for i in combo]])
            else:
                A = np.zeros((0, d))
                b = np.zeros(0)
            na = len(b)
            x = equality_qp_min(p.H, p.f, A, b)
            if na and np.abs(A @ x - b).max() > 1e-7:
                continue
            if any(c @ x - bb < -feas_tol for c, bb in rows):
                continue
            if n_eq and np.abs(p.Aeq @ x - p.beq).max() > feas_tol:
                continue
            val = p.objective(x)
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
    return best


def equality_qp_min(H, f, A, b) -> np.ndarray:
    """A minimizer of 1/2 x^T H x + f^T x on A x = b, from its KKT conditions
    solved on A's null space in least squares: the least-norm point x_p of
    A x = b (``np.linalg.lstsq``, dependent rows included), then the step
    Z w along an orthonormal basis Z of A's null space
    (``scipy.linalg.null_space``) that solves Z^T H Z w = -Z^T (H x_p + f).
    Unlike the full KKT matrix, neither system couples H with A, so nearly
    parallel rows cost only the conditioning of A. Inconsistent rows give
    their least-squares point."""
    d = len(f)
    x, Z = np.zeros(d), np.eye(d)
    if len(b):
        x, Z = np.linalg.lstsq(A, b, rcond=None)[0], null_space(A)
    if Z.shape[1]:
        x = x + Z @ np.linalg.lstsq(Z.T @ H @ Z, -Z.T @ (H @ x + f), rcond=None)[0]
    return x


def random_qp(rng: np.random.Generator):
    """A random small strictly convex QP with a mix of constraint kinds."""
    d = int(rng.integers(1, 7))
    r = int(rng.integers(0, 5))
    A0 = rng.normal(size=(d, d))
    H = A0 @ A0.T + 0.1 * np.eye(d)
    f = rng.normal(size=d)
    Ain = rng.normal(size=(r, d)) if r else None
    lower = -rng.uniform(0.5, 3, size=r) if r else None
    upper = rng.uniform(0.5, 3, size=r) if r else None
    lb = np.where(rng.random(d) < 0.3, -rng.uniform(0.2, 2, d), -np.inf)
    ub = np.where(rng.random(d) < 0.3, rng.uniform(0.2, 2, d), np.inf)
    return qpcore.QpProblem(H=H, f=f, Ain=Ain, lower=lower, upper=upper, lb=lb, ub=ub)


def qp_rows_per_row(p):
    """The QP row table built one row at a time: (C, b, kind, ref, n_eq).

    Each one-sided row c x >= b is divided by ``np.linalg.norm(c)`` and rows
    of zero norm or with an infinite side are left out; the order is
    equalities, then each Ain row's lower and upper side, then each
    variable's lower and upper bound. Kinds count 0..4 in that order.
    """
    d = p.dim
    rows_c, rows_b, kind, ref = [], [], [], []

    def add(c, b, k, r):
        s = float(np.linalg.norm(c))
        if s <= 0.0:
            return
        rows_c.append(c / s)
        rows_b.append(b / s)
        kind.append(k)
        ref.append((r, s))

    for i in range(len(p.beq)):
        add(p.Aeq[i], p.beq[i], 0, i)
    n_eq = len(rows_c)
    for i in range(len(p.lower)):
        if np.isfinite(p.lower[i]):
            add(p.Ain[i], p.lower[i], 1, i)
        if np.isfinite(p.upper[i]):
            add(-p.Ain[i], -p.upper[i], 2, i)
    for j in range(d):
        if np.isfinite(p.lb[j]):
            e = np.zeros(d); e[j] = 1.0
            add(e, p.lb[j], 3, j)
        if np.isfinite(p.ub[j]):
            e = np.zeros(d); e[j] = -1.0
            add(e, -p.ub[j], 4, j)
    C = np.asarray(rows_c) if rows_c else np.zeros((0, d))
    return C, np.asarray(rows_b), kind, ref, n_eq


def lp_max_scale(J, a_d, rhs0, M, tau_lo, tau_hi, acc_lo=None, acc_hi=None) -> float:
    """The largest s in [0, 1] for which some qdd meets J qdd = s a_d + rhs0,
    tau_lo <= M qdd <= tau_hi and, when given, acc_lo <= qdd <= acc_hi: a
    linear program over (qdd, s) solved by HiGHS. Raises if no s in [0, 1]
    is feasible."""
    m, n = J.shape
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    A_eq = np.hstack([J, -np.asarray(a_d, float)[:, None]])
    A_ub = np.vstack([np.hstack([M, np.zeros((n, 1))]), np.hstack([-M, np.zeros((n, 1))])])
    b_ub = np.concatenate([tau_hi, -np.asarray(tau_lo, float)])
    bounds = [(None, None)] * n if acc_lo is None else list(zip(acc_lo, acc_hi))
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=rhs0,
                  bounds=bounds + [(0.0, 1.0)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise ValueError(f"no feasible task scale: {res.message}")
    return float(res.x[n])


def lp_max_step(p, delta, t_max: float) -> float | None:
    """The largest t in [0, t_max] for which some x meets Aeq x = beq +
    t delta, lower <= Ain x <= upper and lb <= x <= ub of the QP ``p``: a
    linear program over (x, t) solved by HiGHS on the QP's own rows and
    sides. None if no t in [0, t_max] is feasible; raises if HiGHS fails."""
    d = p.dim
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    A_eq = np.hstack([p.Aeq, -np.asarray(delta, float)[:, None]])
    up, lo = np.isfinite(p.upper), np.isfinite(p.lower)
    A_ub = np.hstack([np.vstack([p.Ain[up], -p.Ain[lo]]), np.zeros((up.sum() + lo.sum(), 1))])
    b_ub = np.concatenate([p.upper[up], -p.lower[lo]])
    bounds = [(a if np.isfinite(a) else None, b if np.isfinite(b) else None)
              for a, b in zip(p.lb, p.ub)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=p.beq,
                  bounds=bounds + [(0.0, t_max)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return None
    if res.status != 0:
        raise ValueError(f"HiGHS failed: {res.message}")
    return float(res.x[d])


def qp_duals_eager(p, active, duals) -> list[np.ndarray]:
    """The five dual vectors [eq, ineq lower, ineq upper, bound lower, bound
    upper] of a solve that ended with ``active`` and ``duals``, built at
    once in one list as an eager reference for the vectors a ``QpSolution``
    builds on first read. Each row's place and norm come from ``p``'s own
    matrices and sides, in the order of ``qpcore``'s row table: equality
    rows of nonzero norm, then each inequality row's finite lower and upper
    side, then each variable's finite lower and upper bound."""
    m_eq, m_in, d = len(p.beq), len(p.lower), p.dim
    start = (0, m_eq, m_eq + m_in, m_eq + 2 * m_in, m_eq + 2 * m_in + d)
    rows = []                                   # (place in the duals, norm)
    for i, row in enumerate(p.Aeq):
        norm = np.linalg.norm(row)
        rows += [(start[0] + i, norm)] if norm > 0 else []
    for i, row in enumerate(p.Ain):
        norm = np.linalg.norm(row)
        rows += [(start[k] + i, norm) for k, side in ((1, p.lower[i]), (2, p.upper[i]))
                 if norm > 0 and np.isfinite(side)]
    for j in range(d):
        rows += [(start[k] + j, 1.0) for k, side in ((3, p.lb[j]), (4, p.ub[j]))
                 if np.isfinite(side)]
    out = [0.0] * (m_eq + 2 * (m_in + d))
    for pos, a_idx in enumerate(active):
        place, norm = rows[a_idx]
        out[place] += duals[pos] / norm
    out = np.array(out)
    return [out[:start[1]], out[start[1]:start[2]], out[start[2]:start[3]],
            out[start[3]:start[4]], out[start[4]:]]


def dcts_every_trial(model, state, tasks, limit_real, tau_ext, cfg, dyn):
    """``solvers.solve_dcts_multi`` with every bisection trial solved. Its
    outputs are the reference the cascade, which decides most trials from
    the level's feasibility limit, must reproduce byte for byte."""
    n = model.n
    k = len(tasks)
    projectors = solvers._nullspace_stack(tasks, dyn)
    minv_tau_ext = None
    if tau_ext is not None and np.any(tau_ext):
        minv_tau_ext = dyn.minv(np.asarray(tau_ext, float))
    comp = dyn.nu + dyn.g
    tau_lo = model.tau_min - comp
    tau_hi = model.tau_max - comp
    acc_lo = acc_hi = None
    if limit_real is not None:
        acc_lo, acc_hi = limit_real.bounds.acc_min, limit_real.bounds.acc_max

    frozen = np.zeros(n)
    s_out = np.ones(k)
    stages = iterations = 0
    last_qp = None

    def solve(problem):
        nonlocal stages, iterations, last_qp
        sol = qpcore.solve(problem)
        stages += 1
        iterations += sol.iterations
        last_qp = problem
        return sol

    for i, t in enumerate(tasks):
        rhs0 = -t.jdot_qd
        if minv_tau_ext is not None:
            rhs0 = rhs0 - t.J @ minv_tau_ext
        args = (dyn, t.J, t.a_d, rhs0, projectors[i], frozen, tau_lo, tau_hi, acc_lo, acc_hi,
                i == 0)
        fixed = solvers._level_qp(*args, maximize_s=False)
        sol = solve(fixed)
        if sol.status != qpcore.OPTIMAL:
            if sol.status == qpcore.MAX_ITER:
                return solvers._brake_fallback(
                    dyn, k, solvers.MAX_ITER, {"stage": f"level-{i + 1}-full", "last_qp": last_qp})
            sol = solve(solvers._level_qp(*args, maximize_s=True))
            if sol.status != qpcore.OPTIMAL:
                return solvers._brake_fallback(
                    dyn, k, solvers.INFEASIBLE,
                    {"qp": sol.status, "stage": f"level-{i + 1}-scale",
                     "blocking": sol.infeasible_constraint, "last_qp": last_qp})
            s_lo = float(np.clip(sol.x[n] - 1e-8, 0.0, 1.0))
            sol_lo = solve(fixed.with_beq(s_lo * t.a_d + rhs0))
            if sol_lo.status != qpcore.OPTIMAL:
                return solvers._brake_fallback(
                    dyn, k, solvers.INFEASIBLE,
                    {"qp": sol_lo.status, "stage": f"level-{i + 1}-energy",
                     "blocking": sol_lo.infeasible_constraint, "last_qp": last_qp})
            s_hi = 1.0
            for _ in range(10):
                if s_hi - s_lo <= 1e-3:
                    break
                mid = 0.5 * (s_lo + s_hi)
                trial = solve(fixed.with_beq(mid * t.a_d + rhs0))
                if trial.status == qpcore.OPTIMAL:
                    s_lo, sol_lo = mid, trial
                else:
                    s_hi = mid
            s_out[i] = s_lo
            sol = sol_lo
        frozen = frozen + projectors[i] @ sol.x[:n]

    tau = dyn.M @ frozen + comp
    return solvers.ControlOutput(
        tau=tau, qdd=frozen, s=s_out, status=solvers.OPTIMAL,
        diagnostics={"stages": stages, "qp_iterations": iterations, "last_qp": last_qp})
