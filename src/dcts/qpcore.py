"""Dense convex QP solver: min 1/2 x^T H x + f^T x over a polyhedron.

Problem shape:

    Aeq x = beq
    lower <= Ain x <= upper          (two-sided rows, +-inf allowed per side)
    lb <= x <= ub                    (box, +-inf allowed)

The solver is a dual active-set method (Goldfarb/Idnani): start at the
unconstrained optimum, force the equalities in, then repeatedly add the most
violated inequality, taking partial dual steps that drop blocking constraints.
No feasible starting point is needed and primal infeasibility surfaces as an
unbounded dual step, which yields a certificate-quality diagnostic (the
constraint that cannot be satisfied and its violation).

Iteration work is one dense KKT solve; problems here are tiny (tens of
variables), so no factorization updating is attempted. Determinism: constraint
entry picks the most violated row, ties broken by lowest index in the fixed
enumeration order (equalities, then Ain lower/upper per row, then bound
lower/upper per variable).

Sign convention for duals: at optimality

    H x + f = Aeq^T eq_duals + Ain^T (mu_lower - mu_upper)
                             + (nu_lower - nu_upper)

with all inequality duals >= 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

OPTIMAL, INFEASIBLE, MAX_ITER = "optimal", "infeasible", "max_iter"


class QpError(ValueError):
    """Raised for malformed problems or a Hessian that cannot be regularized."""


@dataclass
class QpProblem:
    H: np.ndarray
    f: np.ndarray
    Aeq: np.ndarray | None = None
    beq: np.ndarray | None = None
    Ain: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        d = self.dim
        if self.H.shape != (d, d):
            raise QpError(f"H must be ({d},{d}), got {self.H.shape}")
        if np.abs(self.H - self.H.T).max() > 1e-10 * max(1.0, np.abs(self.H).max()):
            raise QpError("H is not symmetric within 1e-10")
        self.H = 0.5 * (self.H + self.H.T)
        if self.Aeq is None:
            self.Aeq = np.zeros((0, d))
            self.beq = np.zeros(0)
        else:
            self.Aeq = np.atleast_2d(np.asarray(self.Aeq, dtype=float))
            self.beq = np.atleast_1d(np.asarray(self.beq, dtype=float))
            if self.Aeq.shape != (len(self.beq), d):
                raise QpError("Aeq/beq dimensions inconsistent")
        if self.Ain is None:
            self.Ain = np.zeros((0, d))
            self.lower = np.zeros(0)
            self.upper = np.zeros(0)
        else:
            self.Ain = np.atleast_2d(np.asarray(self.Ain, dtype=float))
            self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
            self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
            if self.Ain.shape != (len(self.lower), d) or len(self.lower) != len(self.upper):
                raise QpError("Ain/lower/upper dimensions inconsistent")
            if np.any(self.lower > self.upper):
                raise QpError("lower > upper on an inequality row")
        self.lb = np.full(d, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(d, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (d,) or self.ub.shape != (d,):
            raise QpError("lb/ub must match the variable dimension")
        if np.any(self.lb > self.ub):
            raise QpError("lb > ub on a variable")

    @property
    def dim(self) -> int:
        return len(self.f)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.f @ x)

    def to_json(self) -> str:
        enc = {k: np.asarray(getattr(self, k)).tolist()
               for k in ("H", "f", "Aeq", "beq", "Ain", "lower", "upper", "lb", "ub")}
        return json.dumps(enc)

    @classmethod
    def from_json(cls, text: str) -> "QpProblem":
        d = json.loads(text)
        arr = {k: np.asarray(v, dtype=float) for k, v in d.items()}
        for key in ("Aeq", "Ain"):
            if arr[key].size == 0:
                arr[key] = None
                arr["beq" if key == "Aeq" else "lower"] = None
                if key == "Ain":
                    arr["upper"] = None
        return cls(**arr)


def dump_problem(problem: QpProblem, path: str | Path) -> None:
    Path(path).write_text(problem.to_json())


@dataclass
class QpSolution:
    x: np.ndarray
    status: str
    iterations: int
    eq_duals: np.ndarray
    ineq_duals_lower: np.ndarray
    ineq_duals_upper: np.ndarray
    bound_duals_lower: np.ndarray
    bound_duals_upper: np.ndarray
    kkt: tuple[float, float, float]          # stationarity, primal, complementarity
    infeasible_constraint: str | None = None
    infeasible_violation: float = 0.0


# internal one-sided constraint table -----------------------------------------

_EQ, _IN_LO, _IN_HI, _BD_LO, _BD_HI = range(5)


def _build_rows(p: QpProblem):
    """Flatten to normalized one-sided rows c x >= b; equalities keep c x = b."""
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
        add(p.Aeq[i], p.beq[i], _EQ, i)
    n_eq = len(rows_c)
    for i in range(len(p.lower)):
        if np.isfinite(p.lower[i]):
            add(p.Ain[i], p.lower[i], _IN_LO, i)
        if np.isfinite(p.upper[i]):
            add(-p.Ain[i], -p.upper[i], _IN_HI, i)
    for j in range(d):
        if np.isfinite(p.lb[j]):
            e = np.zeros(d); e[j] = 1.0
            add(e, p.lb[j], _BD_LO, j)
        if np.isfinite(p.ub[j]):
            e = np.zeros(d); e[j] = -1.0
            add(e, -p.ub[j], _BD_HI, j)
    C = np.asarray(rows_c) if rows_c else np.zeros((0, d))
    return C, np.asarray(rows_b), kind, ref, n_eq


def _label(kind: int, ref) -> str:
    i = ref[0]
    return {_EQ: f"equality row {i}", _IN_LO: f"inequality row {i} (lower)",
            _IN_HI: f"inequality row {i} (upper)", _BD_LO: f"bound {i} (lower)",
            _BD_HI: f"bound {i} (upper)"}[kind]


def _factor_psd(H: np.ndarray):
    """Cholesky of H, regularizing a semidefinite Hessian by sigma = 1e-9 tr/d."""
    d = H.shape[0]
    try:
        return cho_factor(H, lower=True), H, 0.0
    except LinAlgError:
        pass
    sigma = 1e-9 * max(np.trace(H) / d, 1e-3)
    for _ in range(6):
        try:
            Hr = H + sigma * np.eye(d)
            return cho_factor(Hr, lower=True), Hr, sigma
        except LinAlgError:
            sigma *= 10.0
    raise QpError("Hessian is not positive semidefinite (regularization failed)")


def solve(p: QpProblem, tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Dual active-set solve. See the module docstring for conventions."""
    d = p.dim
    C, b, kind, ref, n_eq = _build_rows(p)
    n_rows = len(b)
    cho, Hs, _sigma = _factor_psd(p.H)

    x = cho_solve(cho, -p.f)
    active: list[int] = []
    duals: list[float] = []
    iterations = 0

    def direction(c: np.ndarray):
        """Solve [H N; N^T 0][z; -r] ... returns z (primal) and r (dual rates)."""
        if not active:
            return cho_solve(cho, c), np.zeros(0)
        N = C[active].T
        na = len(active)
        K = np.zeros((d + na, d + na))
        K[:d, :d] = Hs
        K[:d, d:] = N
        K[d:, :d] = N.T
        rhs = np.zeros(d + na)
        rhs[:d] = c
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        return sol[:d], sol[d:]

    exhausted = False

    def enter(idx: int) -> bool:
        """Bring constraint idx into the active set; False means infeasible."""
        nonlocal x, iterations, exhausted
        u_new = 0.0
        while iterations < max_iter:
            iterations += 1
            c = C[idx]
            s_val = float(c @ x - b[idx])
            z, r = direction(c)
            # step length limited by active inequality duals decreasing to zero
            t1, k1 = np.inf, -1
            for pos, a_idx in enumerate(active):
                if kind[a_idx] != _EQ and r[pos] > tol:
                    t = duals[pos] / r[pos]
                    if t < t1:
                        t1, k1 = t, pos
            reducible = float(c @ z) > 1e-11 * max(1.0, float(np.linalg.norm(z)))
            if not reducible:
                if not np.isfinite(t1):
                    return False
                t = t1
            else:
                t2 = -s_val / float(c @ z)
                t = min(t1, t2)
                x = x + t * z
            for pos in range(len(active)):
                duals[pos] -= t * r[pos]
            u_new += t
            if reducible and t == t2:
                active.append(idx)
                duals.append(u_new)
                return True
            # partial step: drop the blocking constraint and continue
            active.pop(k1)
            duals.pop(k1)
        exhausted = True
        return True

    # equalities first (forced, duals unrestricted)
    for e in range(n_eq):
        c = C[e]
        s_val = float(c @ x - b[e])
        if abs(s_val) <= tol:
            z, _ = direction(c)
            if float(c @ z) > 1e-11:
                active.append(e)
                duals.append(0.0)
            continue
        if s_val > 0:          # flip so the entering machinery reduces violation
            C[e] = -C[e]
            b[e] = -b[e]
            ref[e] = (ref[e][0], -ref[e][1])
        if not enter(e):
            return _finish(p, x, INFEASIBLE, iterations, C, b, kind, ref, active, duals,
                           bad=e, bad_violation=abs(s_val))

    while iterations < max_iter and not exhausted:
        slack = C[n_eq:] @ x - b[n_eq:] if n_rows > n_eq else np.zeros(0)
        for pos, a_idx in enumerate(active):
            if a_idx >= n_eq and slack[a_idx - n_eq] >= -tol:
                slack[a_idx - n_eq] = 0.0   # tight up to noise; ineligible to re-enter
        if len(slack) == 0 or slack.min() >= -tol:
            return _finish(p, x, OPTIMAL, iterations, C, b, kind, ref, active, duals)
        worst = int(np.argmin(slack)) + n_eq
        if worst in active:
            # an "active" row drifted loose (long degenerate exchanges); drop
            # it and let it re-enter through a fresh KKT solve
            pos = active.index(worst)
            active.pop(pos)
            duals.pop(pos)
            iterations += 1
            continue
        if not enter(worst):
            return _finish(p, x, INFEASIBLE, iterations, C, b, kind, ref, active, duals,
                           bad=worst, bad_violation=float(-slack[worst - n_eq]))
    return _finish(p, x, MAX_ITER, iterations, C, b, kind, ref, active, duals)


def _finish(p, x, status, iterations, C, b, kind, ref, active, duals,
            bad=None, bad_violation=0.0) -> QpSolution:
    eq = np.zeros(len(p.beq))
    in_lo = np.zeros(len(p.lower))
    in_hi = np.zeros(len(p.lower))
    bd_lo = np.zeros(p.dim)
    bd_hi = np.zeros(p.dim)
    for pos, a_idx in enumerate(active):
        i, scale = ref[a_idx]
        u = duals[pos] / abs(scale)
        k = kind[a_idx]
        if k == _EQ:
            eq[i] += u if scale > 0 else -u
        elif k == _IN_LO:
            in_lo[i] += u
        elif k == _IN_HI:
            in_hi[i] += u
        elif k == _BD_LO:
            bd_lo[i] += u
        else:
            bd_hi[i] += u
    sol = QpSolution(x=x.copy(), status=status, iterations=iterations,
                     eq_duals=eq, ineq_duals_lower=in_lo, ineq_duals_upper=in_hi,
                     bound_duals_lower=bd_lo, bound_duals_upper=bd_hi,
                     kkt=(np.nan, np.nan, np.nan))
    if bad is not None:
        sol.infeasible_constraint = _label(kind[bad], ref[bad])
        sol.infeasible_violation = bad_violation
    sol.kkt = kkt_residual(p, sol)
    return sol


def kkt_residual(p: QpProblem, s: QpSolution) -> tuple[float, float, float]:
    """(stationarity, primal feasibility, complementarity), recomputed from scratch."""
    x = s.x
    grad = p.H @ x + p.f
    grad -= p.Aeq.T @ s.eq_duals if len(s.eq_duals) else 0.0
    if len(s.ineq_duals_lower):
        grad -= p.Ain.T @ (s.ineq_duals_lower - s.ineq_duals_upper)
    grad -= s.bound_duals_lower - s.bound_duals_upper
    stationarity = float(np.abs(grad).max()) if len(grad) else 0.0

    viol = [0.0]
    comp = [0.0]
    if len(p.beq):
        viol.append(np.abs(p.Aeq @ x - p.beq).max())
    if len(p.lower):
        ax = p.Ain @ x
        lo_slack = np.where(np.isfinite(p.lower), ax - p.lower, np.inf)
        hi_slack = np.where(np.isfinite(p.upper), p.upper - ax, np.inf)
        viol.append(float(np.maximum(-lo_slack, 0).max()))
        viol.append(float(np.maximum(-hi_slack, 0).max()))
        comp.append(float(np.abs(s.ineq_duals_lower * np.where(np.isfinite(lo_slack), lo_slack, 0)).max()))
        comp.append(float(np.abs(s.ineq_duals_upper * np.where(np.isfinite(hi_slack), hi_slack, 0)).max()))
    lo_slack = np.where(np.isfinite(p.lb), x - p.lb, np.inf)
    hi_slack = np.where(np.isfinite(p.ub), p.ub - x, np.inf)
    viol.append(float(np.maximum(-lo_slack, 0).max()))
    viol.append(float(np.maximum(-hi_slack, 0).max()))
    comp.append(float(np.abs(s.bound_duals_lower * np.where(np.isfinite(lo_slack), lo_slack, 0)).max()))
    comp.append(float(np.abs(s.bound_duals_upper * np.where(np.isfinite(hi_slack), hi_slack, 0)).max()))
    return stationarity, max(viol), max(comp)
