"""Dense convex QP solver: min 1/2 x^T H x + f^T x over a polyhedron.

Problem shape:

    Aeq x = beq
    lower <= Ain x <= upper          (two-sided rows, +-inf allowed per side)
    lb <= x <= ub                    (box, +-inf allowed)

The solver is a dual active-set method (Goldfarb/Idnani): start at the
equality-constrained optimum, one KKT solve over the independent equality
rows (``_independent_rows``) that counts as one iteration, then repeatedly
add the most violated inequality, taking partial dual steps that drop
blocking constraints. Every equality row must hold at the start, or the
solve ends infeasible naming it. No feasible starting point is needed and
primal infeasibility surfaces as an unbounded dual step, which yields a
certificate-quality diagnostic (the constraint that cannot be satisfied and
its violation).

Iteration work is one dense KKT solve; problems here are tiny (tens of
variables), so no factorization updating is attempted. A step direction
depends on the active set and the entering row, never on ``beq``, so the
problems ``with_beq`` derives from one constructed problem (a *family*) share
every direction they solve, in one dict; a hit returns the bytes the solve
would have produced. Determinism: constraint entry picks the most violated
row, ties broken by lowest index in the fixed enumeration order (equalities,
then Ain lower/upper per row, then bound lower/upper per variable).

Sign convention for duals: at optimality

    H x + f = Aeq^T eq_duals + Ain^T (mu_lower - mu_upper)
                             + (nu_lower - nu_upper)

with all inequality duals >= 0.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgeqrf

from .rbd import lu_solve, spd_factor, spd_solve

OPTIMAL, INFEASIBLE, MAX_ITER = "optimal", "infeasible", "max_iter"
SWEEP_STEPS = 50        # a sweep that has not ended after this many steps returns no limit
SWEEP_CHECK = 1e-7      # the most a sweep's point at its limit may miss a row by
EQ_RANK_FLOOR = 1e-9    # a unit equality row this close to the span of the kept rows is dependent


class QpError(ValueError):
    """Raised for malformed problems or a Hessian that cannot be regularized."""


@dataclass
class QpProblem:
    """A checked problem with its row table and Hessian factor built once.

    ``solve`` uses the table and factor built at construction, so the fields
    are not to be changed afterwards. ``with_beq`` gives the same problem with
    another equality right side and shares both, and the directions its
    solves compute, so a cascade that only moves ``beq`` builds and solves
    each of them once.

    Every array must be free of NaN; ``H``, ``f``, ``Aeq``, ``beq`` and
    ``Ain`` must be finite, while the sides ``lower``, ``upper``, ``lb`` and
    ``ub`` take +-inf for a missing side.
    """

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
        # the usual case in two tests: a finite sum has no NaN or inf term,
        # and the sides may hold inf but no NaN; otherwise find the field
        finite = [self.H.ravel(), self.f, self.Aeq.ravel(), self.beq, self.Ain.ravel()]
        if not (math.isfinite(np.concatenate(finite).sum()) and not np.isnan(
                np.concatenate([self.lower, self.upper, self.lb, self.ub])).any()):
            for name in _FIELDS:
                _check_values(name, getattr(self, name))
        if np.abs(self.H - self.H.T).max() > 1e-10 * max(1.0, np.abs(self.H).max()):
            raise QpError("H is not symmetric within 1e-10")
        self.H = 0.5 * (self.H + self.H.T)
        self._rows = _build_rows(self)
        self._factor = _factor_psd(self.H)
        # (active, entering row) -> direction; see _direction
        self._directions = {}

    def with_beq(self, beq) -> "QpProblem":
        """This problem with equality right side ``beq``, sharing the row table,
        Hessian factor and solved directions; only the normalized equality
        sides are recomputed."""
        beq = np.asarray(beq, dtype=float)
        if beq.shape != self.beq.shape:
            raise QpError(f"beq must have shape {self.beq.shape}, got {beq.shape}")
        _check_values("beq", beq)
        rows = self._rows
        b = rows.b.copy()
        b[:rows.n_eq] = beq[rows.eq_index] / rows.eq_norm
        b.flags.writeable = False
        problem = object.__new__(type(self))
        problem.__dict__.update(self.__dict__)
        problem.beq = beq
        problem._rows = rows._replace(b=b)
        return problem

    @property
    def dim(self) -> int:
        return len(self.f)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.f @ x)

    def to_json(self) -> str:
        enc = {k: np.asarray(getattr(self, k)).tolist() for k in _FIELDS}
        return json.dumps(enc)

    @classmethod
    def from_json(cls, text: str) -> "QpProblem":
        arr = {k: np.asarray(v, dtype=float) for k, v in json.loads(text).items()}
        for key, sides in (("Aeq", ("beq",)), ("Ain", ("lower", "upper"))):
            if arr[key].size == 0:      # an empty block is given as None
                arr.update(dict.fromkeys((key, *sides)))
        return cls(**arr)


_FIELDS = ("H", "f", "Aeq", "beq", "Ain", "lower", "upper", "lb", "ub")
_SIDES = ("lower", "upper", "lb", "ub")


def _check_values(name: str, a: np.ndarray) -> None:
    """QpError naming ``name`` if ``a`` holds a NaN, or an inf outside the sides."""
    if name in _SIDES:
        if np.isnan(a).any():
            raise QpError(f"{name} holds NaN")
    elif not np.isfinite(a).all():
        raise QpError(f"{name} must be finite")


def dump_problem(problem: QpProblem, path: str | Path) -> None:
    Path(path).write_text(problem.to_json())


_DUALS = ("eq_duals", "ineq_duals_lower", "ineq_duals_upper", "bound_duals_lower",
          "bound_duals_upper")


@dataclass
class QpSolution:
    """One solve's result. ``solve`` leaves the five dual vectors unbuilt and
    builds them on first read (the controllers never read them); a solution
    built with explicit duals holds them as given. A solution of ``solve``
    keeps the active set and multipliers its loop ended with, which
    ``sweep`` starts from."""

    x: np.ndarray
    status: str
    iterations: int
    eq_duals: np.ndarray
    ineq_duals_lower: np.ndarray
    ineq_duals_upper: np.ndarray
    bound_duals_lower: np.ndarray
    bound_duals_upper: np.ndarray
    infeasible_constraint: str | None = None
    infeasible_violation: float = 0.0

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: an unbuilt dual
        pending = self.__dict__.get("_pending") if name in _DUALS else None
        if pending is None:
            raise AttributeError(name)
        self.__dict__.update(zip(_DUALS, _dual_vectors(*pending)))
        return self.__dict__[name]


# internal one-sided constraint table -----------------------------------------

_EQ, _IN_LO, _IN_HI, _BD_LO, _BD_HI = range(5)


class _Rows(NamedTuple):
    """Normalized one-sided rows c x >= b: the first n_eq keep c x = b, the
    rest are inequalities. ``C`` and ``b`` are read-only: a family shares
    ``C``, and solves and sweeps only read them."""

    C: np.ndarray
    b: np.ndarray
    n_eq: int
    eq_index: np.ndarray         # source row of each equality row
    eq_norm: np.ndarray
    eq_keep: tuple               # the independent equality rows, see _independent_rows
    sources: tuple               # (in_i, in_side, in_norm, bd_j, bd_side), see _row_info


def _build_rows(p: QpProblem) -> _Rows:
    """Flatten to normalized one-sided rows c x >= b; equalities keep c x = b.

    Order: equalities, then each Ain row's lower and upper side, then each
    variable's lower and upper bound. Rows with zero norm or an infinite side
    are left out. Each norm is one ``np.vecdot`` (the bytes of ``r.dot(r)``)
    and a square root, rounded as ``np.linalg.norm`` rounds it. The equality
    and Ain rows take one division: an upper side divides by the negated
    norm, which gives the bytes of negating the quotient. Bound rows are unit
    rows.
    """
    eq_norm = np.sqrt(np.vecdot(p.Aeq, p.Aeq))
    in_norm = np.sqrt(np.vecdot(p.Ain, p.Ain))
    eq_index = np.flatnonzero(eq_norm > 0.0)
    eq_norm = eq_norm[eq_index]
    sides = np.array([p.lower, p.upper]).T
    in_i, in_side = np.nonzero(np.isfinite(sides) & (in_norm > 0.0)[:, None])
    in_scale = in_norm[in_i]
    scale = np.concatenate([eq_norm, np.where(in_side, -in_scale, in_scale)])
    bounds = np.array([p.lb, -p.ub]).T
    bd_j, bd_side = np.nonzero(np.isfinite(bounds))
    C = np.concatenate([np.concatenate([p.Aeq[eq_index], p.Ain[in_i]]) / scale[:, None],
                        _unit_rows(p.dim)[bd_j, bd_side]])
    b = np.concatenate([np.concatenate([p.beq[eq_index], sides[in_i, in_side]]) / scale,
                        bounds[bd_j, bd_side]])
    C.flags.writeable = b.flags.writeable = False
    return _Rows(C, b, len(eq_index), eq_index, eq_norm, _independent_rows(C[:len(eq_index)]),
                 (in_i, in_side, in_scale, bd_j, bd_side))


def _independent_rows(C_eq: np.ndarray) -> tuple:
    """The rows of ``C_eq`` kept in table order: each whose R diagonal, its
    distance from the span of the kept rows before it, exceeds EQ_RANK_FLOOR
    in the QR factorization (LAPACK geqrf) of the kept rows. R of a prefix
    does not depend on the rows after it, so each factorization decides the
    rows up to the first one left out; at most as many rows as variables
    are kept."""
    keep = list(range(len(C_eq)))
    first = 0
    while keep:
        r = np.abs(np.diagonal(dgeqrf(C_eq[keep].T)[0]))
        low = np.flatnonzero(r[first:] <= EQ_RANK_FLOOR)
        if not len(low):
            break
        first += int(low[0])
        del keep[first]
    return tuple(keep[:C_eq.shape[1]])


def _row_info(rows: _Rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kind, source index, norm) of each row, norm 1 for a bound row; built
    only for a label or the duals."""
    in_i, in_side, in_norm, bd_j, bd_side = rows.sources
    return (np.concatenate([np.full(rows.n_eq, _EQ), _IN_LO + in_side, _BD_LO + bd_side]),
            np.concatenate([rows.eq_index, in_i, bd_j]),
            np.concatenate([rows.eq_norm, in_norm, np.ones(len(bd_j))]))


@functools.cache
def _unit_rows(d: int) -> np.ndarray:
    """[j, side]: the bound rows e_j and 0.0 - e_j of d variables, read-only."""
    eye = np.eye(d)
    rows = np.stack([eye, 0.0 - eye], axis=1)
    rows.flags.writeable = False
    return rows


def _label(rows: _Rows, idx: int) -> str:
    kind, i, _ = (a[idx].item() for a in _row_info(rows))
    return {_EQ: f"equality row {i}", _IN_LO: f"inequality row {i} (lower)",
            _IN_HI: f"inequality row {i} (upper)", _BD_LO: f"bound {i} (lower)",
            _BD_HI: f"bound {i} (upper)"}[kind]


def _factor_psd(H: np.ndarray):
    """Cholesky of H, regularizing a semidefinite Hessian by sigma = 1e-9 tr/d."""
    d = H.shape[0]
    try:
        return spd_factor(H), H, 0.0
    except LinAlgError:
        pass
    sigma = 1e-9 * max(np.trace(H) / d, 1e-3)
    for _ in range(6):
        try:
            Hr = H + sigma * np.eye(d)
            return spd_factor(Hr), Hr, sigma
        except LinAlgError:
            sigma *= 10.0
    raise QpError("Hessian is not positive semidefinite (regularization failed)")


def _kkt_solve(Hs: np.ndarray, N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of [Hs N; N^T 0] y = rhs, in least squares if singular."""
    d, na = N.shape
    K = np.zeros((d + na, d + na))
    K[:d, :d] = Hs
    K[:d, d:] = N
    K[d:, :d] = N.T
    try:
        return lu_solve(K, rhs)
    except LinAlgError:
        return np.linalg.lstsq(K, rhs, rcond=None)[0]


def _direction(p: QpProblem, active: list, idx: int):
    """(z, r, c z, |z|) of [H N; N^T 0][z; r] = [c; 0] for c = C[idx] and
    N = C[active]^T of ``p``'s rows C, so c = H z + sum_j r_j C[active[j]]:
    z primal (read-only), r the dual rates as a list. It is fixed by
    C[active], C[idx] and K's column order, so by the active list and the
    entering row: the key of the family's shared dict."""
    cache = p._directions
    key = (tuple(active), idx)
    hit = cache.get(key)
    if hit is not None:
        return hit
    C = p._rows.C
    c = C[idx]
    d = p.dim
    if not active:
        z, r = spd_solve(p._factor[0], c), []
    else:
        rhs = np.zeros(d + len(active))
        rhs[:d] = c
        y = _kkt_solve(p._factor[1], C[active].T, rhs)
        z, r = y[:d], y[d:].tolist()
    z.flags.writeable = False
    # z.dot(z) and its square root round as np.linalg.norm(z) does
    hit = cache[key] = z, r, float(c @ z), math.sqrt(z.dot(z))
    return hit


def solve(p: QpProblem, tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Dual active-set solve. See the module docstring for conventions."""
    d = p.dim
    rows = p._rows
    C, b, n_eq = rows.C, rows.b, rows.n_eq
    C_in, b_in = C[n_eq:], b[n_eq:]

    active = list(rows.eq_keep)
    if active:
        # the equality-constrained optimum, with multipliers u = -y[d:]; a
        # point off its rows by more than rounding, as nearly parallel rows
        # leave it, takes one step of iterative refinement
        Hs, N = p._factor[1], C[active].T
        y = _kkt_solve(Hs, N, np.concatenate([-p.f, b[active]]))
        off = N.T @ y[:d] - b[active]
        if np.abs(off).max() > 1e-12:
            y -= _kkt_solve(Hs, N, np.concatenate([Hs @ y[:d] + N @ y[d:] + p.f, off]))
        x, duals, iterations = y[:d], (-y[d:]).tolist(), 1
    else:
        x = spd_solve(p._factor[0], -p.f)
        duals, iterations = [], 0
    exhausted = False

    def enter(idx: int) -> bool:
        """Bring constraint idx into the active set; False means infeasible."""
        nonlocal x, iterations, exhausted
        u_new = 0.0
        c, b_idx = C[idx], b[idx]
        while iterations < max_iter:
            iterations += 1
            s_val = float(c @ x - b_idx)
            if not math.isfinite(s_val):    # a step overflowed x: no finite point
                return False
            z, r, cz, z_norm = _direction(p, active, idx)
            # step length limited by active inequality duals decreasing to zero
            t1, k1 = math.inf, -1
            for pos, a_idx in enumerate(active):
                if a_idx >= n_eq and r[pos] > tol:
                    t = duals[pos] / r[pos]
                    if t < t1:
                        t1, k1 = t, pos
            # with d rows active the entering row lies in their span, and its
            # c z is rounding noise, not a step
            reducible = len(active) < d and cz > 1e-11 * max(1.0, z_norm)
            if not reducible:
                if k1 < 0:
                    return False
                t = t1
            else:
                t2 = -s_val / cz
                t = min(t1, t2)
                x = x + t * z
            for pos, rate in enumerate(r):
                duals[pos] -= t * rate
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

    def finish(status: str, bad: int | None = None, violation: float = 0.0) -> QpSolution:
        sol = object.__new__(QpSolution)
        sol.__dict__.update(x=x.copy(), status=status, iterations=iterations,
                            _pending=(p, active, duals))
        if bad is not None:
            sol.infeasible_constraint = _label(rows, bad)
            sol.infeasible_violation = violation
        return sol

    if n_eq:
        # every equality row, kept or dependent, holds at the start, or none can
        miss = np.abs(C[:n_eq] @ x - b[:n_eq])
        bad = np.flatnonzero(~(miss <= tol))
        if len(bad):
            return finish(INFEASIBLE, int(bad[0]), float(miss[bad[0]]))

    while iterations < max_iter and not exhausted:
        slack = C_in @ x - b_in
        for a_idx in active:
            if a_idx >= n_eq and slack[a_idx - n_eq] >= -tol:
                slack[a_idx - n_eq] = 0.0   # tight up to noise; ineligible to re-enter
        worst = int(slack.argmin()) if len(slack) else -1
        if worst < 0 or slack[worst] >= -tol:
            return finish(OPTIMAL)
        worst += n_eq
        if worst in active:
            # an "active" row drifted loose (long degenerate exchanges); drop
            # it and let it re-enter through a fresh KKT solve
            pos = active.index(worst)
            active.pop(pos)
            duals.pop(pos)
            iterations += 1
            continue
        if not enter(worst):
            return finish(INFEASIBLE, worst, float(-slack[worst - n_eq]))
    return finish(MAX_ITER)


def _dual_vectors(p, active, duals) -> list[np.ndarray]:
    """The five dual vectors of a solve that ended with ``active`` and ``duals``."""
    kind, index, norm = (a.tolist() for a in _row_info(p._rows))
    m_eq, m_in, d = len(p.beq), len(p.lower), p.dim
    # where each kind's duals start in [eq, in_lo, in_hi, bd_lo, bd_hi]
    start = (0, m_eq, m_eq + m_in, m_eq + 2 * m_in, m_eq + 2 * m_in + d)
    out = [0.0] * (m_eq + 2 * (m_in + d))
    for pos, a_idx in enumerate(active):
        out[start[kind[a_idx]] + index[a_idx]] += duals[pos] / norm[a_idx]
    out = np.array(out)
    return [out[a:b] for a, b in zip(start, (*start[1:], len(out)))]


def sweep(p: QpProblem, sol: QpSolution, delta: np.ndarray) -> float | None:
    """The largest t at which ``p``'s family member with equality right side
    ``p.beq + t delta`` is feasible; None when an equality row is not
    active, no row ever blocks, SWEEP_STEPS steps run out or x at the limit
    misses a row by more than SWEEP_CHECK.

    From the active set and multipliers of ``sol``, an optimal solve of
    ``p``, it follows the optimum x(t), piecewise affine in t (parametric
    active set, as in qpOASES). Each step solves the active set's KKT system
    for the rates of x and the multipliers and goes until an inactive row's
    slack (primal ratio test) or an active inequality multiplier (dual
    ratio test) reaches zero: the row c enters, or the multiplier's row leaves.
    A step that would leave x more than 1e-10 off the active rows, as a
    solve on nearly parallel active rows can, is taken again after one step
    of iterative refinement of the solve. A blocking row c enters only when
    c z, which equals z^T H z for its direction z in exact arithmetic,
    agrees with z^T H z to within half; otherwise c z is rounding noise and
    c lies in the span of the active rows, c = sum_j r_j c_j by its
    direction. If an inequality r_j is positive (relative to the largest),
    c replaces the row whose u_j - sigma r_j first reaches zero; if none is,
    every feasible x has c x <= sum_j r_j b_j(t), which the path meets here
    and which falls below c's side beyond: t is the limit."""
    rows = p._rows
    C, b, n_eq, d = rows.C, rows.b, rows.n_eq, p.dim
    _, active, duals = sol._pending
    if active[:n_eq] != list(range(n_eq)):
        return None
    active, duals = list(active), list(duals)
    # only the equality sides move with t, by delta_i / norm
    db = np.zeros(len(b))
    db[:n_eq] = np.asarray(delta, dtype=float)[rows.eq_index] / rows.eq_norm
    Hs = p._factor[1]
    x, t = sol.x, 0.0
    for _ in range(SWEEP_STEPS):
        N = C[active].T
        rhs = np.zeros(d + len(active))
        rhs[d:] = db[active]
        y = _kkt_solve(Hs, N, rhs)
        for refined in (False, True):
            dx, du = y[:d], (-y[d:]).tolist()
            rate = C @ dx - db
            miss = rate[active]
            rate[active] = 0.0
            blocking = np.flatnonzero(rate < -1e-11 * max(1.0, math.sqrt(dx.dot(dx))))
            steps = np.maximum(C[blocking] @ x - (b + t * db)[blocking], 0.0) / -rate[blocking]
            t_row, k = min(zip(steps.tolist(), blocking.tolist()), default=(math.inf, -1))
            floor = -1e-11 * max(1.0, max(map(abs, du), default=0.0))
            t_dual, drop = min(((max(u, 0.0) / -v, pos)
                                for pos, (u, v) in enumerate(zip(duals, du))
                                if active[pos] >= n_eq and v < floor), default=(math.inf, -1))
            step = min(t_row, t_dual)
            # the step leaves x off the active rows by step times the solve's
            # miss of their rates, which nearly parallel rows make large:
            # past 1e-10, one step of iterative refinement and a new step
            if refined or step == math.inf or step * np.abs(miss).max(initial=0.0) <= 1e-10:
                break
            y -= _kkt_solve(Hs, N, np.concatenate([Hs @ dx + N @ y[d:], miss]))
        if step == math.inf:
            return None
        x = x + step * dx
        t += step
        duals = [u + step * v for u, v in zip(duals, du)]
        if t_dual <= t_row:
            del active[drop], duals[drop]
            continue
        z, r, cz, z_norm = _direction(p, active, k)
        if len(active) < d and cz > 1e-11 * max(1.0, z_norm) and abs(cz - z @ Hs @ z) <= 0.5 * cz:
            active.append(k)
            duals.append(0.0)
            continue
        ineq = [pos for pos, a_idx in enumerate(active) if a_idx >= n_eq]
        top = max((abs(r[pos]) for pos in ineq), default=0.0)
        swap = [pos for pos in ineq if r[pos] > 1e-9 * top]
        if not swap:
            res = C @ x - b - t * db
            res[:n_eq] = -np.abs(res[:n_eq])
            return t if res.min(initial=0.0) >= -SWEEP_CHECK else None
        sigma, pos = min((duals[pos] / r[pos], pos) for pos in swap)
        duals = [u - sigma * v for u, v in zip(duals, r)]
        del active[pos], duals[pos]
        active.append(k)
        duals.append(sigma)
    return None


def kkt_residual(p: QpProblem, s: QpSolution) -> tuple[float, float, float]:
    """(stationarity, primal feasibility, complementarity) of ``s`` for ``p``.

    ``solve`` does not compute it; a caller that checks a solution asks for
    it, and reading the duals builds them."""
    x = s.x
    grad = p.H @ x + p.f
    if len(s.eq_duals):
        grad -= p.Aeq.T @ s.eq_duals
    if len(s.ineq_duals_lower):
        grad -= p.Ain.T @ (s.ineq_duals_lower - s.ineq_duals_upper)
    grad -= s.bound_duals_lower - s.bound_duals_upper
    stationarity = float(np.abs(grad).max()) if len(grad) else 0.0

    viol = [0.0]
    if len(p.beq):
        viol.append(np.abs(p.Aeq @ x - p.beq).max())
    # the inequality rows and the bounds as one table: lower sides, then upper
    ax = np.concatenate([p.Ain @ x, x])
    lower, upper = np.concatenate([p.lower, p.lb]), np.concatenate([p.upper, p.ub])
    slack = np.concatenate([np.where(np.isfinite(lower), ax - lower, np.inf),
                            np.where(np.isfinite(upper), upper - ax, np.inf)])
    viol.append(float(np.maximum(-slack, 0).max()))
    mu = np.concatenate([s.ineq_duals_lower, s.bound_duals_lower,
                         s.ineq_duals_upper, s.bound_duals_upper])
    comp = [0.0, float(np.abs(mu * np.where(np.isfinite(slack), slack, 0)).max())]
    return stationarity, max(viol), max(comp)
