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
variables), so no factorization updating is attempted. A step direction
depends on the active set and the entering row, never on ``beq``, so the
problems ``with_beq`` derives from one constructed problem (a *family*) share
every direction they solve, and the unconstrained start, in one dict; a hit
returns the bytes the solve would have produced. Determinism: constraint
entry picks the most violated row, ties broken by lowest index in the fixed
enumeration order (equalities, then Ain lower/upper per row, then bound
lower/upper per variable).

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
from scipy.linalg.lapack import dgesv

from .rbd import spd_factor, spd_solve

OPTIMAL, INFEASIBLE, MAX_ITER = "optimal", "infeasible", "max_iter"


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
        # (flips, active, entering row) -> direction, None -> start; see solve
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
        problem._rows = _Rows(rows.C, b, rows.kind, rows.ref, rows.n_eq, rows.eq_index,
                              rows.eq_norm)
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
        d = json.loads(text)
        arr = {k: np.asarray(v, dtype=float) for k, v in d.items()}
        for key in ("Aeq", "Ain"):
            if arr[key].size == 0:
                arr[key] = None
                arr["beq" if key == "Aeq" else "lower"] = None
                if key == "Ain":
                    arr["upper"] = None
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


class Certificate(NamedTuple):
    """A Farkas certificate of an infeasible solve, as a test on the right side
    of any problem of its family: the problem with equality right side ``beq``
    cannot end optimal when the margin ``gain @ beq + offset`` exceeds the
    allowance ``spread @ |beq| + base``. ``_certificate`` derives the bound."""

    gain: list
    offset: float
    spread: list
    base: float

    def decides(self, beq: np.ndarray) -> bool:
        """True if this certificate proves the family's problem with right
        side ``beq`` infeasible by more than the tolerances allow."""
        margin, allowance = self.offset, self.base
        for g, w, v in zip(self.gain, self.spread, beq.tolist()):
            margin += g * v
            allowance += w * abs(v)
        return margin > allowance


_DUALS = ("eq_duals", "ineq_duals_lower", "ineq_duals_upper", "bound_duals_lower",
          "bound_duals_upper")


@dataclass
class QpSolution:
    """One solve's result. ``solve`` leaves the five dual vectors unbuilt and
    builds them on first read (most DCTS stages never read them); a solution
    built with explicit duals holds them as given. ``certificate`` is set on
    an infeasible solve whose loop ended with one (see ``_certificate``)."""

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
    certificate: Certificate | None = None

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: an unbuilt dual
        pending = self.__dict__.pop("_pending", None) if name in _DUALS else None
        if pending is None:
            raise AttributeError(name)
        self.__dict__.update(zip(_DUALS, _dual_vectors(*pending)))
        return self.__dict__[name]


# internal one-sided constraint table -----------------------------------------

_EQ, _IN_LO, _IN_HI, _BD_LO, _BD_HI = range(5)


class _Rows(NamedTuple):
    """Normalized one-sided rows c x >= b; the first n_eq keep c x = b.

    ``C`` and ``b`` are read-only: a family shares them, and ``solve`` copies
    them before it flips an equality row."""

    C: np.ndarray
    b: np.ndarray
    kind: list                   # _EQ, _IN_LO, ... per row
    ref: list                    # (source index, row norm) per row
    n_eq: int
    eq_index: np.ndarray         # source row of each equality row
    eq_norm: np.ndarray


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
    kind = [_EQ] * len(eq_index) + (_IN_LO + in_side).tolist() + (_BD_LO + bd_side).tolist()
    ref = list(zip(np.concatenate([eq_index, in_i, bd_j]).tolist(),
                   np.concatenate([eq_norm, in_scale, np.ones(len(bd_j))]).tolist()))
    C.flags.writeable = b.flags.writeable = False
    return _Rows(C, b, kind, ref, len(eq_index), eq_index, eq_norm)


@functools.cache
def _unit_rows(d: int) -> np.ndarray:
    """[j, side]: the bound rows e_j and 0.0 - e_j of d variables, read-only."""
    eye = np.eye(d)
    rows = np.stack([eye, 0.0 - eye], axis=1)
    rows.flags.writeable = False
    return rows


def _label(kind: int, ref) -> str:
    i = ref[0]
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


def solve(p: QpProblem, tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Dual active-set solve. See the module docstring for conventions."""
    d = p.dim
    rows = p._rows
    # the family's read-only table; the first equality flip below copies it
    C, b, ref = rows.C, rows.b, rows.ref
    kind, n_eq = rows.kind, rows.n_eq
    C_in, b_in = C[n_eq:], b[n_eq:]
    cho, Hs, _sigma = p._factor
    # A direction is fixed by C[active], C[idx] and the order of K's columns,
    # so by the equality rows flipped so far, the active list and the
    # entering row: the key of the family's shared dict.
    cache = p._directions
    flips: tuple = ()

    x = cache.get(None)
    if x is None:
        x = cache[None] = spd_solve(cho, -p.f)
        x.flags.writeable = False
    active: list[int] = []
    duals: list[float] = []
    iterations = 0

    def direction(idx: int):
        """(z, r, c z, |z|) of [H N; N^T 0][z; -r] = [c; 0] for c = C[idx] and
        N = C[active]^T: z primal (read-only), r the dual rates as a list;
        shared by the family."""
        key = (flips, tuple(active), idx)
        hit = cache.get(key)
        if hit is not None:
            return hit
        c = C[idx]
        if not active:
            z, r = spd_solve(cho, c), []
        else:
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
            z, r = sol[:d], sol[d:].tolist()
        z.flags.writeable = False
        # z.dot(z) and its square root round as np.linalg.norm(z) does
        hit = cache[key] = z, r, float(c @ z), math.sqrt(z.dot(z))
        return hit

    exhausted = False

    def enter(idx: int) -> bool:
        """Bring constraint idx into the active set; False means infeasible."""
        nonlocal x, iterations, exhausted
        u_new = 0.0
        c, b_idx = C[idx], b[idx]
        while iterations < max_iter:
            iterations += 1
            s_val = float(c @ x - b_idx)
            z, r, cz, z_norm = direction(idx)
            # step length limited by active inequality duals decreasing to zero
            t1, k1 = math.inf, -1
            for pos, a_idx in enumerate(active):
                if kind[a_idx] != _EQ and r[pos] > tol:
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

    # equalities first (forced, duals unrestricted)
    for e in range(n_eq):
        s_val = float(C[e] @ x - b[e])
        if abs(s_val) <= tol:
            if len(active) < d and direction(e)[2] > 1e-11:
                active.append(e)
                duals.append(0.0)
            continue
        if s_val > 0:          # flip so the entering machinery reduces violation
            if not flips:
                C, b, ref = C.copy(), b.copy(), list(ref)
                C_in, b_in = C[n_eq:], b[n_eq:]
            C[e] = -C[e]
            b[e] = -b[e]
            ref[e] = (ref[e][0], -ref[e][1])
            flips += (e,)
        if not enter(e):
            return _finish(p, x, INFEASIBLE, iterations, kind, ref, active, duals,
                           bad=e, bad_violation=abs(s_val), certificate=_certificate(
                               p, C, kind, ref, active, direction(e)[1], e, tol))

    while iterations < max_iter and not exhausted:
        slack = C_in @ x - b_in
        for a_idx in active:
            if a_idx >= n_eq and slack[a_idx - n_eq] >= -tol:
                slack[a_idx - n_eq] = 0.0   # tight up to noise; ineligible to re-enter
        worst = int(slack.argmin()) if len(slack) else -1
        if worst < 0 or slack[worst] >= -tol:
            return _finish(p, x, OPTIMAL, iterations, kind, ref, active, duals)
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
            return _finish(p, x, INFEASIBLE, iterations, kind, ref, active, duals,
                           bad=worst, bad_violation=float(-slack[worst - n_eq]),
                           certificate=_certificate(p, C, kind, ref, active,
                                                    direction(worst)[1], worst, tol))
    return _finish(p, x, MAX_ITER, iterations, kind, ref, active, duals)


def _finish(p, x, status, iterations, kind, ref, active, duals,
            bad=None, bad_violation=0.0, certificate=None) -> QpSolution:
    sol = object.__new__(QpSolution)
    sol.__dict__.update(x=x.copy(), status=status, iterations=iterations,
                        certificate=certificate, _pending=(p, kind, ref, active, duals))
    if bad is not None:
        sol.infeasible_constraint = _label(kind[bad], ref[bad])
        sol.infeasible_violation = bad_violation
    return sol


def _dual_vectors(p, kind, ref, active, duals) -> list[np.ndarray]:
    """The five dual vectors of a solve that ended with ``active`` and ``duals``."""
    m_eq, m_in, d = len(p.beq), len(p.lower), p.dim
    # where each kind's duals start in [eq, in_lo, in_hi, bd_lo, bd_hi]
    start = (0, m_eq, m_eq + m_in, m_eq + 2 * m_in, m_eq + 2 * m_in + d)
    out = [0.0] * (m_eq + 2 * (m_in + d))
    for pos, a_idx in enumerate(active):
        i, scale = ref[a_idx]
        u = duals[pos] / abs(scale)
        k = kind[a_idx]
        out[start[k] + i] += u if k != _EQ or scale > 0 else -u
    out = np.array(out)
    return [out[a:b] for a, b in zip(start, (*start[1:], len(out)))]


def _certificate(p: QpProblem, C, kind, ref, active, r, idx, tol) -> Certificate | None:
    """The Farkas certificate ``solve`` holds when row ``idx`` cannot enter.

    The entering row is a combination of the active rows: the KKT solve of
    its direction gives rates r with c_idx = sum_j r_j c_j + rho, where
    rho = H z is left over, and no active inequality row blocks, so r_j <= tol
    on each. Take the case that the d active rows form a basis B and every
    inequality r_j <= 0, and let delta solve B^T delta = rho: then
    c_idx = sum_j (r_j + delta_j) c_j. In the table that ``solve`` works on
    (an equality row flipped there counts with its flipped sign), a problem
    of the family that ends optimal at x meets every inequality row to tol
    (its exit test) and every equality row to tol (an equality enters with a
    full step or within tol and stays active; the residual measured 3e-11 at
    most on the control_replay workload). So

        c_idx x          >= b_idx - tol
        sum_j r_j c_j x  <= sum_j r_j b_j + tol sum_j |r_j|
        delta_j c_j x    <= |delta_j| (h_j + tol)

    where h_j = |b_j| for an equality row and max(|b_j|, |u_j|) for an
    inequality row whose other side c_j x <= u_j is finite. Together, with
    the margin m = b_idx - sum_j r_j b_j,

        m <= tol (1 + sum_j |r_j|) + sum_j |delta_j| (h_j + tol).

    A right side whose margin exceeds this allowance has no optimal x: it
    ends infeasible or at the iteration cap. An equality row's b_j is
    beq_i / |Aeq_i|, so the margin is affine in beq and the allowance affine
    in |beq|; the rounding of both dot products is far below tol at the
    magnitudes here. No certificate when the active rows are fewer than d,
    an inequality rate is positive, or delta is nonzero on an inequality row
    without a finite other side.
    """
    if len(active) != p.dim:
        return None
    n_eq, b = p._rows.n_eq, p._rows.b
    B = C[active]
    *_, delta, info = dgesv(B.T, C[idx] - np.dot(r, B))
    if info:
        return None
    delta = np.abs(delta).tolist()
    gain, spread = [0.0] * len(p.beq), [0.0] * len(p.beq)
    offset = 0.0
    base = tol * (1.0 + sum(map(abs, r)) + sum(delta))
    # the margin is sum_a weight_a b_a: the entering row with weight 1 and
    # each active row with weight -r_j
    for a, weight, dj in ((idx, 1.0, 0.0), *zip(active, (-rj for rj in r), delta)):
        i, norm = ref[a]
        if a < n_eq:            # b_a = beq_i / norm, norm negative if flipped
            gain[i] += weight / norm
            spread[i] += dj / abs(norm)
            continue
        if weight < 0.0:
            return None
        offset += weight * b[a]
        if dj:
            k = kind[a]
            other = {_IN_LO: p.upper, _IN_HI: p.lower, _BD_LO: p.ub, _BD_HI: p.lb}[k][i]
            if not math.isfinite(other):
                return None
            base += dj * max(abs(b[a]), abs(other) / norm)
    return Certificate(gain, offset, spread, base)


def kkt_residual(p: QpProblem, s: QpSolution) -> tuple[float, float, float]:
    """(stationarity, primal feasibility, complementarity) of ``s`` for ``p``.

    ``solve`` does not compute it: a caller asks for it for the solution it
    reports, not for every stage it tries."""
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
