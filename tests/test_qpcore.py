from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcts import qpcore, sim

import oracles


def test_scalar_bound_analytic():
    p = qpcore.QpProblem(H=np.array([[1.0]]), f=np.zeros(1), lb=np.array([1.0]))
    s = qpcore.solve(p)
    assert s.status == qpcore.OPTIMAL
    np.testing.assert_allclose(s.x, [1.0], atol=1e-10)
    np.testing.assert_allclose(s.bound_duals_lower, [1.0], atol=1e-10)


def test_equality_symmetry():
    p = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2),
                         Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))
    s = qpcore.solve(p)
    np.testing.assert_allclose(s.x, [0.5, 0.5], atol=1e-10)


def test_two_sided_row_upper_active():
    p = qpcore.QpProblem(H=np.eye(2), f=np.array([-10.0, 0.0]),
                         Ain=np.array([[1.0, 0.0]]),
                         lower=np.array([-1.0]), upper=np.array([2.0]))
    s = qpcore.solve(p)
    np.testing.assert_allclose(s.x, [2.0, 0.0], atol=1e-10)
    assert s.ineq_duals_upper[0] > 0
    assert s.ineq_duals_lower[0] == 0


def test_brute_force_agreement_200():
    rng = np.random.default_rng(42)
    for trial in range(200):
        p = oracles.random_qp(rng)
        s = qpcore.solve(p)
        best = oracles.qp_brute_force(p)
        if best is None:
            assert s.status == qpcore.INFEASIBLE, f"trial {trial}"
            continue
        assert s.status == qpcore.OPTIMAL, f"trial {trial}: {s.status}"
        assert abs(p.objective(s.x) - best[0]) < 1e-6, f"trial {trial}"
        kkt = qpcore.kkt_residual(p, s)
        assert max(kkt) < 1e-8, f"trial {trial}: kkt {kkt}"


def test_kkt_residual_hand_built_optimum():
    p = qpcore.QpProblem(H=np.array([[1.0]]), f=np.zeros(1), lb=np.array([1.0]))
    s = qpcore.QpSolution(x=np.array([1.0]), status=qpcore.OPTIMAL, iterations=0,
                          eq_duals=np.zeros(0),
                          ineq_duals_lower=np.zeros(0), ineq_duals_upper=np.zeros(0),
                          bound_duals_lower=np.array([1.0]),
                          bound_duals_upper=np.zeros(1))
    assert max(qpcore.kkt_residual(p, s)) == 0.0


def test_solution_with_explicit_duals_holds_them_as_given():
    duals = {name: np.arange(k, dtype=float) for name, k in zip(qpcore._DUALS, (0, 2, 2, 1, 1))}
    s = qpcore.QpSolution(x=np.zeros(1), status=qpcore.OPTIMAL, iterations=0, **duals)
    for name, value in duals.items():
        assert getattr(s, name) is value
    assert s.infeasible_constraint is None
    with pytest.raises(AttributeError):
        s.no_such_field


def test_solve_builds_the_duals_on_first_read():
    p = qpcore.QpProblem(H=np.eye(2), f=np.array([-10.0, 0.0]), Aeq=np.array([[0.0, 1.0]]),
                         beq=np.array([1.0]), Ain=np.array([[1.0, 0.0]]),
                         lower=np.array([-1.0]), upper=np.array([2.0]), lb=np.full(2, -5.0))
    s = qpcore.solve(p)
    assert not set(qpcore._DUALS) & set(vars(s))
    np.testing.assert_array_equal(s.ineq_duals_upper, [8.0])
    assert set(qpcore._DUALS) <= set(vars(s))
    assert [len(getattr(s, name)) for name in qpcore._DUALS] == [1, 1, 1, 2, 2]
    np.testing.assert_array_equal(s.eq_duals, [1.0])
    np.testing.assert_array_equal(s.bound_duals_lower, [0.0, 0.0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sweep_finds_the_feasibility_limit(sign):
    """x1 + x2 = beq under |x| <= 1 is feasible for |beq| <= 2. The sweep
    from the solve at 0.5 sign along sign ends at t = 1.5 after both bounds
    block, the second in the span of the active rows; with sign -1 the
    equality row starts above its side and enters by a negative step."""
    base = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                            beq=np.zeros(1), lb=-np.ones(2), ub=np.ones(2))
    p = base.with_beq([0.5 * sign])
    s = qpcore.solve(p)
    assert s.status == qpcore.OPTIMAL
    assert qpcore.sweep(p, s, np.array([sign])) == pytest.approx(1.5, abs=1e-12)
    # the solve's active set and multipliers serve the duals and the sweep alike
    np.testing.assert_allclose(s.eq_duals, [0.25 * sign])
    assert qpcore.sweep(p, s, np.array([sign])) == pytest.approx(1.5, abs=1e-12)


def test_sweep_exchanges_a_dependent_row(monkeypatch):
    """min 1/2 |x|^2 with x1 + x2 = beq, -0.25 <= x1 <= 1 and x2 <= -0.6 is
    feasible for beq <= 0.4. From beq = -1 (x = (-0.25, -0.75)) along +1,
    x2 <= -0.6 blocks at t = 0.15 in the span of the active rows with a
    positive rate on x1 >= -0.25, which it replaces; x1 <= 1 then ends the
    path at t = 1.4. Along -1 no row blocks and there is no limit, and one
    step is too few to reach one."""
    p = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                         beq=np.array([-1.0]), Ain=np.array([[0.0, 1.0]]),
                         lower=np.array([-np.inf]), upper=np.array([-0.6]),
                         lb=np.array([-0.25, -np.inf]), ub=np.array([1.0, np.inf]))
    s = qpcore.solve(p)
    np.testing.assert_allclose(s.x, [-0.25, -0.75], atol=1e-12)
    assert qpcore.sweep(p, s, np.array([1.0])) == pytest.approx(1.4, abs=1e-12)
    assert qpcore.sweep(p, s, np.array([-1.0])) is None
    monkeypatch.setattr(qpcore, "SWEEP_STEPS", 1)
    assert qpcore.sweep(p, s, np.array([1.0])) is None


def test_sweep_drops_a_row_whose_multiplier_reaches_zero(monkeypatch):
    """min 1/2 |x|^2 + 10 x2 with x1 = beq, x1 + x2 >= 0 and x1 <= 20. From
    beq = 0 along +1 the optimum is x = (t, -t), the inequality row holding
    multiplier 10 - t; at t = 10 the row leaves and x2 stays at -10 until
    x1 <= 20 ends the path at t = 20. The sweep's steps solve the KKT
    systems of both active sets in turn: a path that kept the row reaches
    the same limit in one step, off the optimum."""
    p = qpcore.QpProblem(H=np.eye(2), f=np.array([0.0, 10.0]), Aeq=np.array([[1.0, 0.0]]),
                         beq=np.zeros(1), Ain=np.array([[1.0, 1.0]]),
                         lower=np.zeros(1), upper=np.array([np.inf]),
                         lb=np.full(2, -np.inf), ub=np.array([20.0, np.inf]))
    s = qpcore.solve(p)
    np.testing.assert_allclose(s.x, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s.ineq_duals_lower, [10.0])
    steps = []
    kkt_solve = qpcore._kkt_solve

    def recording(Hs, N, rhs):
        if not rhs[:len(Hs)].any():     # a step's system; a direction's has c on top
            steps.append(N.shape[1])
        return kkt_solve(Hs, N, rhs)

    monkeypatch.setattr(qpcore, "_kkt_solve", recording)
    assert qpcore.sweep(p, s, np.array([1.0])) == pytest.approx(20.0, abs=1e-12)
    assert steps == [2, 1]


def test_a_singular_kkt_system_takes_the_least_squares_solution():
    """A duplicated active row makes K singular: the KKT solve returns the
    lstsq solution, as when np.linalg.solve raised, and warns nothing."""
    rng = np.random.default_rng(4)
    B = rng.normal(size=(4, 4))
    Hs = B @ B.T + np.eye(4)
    c = rng.normal(size=4)
    N = np.stack([c, rng.normal(size=4), c], axis=1)
    K = np.block([[Hs, N], [N.T, np.zeros((3, 3))]])
    rhs = rng.normal(size=7)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K, rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = qpcore._kkt_solve(Hs, N, rhs)
    assert y.tobytes() == np.linalg.lstsq(K, rhs, rcond=None)[0].tobytes()


def test_kkt_residual_grows_linearly_with_perturbation():
    p = qpcore.QpProblem(H=np.diag([2.0, 3.0]), f=np.array([1.0, -1.0]))
    s = qpcore.solve(p)
    s.x = s.x + np.array([1e-3, 0.0])
    stat, _, _ = qpcore.kkt_residual(p, s)
    assert stat == pytest.approx(2.0 * 1e-3, rel=1e-6)


def test_infeasible_certificate():
    p = qpcore.QpProblem(H=np.array([[1.0]]), f=np.zeros(1),
                         Ain=np.array([[1.0]]), lower=np.array([1.0]),
                         upper=np.array([np.inf]), ub=np.array([0.0]))
    s = qpcore.solve(p)
    assert s.status == qpcore.INFEASIBLE
    assert s.infeasible_constraint is not None
    assert s.infeasible_violation >= 1.0 - 1e-9


def test_determinism_identical_bytes():
    rng = np.random.default_rng(7)
    p1 = oracles.random_qp(rng)
    p2 = qpcore.QpProblem.from_json(p1.to_json())
    s1 = qpcore.solve(p1)
    s2 = qpcore.solve(p2)
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.iterations == s2.iterations
    assert s1.status == s2.status


@given(st.floats(1e-3, 1e3))
@settings(max_examples=30, deadline=None)
def test_objective_scaling_leaves_argmin(alpha):
    p = qpcore.QpProblem(H=np.diag([2.0, 1.0]), f=np.array([-4.0, 1.0]),
                         Ain=np.array([[1.0, 1.0]]),
                         lower=np.array([-np.inf]), upper=np.array([1.0]),
                         lb=np.array([-2.0, -2.0]), ub=np.array([2.0, 2.0]))
    ps = qpcore.QpProblem(H=alpha * p.H, f=alpha * p.f, Ain=p.Ain,
                          lower=p.lower, upper=p.upper, lb=p.lb, ub=p.ub)
    x0 = qpcore.solve(p).x
    x1 = qpcore.solve(ps).x
    np.testing.assert_allclose(x0, x1, atol=1e-8)


def test_semidefinite_hessian_regularized():
    # rank-1 PSD Hessian; the solver must still return a clean optimum
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = qpcore.QpProblem(H=H, f=np.array([0.0, 1.0]), lb=np.array([-1.0, -1.0]),
                         ub=np.array([1.0, 1.0]))
    s = qpcore.solve(p)
    assert s.status == qpcore.OPTIMAL
    np.testing.assert_allclose(s.x[1], -1.0, atol=1e-6)


def test_indefinite_hessian_hard_error():
    with pytest.raises(qpcore.QpError, match="positive semidefinite"):
        qpcore.solve(qpcore.QpProblem(H=np.array([[-1.0]]), f=np.zeros(1)))


def test_problem_validation():
    with pytest.raises(qpcore.QpError, match="symmetric"):
        qpcore.QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), f=np.zeros(2))
    with pytest.raises(qpcore.QpError, match="lower > upper"):
        qpcore.QpProblem(H=np.eye(1), f=np.zeros(1), Ain=np.eye(1),
                         lower=np.array([2.0]), upper=np.array([1.0]))
    with pytest.raises(qpcore.QpError, match="lb > ub"):
        qpcore.QpProblem(H=np.eye(1), f=np.zeros(1), lb=np.array([2.0]),
                         ub=np.array([1.0]))


def test_json_round_trip(tmp_path):
    """A dump holds the fields only: the directions a solve stored are not in
    it, and the reloaded problem starts with none and solves the same bytes."""
    rng = np.random.default_rng(9)
    p = oracles.random_qp(rng)
    text = p.to_json()
    s1 = qpcore.solve(p)
    assert p._directions and p.to_json() == text
    path = tmp_path / "problem.json"
    qpcore.dump_problem(p, path)
    p2 = qpcore.QpProblem.from_json(path.read_text())
    assert p2._directions == {}
    np.testing.assert_array_equal(p.H, p2.H)
    np.testing.assert_array_equal(p.lb, p2.lb)
    _same_solution(s1, qpcore.solve(p2))
    stage = _with_equalities(p, np.ones((1, p.dim)), np.zeros(1)).with_beq([2.0])
    qpcore.solve(stage)
    again = qpcore.QpProblem.from_json(stage.to_json())
    assert again.beq.tolist() == [2.0] and again._directions == {}
    _same_solution(qpcore.solve(stage), qpcore.solve(again))


def test_max_iter_status():
    rng = np.random.default_rng(11)
    p = oracles.random_qp(rng)
    s = qpcore.solve(p, max_iter=1)
    assert s.status in (qpcore.MAX_ITER, qpcore.OPTIMAL)


@st.composite
def _equality_start_cases(draw):
    """(problem, index of its inconsistent equality row or None, the problem
    with its independent equality rows alone).

    Every row but the inconsistent one holds at a drawn point x0, which also
    lies strictly inside any inequality rows and bounds, so the problem is
    feasible exactly when no row is inconsistent. After the independent
    rows come, in drawn order, duplicated rows (scaled by either sign),
    combinations of two rows (a rank-deficient Aeq), near-parallel rows and
    at most one inconsistent dependent row; together they may outnumber the
    variables. A near-parallel row is an earlier row moved by 1e-5..1e-2 of
    its length: off the span of the independent rows while they span fewer
    than d dimensions, so that the independent rows stay conditioned well
    enough for the tolerances below, and anywhere once they span all d. H
    is positive definite on a drawn subset of the variables and zero on the
    rest, where its Cholesky factorization meets a zero pivot, so a proper
    subset makes the solver regularize it; f lies in H's range."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curved = rng.permutation(d)[:draw(st.integers(1, d))]
    A = rng.normal(size=(len(curved), len(curved)))
    H = np.zeros((d, d))
    H[np.ix_(curved, curved)] = A @ A.T + 0.1 * np.eye(len(curved))
    f = H @ rng.normal(size=d)
    x0 = rng.normal(size=d)
    rows = list(rng.normal(size=(draw(st.integers(1, d)), d)))
    independent = list(range(len(rows)))
    kinds = draw(st.lists(st.sampled_from(["duplicate", "combination", "near-parallel"]),
                          max_size=4))
    bad = None
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "inconsistent")
    for kind in kinds:
        i, j = rng.integers(len(rows), size=2)
        if kind == "duplicate":
            row = rng.choice([-2.0, 0.5, 1.0]) * rows[i]
        elif kind == "near-parallel":
            v = rng.normal(size=d)
            if len(independent) < d:
                Q = np.linalg.qr(np.array([rows[k] for k in independent]).T)[0]
                v -= Q @ (Q.T @ v)
                independent.append(len(rows))
            row = rows[i] + 10.0 ** rng.uniform(-5, -2) * np.linalg.norm(rows[i]) * (
                v / np.linalg.norm(v))
        else:
            row = rng.normal() * rows[i] + rng.normal() * rows[j]
            bad = len(rows) if kind == "inconsistent" else bad
        rows.append(row)
    Aeq = np.array(rows)
    beq = Aeq @ x0
    if bad is not None:
        beq[bad] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0) * np.linalg.norm(Aeq[bad])
    sides = {}
    if draw(st.booleans()):
        r = int(rng.integers(0, 4))
        Ain = rng.normal(size=(r, d))
        upper = np.where(rng.random(r) < 0.3, np.inf, rng.uniform(0.1, 2.0, r))
        sides = dict(Ain=Ain if r else None,
                     lower=Ain @ x0 - rng.uniform(0.1, 2.0, r) if r else None,
                     upper=Ain @ x0 + upper if r else None,
                     lb=np.where(rng.random(d) < 0.5, x0 - rng.uniform(0.1, 2.0, d), -np.inf),
                     ub=np.where(rng.random(d) < 0.5, x0 + rng.uniform(0.1, 2.0, d), np.inf))
    problem = qpcore.QpProblem(H=H, f=f, Aeq=Aeq, beq=beq, **sides)
    return problem, bad, qpcore.QpProblem(H=H, f=f, Aeq=Aeq[independent],
                                          beq=beq[independent], **sides)


@given(_equality_start_cases())
@settings(max_examples=300, deadline=None)
def test_the_equality_start_meets_every_row_or_names_the_one_it_cannot(case):
    """The solve starts at the equality-constrained optimum of the
    independent rows. An inconsistent dependent row ends it infeasible,
    named as that equality row; otherwise it ends optimal and every
    equality row holds to 1e-9 on its normalized row. Its objective matches
    an oracle to 1e-6 relative, beyond the first-order change that this
    residual allows (the multipliers times the equality misses, large where
    rows are nearly parallel): the least-squares null-space solve over
    every row when there are no inequality rows or bounds, else the
    brute-force active-set enumeration over the independent rows, which
    have the same feasible set."""
    p, bad, independent = case
    sol = qpcore.solve(p)
    if bad is not None:
        assert sol.status == qpcore.INFEASIBLE
        assert sol.infeasible_constraint == f"equality row {bad}"
        return
    assert sol.status == qpcore.OPTIMAL
    assert (np.abs(p.Aeq @ sol.x - p.beq) / np.linalg.norm(p.Aeq, axis=1)).max() <= 1e-9
    if len(p.lower) == 0 and np.isinf(p.lb).all() and np.isinf(p.ub).all():
        best = p.objective(oracles.equality_qp_min(p.H, p.f, p.Aeq, p.beq))
    else:
        best = oracles.qp_brute_force(independent)[0]
    # near-parallel rows make the multipliers large, and the objective moves
    # by their product with the residual it is allowed
    allowed = np.abs(sol.eq_duals) @ np.abs(p.Aeq @ sol.x - p.beq)
    assert abs(p.objective(sol.x) - best) <= 1e-6 * (1.0 + abs(best)) + allowed


def _with_equalities(p, Aeq, beq):
    return qpcore.QpProblem(H=p.H, f=p.f, Aeq=Aeq, beq=beq, Ain=p.Ain, lower=p.lower,
                            upper=p.upper, lb=p.lb, ub=p.ub)


def _row_table_cases():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = oracles.random_qp(rng)
        yield p
        m = int(rng.integers(1, p.dim + 1))
        yield _with_equalities(p, rng.normal(size=(m, p.dim)), rng.normal(size=m))
    inf = np.inf
    # zero-norm equality and inequality rows, every mix of infinite sides
    yield qpcore.QpProblem(
        H=np.eye(3), f=np.ones(3),
        Aeq=np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]), beq=np.array([3.0, -1.0]),
        Ain=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 0.0, 4.0],
                      [0.5, 0.5, 0.0], [2.0, 0.0, 0.0]]),
        lower=np.array([-1.0, -inf, -2.0, -inf, 1.0]),
        upper=np.array([1.0, 4.0, inf, inf, 1.0]),
        lb=np.array([-inf, -1.0, 0.0]), ub=np.array([inf, inf, 2.0]))
    yield qpcore.QpProblem(H=np.eye(2), f=np.zeros(2))              # every block empty
    yield qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.zeros((1, 2)),
                           beq=np.ones(1), Ain=np.zeros((1, 2)),
                           lower=np.array([-1.0]), upper=np.array([1.0]))


def test_row_table_matches_per_row_reference():
    """The array-built row table equals the one-row-at-a-time table byte for
    byte, so the solver's arithmetic is unchanged."""
    for p in _row_table_cases():
        rows = qpcore._build_rows(p)
        row_kind, row_index, row_norm = qpcore._row_info(rows)
        C, b, kind, ref, n_eq = oracles.qp_rows_per_row(p)
        assert rows.C.shape == C.shape and rows.C.tobytes() == C.tobytes()
        assert rows.b.tobytes() == b.tobytes()
        assert row_kind.tolist() == kind
        assert list(zip(row_index.tolist(), row_norm.tolist())) == ref
        assert rows.n_eq == n_eq


def _same_solution(s1, s2):
    for name in ("x", "eq_duals", "ineq_duals_lower", "ineq_duals_upper",
                 "bound_duals_lower", "bound_duals_upper"):
        assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes(), name
    assert (s1.status, s1.iterations, s1.infeasible_constraint, s1.infeasible_violation) \
        == (s2.status, s2.iterations, s2.infeasible_constraint, s2.infeasible_violation)


def test_with_beq_solves_like_a_fresh_problem():
    """Each family solves a sequence of right sides: feasible, infeasible and
    with the equality rows' sides reversed. Every stage reuses the directions
    the stages before it stored, and still equals a fresh problem byte for
    byte."""
    rng = np.random.default_rng(21)
    statuses = set()
    for _ in range(100):
        p = oracles.random_qp(rng)
        m = int(rng.integers(1, p.dim + 1))
        base = _with_equalities(p, rng.normal(size=(m, p.dim)), np.zeros(m))
        beq = rng.normal(scale=3.0, size=m)
        for stage_beq in (beq, -beq, 0.5 * beq, 1e3 * beq, -1e3 * beq, beq):
            s = qpcore.solve(base.with_beq(stage_beq))
            _same_solution(s, qpcore.solve(_with_equalities(p, base.Aeq, stage_beq)))
            statuses.add(s.status)
    assert statuses == {qpcore.OPTIMAL, qpcore.INFEASIBLE}
    # x starts at 0: with beq = -1 the equality row starts above its side and
    # enters by a negative step; beq = 5 cannot be met with x <= 1
    base = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                            beq=np.zeros(1), ub=np.ones(2))
    for beq, status in (([-1.0], qpcore.OPTIMAL), ([5.0], qpcore.INFEASIBLE),
                        ([1.0], qpcore.OPTIMAL), ([-1.0], qpcore.OPTIMAL)):
        fresh = qpcore.QpProblem(H=base.H, f=base.f, Aeq=base.Aeq, beq=beq, ub=base.ub)
        s = qpcore.solve(base.with_beq(beq))
        assert s.status == status
        _same_solution(s, qpcore.solve(fresh))


def test_a_negated_equality_side_mirrors_the_solve():
    """With f = 0 and every side symmetric (lower = -upper, lb = -ub), the
    problem at -beq is the one at beq mirrored through x -> -x. An equality
    row above its side enters by a negative step, so the solve at -beq
    takes the same steps and ends with x and eq_duals negated and each lower
    inequality and bound dual in its upper's place."""
    rng = np.random.default_rng(22)
    statuses = set()
    for _ in range(400):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(0, 5))
        A0 = rng.normal(size=(d, d))
        upper = rng.uniform(0.5, 3, size=r)
        ub = np.where(rng.random(d) < 0.5, rng.uniform(0.2, 2, d), np.inf)
        m = int(rng.integers(1, d + 1))
        base = qpcore.QpProblem(H=A0 @ A0.T + 0.1 * np.eye(d), f=np.zeros(d),
                                Aeq=rng.normal(size=(m, d)), beq=np.zeros(m),
                                Ain=rng.normal(size=(r, d)) if r else None,
                                lower=-upper if r else None, upper=upper if r else None,
                                lb=-ub, ub=ub)
        beq = rng.normal(scale=3.0, size=m)
        s, mirror = (qpcore.solve(base.with_beq(side)) for side in (beq, -beq))
        assert (mirror.status, mirror.iterations) == (s.status, s.iterations)
        assert np.array_equal(mirror.x, -s.x)
        assert np.array_equal(mirror.eq_duals, -s.eq_duals)
        for lower, upper in (("ineq_duals_lower", "ineq_duals_upper"),
                             ("bound_duals_lower", "bound_duals_upper")):
            assert np.array_equal(getattr(mirror, lower), getattr(s, upper))
            assert np.array_equal(getattr(mirror, upper), getattr(s, lower))
        statuses.add(s.status)
    assert statuses == {qpcore.OPTIMAL, qpcore.INFEASIBLE}


def test_solving_leaves_the_shared_table_unchanged():
    base = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                            beq=np.zeros(1), lb=np.full(2, -2.0), ub=np.ones(2))
    stage = base.with_beq([-1.0])         # its equality row starts above its side
    before = [(r.C.copy(), r.b.copy(), [a.tobytes() for a in qpcore._row_info(r)])
              for r in (base._rows, stage._rows)]
    first, second = qpcore.solve(stage), qpcore.solve(stage)
    _same_solution(first, second)
    for (C, b, info), r in zip(before, (base._rows, stage._rows)):
        assert r.C.tobytes() == C.tobytes() and r.b.tobytes() == b.tobytes()
        assert [a.tobytes() for a in qpcore._row_info(r)] == info
    assert stage._rows.C is base._rows.C and stage._factor is base._factor


def test_with_beq_rejects_a_wrong_shape():
    p = qpcore.QpProblem(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                         beq=np.zeros(1))
    for beq in (np.zeros(2), np.zeros((1, 1)), 1.0):
        with pytest.raises(qpcore.QpError, match="beq must have shape"):
            p.with_beq(beq)


def _bad_value_case(name, value):
    """A small valid problem with ``value`` written into one entry of ``name``."""
    arrays = dict(H=np.eye(2), f=np.zeros(2), Aeq=np.array([[1.0, 1.0]]),
                  beq=np.ones(1), Ain=np.array([[1.0, -1.0]]), lower=np.array([-1.0]),
                  upper=np.array([1.0]), lb=np.full(2, -2.0), ub=np.full(2, 2.0))
    arrays[name].flat[-1] = value
    return arrays


@pytest.mark.parametrize("name,value", [
    *[(name, np.nan) for name in ("H", "f", "Aeq", "beq", "Ain", "lower", "upper", "lb", "ub")],
    *[(name, v) for name in ("H", "f", "Aeq", "beq", "Ain") for v in (np.inf, -np.inf)]])
def test_non_finite_data_is_rejected_naming_the_field(name, value):
    """A NaN anywhere, or an inf outside the sides, is a QpError that names
    the field, at construction and in with_beq; it never reaches solve."""
    with pytest.raises(qpcore.QpError, match=f"^{name} "):
        qpcore.QpProblem(**_bad_value_case(name, value))
    if name == "beq":
        p = qpcore.QpProblem(**_bad_value_case("beq", 0.0))
        with pytest.raises(qpcore.QpError, match="^beq "):
            p.with_beq([value])


def test_a_step_that_overflows_x_ends_the_solve_not_in_an_exception(monkeypatch):
    """rotation_hold with task damping 1e300 builds level QPs with an
    equality right side near 1e298, which QpProblem accepts. A step of the
    dual active-set solve then overflows x; the solve must end non-optimal
    and name the row it was entering, not raise (numpy warns about the
    overflow)."""
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["tasks"][0]["damping"] = 1e300
    scenario = sim.scenario_from_dict(data, source="s")
    scenario.duration = 2 * scenario.control_dt     # the second tick overflows
    solved = []
    solve = qpcore.solve

    def recording(p, *args, **kwargs):
        solved.append(solve(p, *args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(qpcore, "solve", recording)
    [trace] = sim.run_scenario(scenario, ["dcts"])
    failed = [sol for sol in solved if sol.status != qpcore.OPTIMAL]
    assert failed and all(sol.infeasible_constraint for sol in failed)
    assert trace.summary()["status_counts"]["infeasible"] == 1
