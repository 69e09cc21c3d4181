from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcts import rbd, sim

import oracles
from conftest import Q_STAR, frame_pose, planar_dict


def rand_state(model, rng, scale=1.0):
    q = rng.uniform(-1.2, 1.2, model.n) * scale
    qd = rng.uniform(-1.0, 1.0, model.n) * scale
    return q, qd


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_single_link_identity(planar1):
    position, _ = frame_pose(planar1, np.zeros(1), planar1.tool_frame)
    np.testing.assert_allclose(position, [1.0, 0.0, 0.0], atol=1e-12)


def test_fk_two_link_quarter_turn(planar2):
    position, _ = frame_pose(planar2, np.array([np.pi / 2, 0.0]), planar2.tool_frame)
    np.testing.assert_allclose(position, [0.0, 2.0, 0.0], atol=1e-12)


def test_fk_bundled_vs_chained_oracle(iiwa, iiwa_dict):
    p_oracle, R_oracle = oracles.fk_chain(iiwa_dict, Q_STAR)
    position, rotation = frame_pose(iiwa, Q_STAR, iiwa.tool_frame)
    np.testing.assert_allclose(position, p_oracle, atol=1e-12)
    np.testing.assert_allclose(rotation, R_oracle, atol=1e-12)


def test_fk_link_frames_vs_oracle(iiwa, iiwa_dict):
    rng = np.random.default_rng(3)
    q = rng.uniform(-1.5, 1.5, 7)
    for frame in (0, 3, 6):
        p_oracle, R_oracle = oracles.fk_chain(iiwa_dict, q, frame=frame)
        position, rotation = frame_pose(iiwa, q, frame)
        np.testing.assert_allclose(position, p_oracle, atol=1e-12)
        np.testing.assert_allclose(rotation, R_oracle, atol=1e-12)


def test_fk_rejects_bad_frame(iiwa):
    with pytest.raises(ValueError, match="frame"):
        frame_pose(iiwa, np.zeros(7), 9)
    with pytest.raises(ValueError):
        frame_pose(iiwa, np.zeros(5), 0)


# ---------------------------------------------------------------------------
# jacobians


def test_jacobian_single_link(planar1):
    J = rbd.jacobian(planar1, rbd.Kinematics(planar1, np.zeros(1)), planar1.tool_frame)
    np.testing.assert_allclose(J[:3, 0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)


def test_jacobian_two_link_stretched_x_row(planar2):
    J = rbd.jacobian(planar2, rbd.Kinematics(planar2, np.zeros(2)), planar2.tool_frame)
    np.testing.assert_allclose(J[0], 0.0, atol=1e-12)


def test_jacobian_matches_finite_differences(iiwa):
    rng = np.random.default_rng(7)
    for _ in range(5):
        q, _ = rand_state(iiwa, rng)
        J = rbd.jacobian(iiwa, rbd.Kinematics(iiwa, q), iiwa.tool_frame)
        Jfd = oracles.jacobian_fd(lambda qq: frame_pose(iiwa, qq, iiwa.tool_frame), q)
        assert np.abs(J - Jfd).max() < 1e-5


def test_jacobian_point_offset(iiwa):
    q = Q_STAR
    point = np.array([0.0, 0.0, 0.1])
    J = rbd.jacobian(iiwa, rbd.Kinematics(iiwa, q), iiwa.tool_frame, point=point)
    T = rbd.link_transforms(iiwa, q)[iiwa.tool_frame]

    def fk(qq):
        Tq = rbd.link_transforms(iiwa, qq)[iiwa.tool_frame]
        return Tq[:3, :3] @ point + Tq[:3, 3], Tq[:3, :3]

    Jfd = oracles.jacobian_fd(fk, q)
    assert np.abs(J - Jfd).max() < 1e-5


def test_jacobian_dot_qd_zero_velocity(iiwa):
    out = rbd.jacobian_dot_qd(iiwa, dynamics_at(iiwa, Q_STAR), iiwa.tool_frame)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_jacobian_dot_qd_centripetal(planar1):
    omega = 2.0
    dyn = dynamics_at(planar1, np.zeros(1), np.array([omega]))
    out = rbd.jacobian_dot_qd(planar1, dyn, planar1.tool_frame)
    np.testing.assert_allclose(out[:3], [-omega**2, 0.0, 0.0], atol=1e-12)


def test_jacobian_dot_qd_matches_finite_differences(iiwa):
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, qd = rand_state(iiwa, rng)
        out = rbd.jacobian_dot_qd(iiwa, dynamics_at(iiwa, q, qd), iiwa.tool_frame)
        h = 1e-7
        Jp = rbd.jacobian(iiwa, rbd.Kinematics(iiwa, q + qd * h), iiwa.tool_frame)
        Jm = rbd.jacobian(iiwa, rbd.Kinematics(iiwa, q - qd * h), iiwa.tool_frame)
        fd = (Jp - Jm) / (2 * h) @ qd
        assert np.abs(out - fd).max() < 1e-4


# ---------------------------------------------------------------------------
# dynamics


def test_mass_matrix_point_mass(planar1):
    M = rbd.mass_matrix(planar1, rbd.Kinematics(planar1, np.zeros(1)))
    np.testing.assert_allclose(M, [[1.0]], atol=1e-9)


def test_mass_matrix_two_link_analytic(planar2):
    q = np.array([0.3, 0.0])
    M = rbd.mass_matrix(planar2, rbd.Kinematics(planar2, q))
    np.testing.assert_allclose(M, [[5.0, 2.0], [2.0, 1.0]], atol=1e-8)
    q = np.array([0.4, 1.1])
    np.testing.assert_allclose(rbd.mass_matrix(planar2, rbd.Kinematics(planar2, q)),
                               oracles.twolink_mass(q), atol=1e-8)


def test_mass_matrix_equals_rnea_columns(iiwa_dict):
    grav_free = dict(iiwa_dict, gravity=[0.0, 0.0, 0.0])
    model = rbd.model_from_dict(grav_free)
    rng = np.random.default_rng(2)
    q = rng.uniform(-1.5, 1.5, 7)
    kin = rbd.Kinematics(model, q)
    M = rbd.mass_matrix(model, kin)
    zero = np.zeros(7)
    for j in range(7):
        e = np.zeros(7)
        e[j] = 1.0
        np.testing.assert_allclose(M[:, j],
                                   rbd.inverse_dynamics(model, kin, zero, e), atol=1e-9)


def test_mass_matrix_equals_the_sum_over_link_com_jacobians(iiwa):
    """M = sum_i (m_i Jv_i^T Jv_i + Jw_i^T Iw_i Jw_i) + diag(armature), each
    link's Jacobian from ``rbd.jacobian`` at its COM and Iw_i = R_i I_i R_i^T,
    to 1e-12 of M's largest entry, unbatched and batched: an oracle that
    does not share how ``mass_matrix`` contracts its sums."""
    rng = np.random.default_rng(4)
    q = rng.uniform(-2.0, 2.0, (3, 7))
    batched = rbd.mass_matrix(iiwa, rbd.Kinematics(iiwa, q))
    for b in range(len(q)):
        kin = rbd.Kinematics(iiwa, q[b])
        T = kin.transforms
        M = np.diag(iiwa.armature)
        for i in range(iiwa.n):
            J = rbd.jacobian(iiwa, kin, i, point=iiwa.coms[i])
            Iw = T[i, :3, :3] @ iiwa.inertias[i] @ T[i, :3, :3].T
            M = M + iiwa.masses[i] * J[:3].T @ J[:3] + J[3:].T @ Iw @ J[3:]
        for got in (rbd.mass_matrix(iiwa, kin), batched[b]):
            assert np.abs(got - M).max() <= 1e-12 * np.abs(M).max()


def dynamics_at(model, q, qd=None):
    """``compute_dynamics`` at (q, qd), qd = 0 by default: its ``nu`` and
    ``g`` are the two Newton-Euler passes under test."""
    qd = np.zeros(model.n) if qd is None else qd
    return rbd.compute_dynamics(model, rbd.JointState(q, qd))


def test_bias_forces_zero_velocity(iiwa):
    np.testing.assert_allclose(dynamics_at(iiwa, Q_STAR).nu, 0.0, atol=1e-12)


def test_gravity_forces_zero_gravity(iiwa_dict):
    model = rbd.model_from_dict(dict(iiwa_dict, gravity=[0.0, 0.0, 0.0]))
    np.testing.assert_allclose(dynamics_at(model, Q_STAR).g, 0.0, atol=1e-12)


def test_pendulum_gravity_torque(pendulum):
    np.testing.assert_allclose(dynamics_at(pendulum, np.zeros(1)).g, [9.81],
                               atol=1e-10)
    q = np.array([0.6])
    np.testing.assert_allclose(dynamics_at(pendulum, q).g,
                               [9.81 * np.cos(0.6)], atol=1e-10)


def test_inverse_dynamics_static_is_gravity(iiwa):
    zero = np.zeros(7)
    dyn = dynamics_at(iiwa, Q_STAR)
    np.testing.assert_allclose(rbd.inverse_dynamics(iiwa, dyn.kin, zero, zero), dyn.g,
                               atol=1e-10)


def test_inverse_dynamics_identity(iiwa):
    rng = np.random.default_rng(5)
    for _ in range(10):
        q, qd = rand_state(iiwa, rng)
        qdd = rng.uniform(-2, 2, 7)
        dyn = dynamics_at(iiwa, q, qd)
        tau = rbd.inverse_dynamics(iiwa, dyn.kin, qd, qdd)
        rebuilt = dyn.M @ qdd + dyn.nu + dyn.g
        assert np.abs(tau - rebuilt).max() < 1e-9


def test_inverse_dynamics_two_link_lagrangian(planar2):
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = rng.uniform(-1, 1, 2)
        qd = rng.uniform(-1, 1, 2)
        qdd = rng.uniform(-1, 1, 2)
        ours = rbd.inverse_dynamics(planar2, rbd.Kinematics(planar2, q), qd, qdd)
        assert np.abs(ours - oracles.twolink_inverse_dynamics(q, qd, qdd)).max() < 1e-8


def test_compute_dynamics_rows_equal_separate_passes(iiwa):
    """compute_dynamics gets nu, g and nu + g from one Newton-Euler call over
    three rows; each row equals its own pass byte for byte."""
    rng = np.random.default_rng(8)
    zero = np.zeros(7)
    for _ in range(10):
        q, qd = rand_state(iiwa, rng)
        dyn = dynamics_at(iiwa, q, qd)
        kin = rbd.Kinematics(iiwa, q)
        for row, qd_row, gravity in ((dyn.nu, qd, np.zeros(3)), (dyn.g, zero, iiwa.gravity),
                                     (dyn.nu_g, qd, iiwa.gravity)):
            assert row.tobytes() == rbd._rnea(iiwa, kin, qd_row, zero, gravity).tobytes()
        assert dyn.nu_g.tobytes() == rbd.bias_and_gravity(iiwa, kin, qd).tobytes()


_states = st.floats(-3.0, 3.0, allow_subnormal=False)


@given(st.data(), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drift_from_the_dynamics_pass_equals_its_own_pass(iiwa, data, at_rest):
    """Every frame's drift read from compute_dynamics' velocity pass, one
    row of its pass over three, equals the drift read from a velocity pass
    of its own at a base at rest byte for byte, at rest too."""
    q = data.draw(arrays(float, 7, elements=_states))
    qd = np.zeros(7) if at_rest else data.draw(arrays(float, 7, elements=_states))
    point = data.draw(arrays(float, 3, elements=st.floats(-0.2, 0.2)))
    dyn = dynamics_at(iiwa, q, qd)
    # a base acceleration of -0.0 adds nothing, signed zeros included
    velocity = rbd._velocity_recursion(dyn.kin, qd, np.zeros(7), -np.zeros(3))[:3]
    own = dataclasses.replace(dyn, velocity=velocity)
    for frame in range(iiwa.n + 1):
        for p in (None, point):
            want = rbd.jacobian_dot_qd(iiwa, own, frame, p)
            shared = rbd.jacobian_dot_qd(iiwa, dyn, frame, p)
            assert shared.tobytes() == want.tobytes(), (frame, p)


@given(st.data(), st.integers(1, 4), st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batched_rows_equal_unbatched_calls(iiwa, data, B, payload):
    """Each row of a batched plant call equals the unbatched call at that
    row's state byte for byte, on the nominal model and on one carrying a
    payload on the last link (the plant model of an unmodeled mass), whose
    kinematics built from the nominal model's are the same bytes too."""
    model = (sim.augment_with_point_mass(iiwa, 4.1, np.array([0.0, 0.0, 0.2])) if payload
             else iiwa)
    q, qd, tau, tau_ext = (data.draw(arrays(float, (B, 7), elements=_states)) for _ in range(4))
    point = data.draw(arrays(float, 3, elements=st.floats(-0.2, 0.2)))
    kin = rbd.Kinematics(model, q)
    batched = {
        "mass_matrix": rbd.mass_matrix(model, kin),
        "bias_and_gravity": rbd.bias_and_gravity(model, kin, qd),
        "forward_dynamics": rbd.forward_dynamics(model, kin, qd, tau, tau_ext),
        "jacobian": rbd.jacobian(model, kin, model.tool_frame, point),
        "jacobian_link_3": rbd.jacobian(model, kin, 3),
    }
    shared = rbd.Kinematics(iiwa, q).with_inertia(model)
    for b in range(B):
        one = rbd.Kinematics(model, q[b])
        for name in rbd.Kinematics.__slots__:
            assert getattr(kin, name)[b].tobytes() == getattr(one, name).tobytes(), name
            assert getattr(shared, name)[b].tobytes() == getattr(one, name).tobytes(), name
        single = {
            "mass_matrix": rbd.mass_matrix(model, one),
            "bias_and_gravity": rbd.bias_and_gravity(model, one, qd[b]),
            "forward_dynamics": rbd.forward_dynamics(model, one, qd[b], tau[b], tau_ext[b]),
            "jacobian": rbd.jacobian(model, one, model.tool_frame, point),
            "jacobian_link_3": rbd.jacobian(model, one, 3),
        }
        for name, value in single.items():
            assert batched[name][b].tobytes() == value.tobytes(), name


# signed zeros and small integers make exact and zero products likely
_cross_elements = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
                            st.floats(-1e3, 1e3, allow_nan=False))


@given(st.data(), st.sampled_from([(3,), (7, 3), (1, 7, 3), (3, 7, 3)]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_bcross_equals_np_cross_byte_for_byte(data, shape):
    """The kernels' cross product makes np.cross's products and differences,
    so it gives its bytes, signed zeros included, in either operand order
    and under broadcasting against a (7, 3) operand."""
    a = data.draw(arrays(float, shape, elements=_cross_elements))
    b = data.draw(arrays(float, (7, 3), elements=_cross_elements))
    for x, y in ((a, b), (b, a)):
        got, want = rbd._bcross(x, y), np.cross(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "indefinite"])
def test_batched_spd_calls_raise_as_unbatched(iiwa, bad):
    """A batch whose second row is non-finite or not positive definite
    raises the error of the unbatched call on that row: ValueError for a
    non-finite entry, LinAlgError naming the leading minor otherwise."""
    kin = rbd.Kinematics(iiwa, np.stack([Q_STAR, Q_STAR + 0.1, Q_STAR - 0.1]))
    M = rbd.mass_matrix(iiwa, kin)
    rhs = np.ones((3, iiwa.n))
    if bad == "indefinite":
        M[1, 3, 3] = -1.0
    else:
        M[1, 2, 4] = M[1, 4, 2] = float(bad)
        rhs[1, 5] = float(bad)
    raised = []
    for call in (lambda: rbd.spd_factor(M[1]), lambda: rbd.spd_factor(M)):
        with pytest.raises(ValueError) as err:
            call()
        raised.append(err.value)
    if bad != "indefinite":
        factors = rbd.spd_factor(M[[0, 2, 0]])
        for call in (lambda: rbd.spd_solve(factors[1], rhs[1]),
                     lambda: rbd.spd_solve(factors, rhs)):
            with pytest.raises(ValueError) as err:
                call()
            raised.append(err.value)
    assert len({(type(e), str(e)) for e in raised}) == 1
    if bad == "indefinite":
        assert type(raised[0]) is rbd.LinAlgError
        assert str(raised[0]).startswith("4-th leading minor")
    else:
        assert type(raised[0]) is ValueError


def test_lapack_helpers_give_the_bytes_of_numpy_linalg():
    """lu_solve and eigvalsh give the bytes of np.linalg.solve and eigvalsh:
    on random KKT systems of a level's 7 accelerations, with and without its
    scale, at every active-set size 0..d, and on random task matrices J J^T
    of every task dimension. This pins numpy's private gufuncs the helpers
    call against a numpy upgrade."""
    rng = np.random.default_rng(20)
    for d in (7, 8):
        for na in range(d + 1):
            for _ in range(20):
                B = rng.normal(size=(d, d))
                N = rng.normal(size=(d, na))
                K = np.zeros((d + na, d + na))
                K[:d, :d] = B @ B.T + 1e-3 * np.eye(d)
                K[:d, d:] = N
                K[d:, :d] = N.T
                rhs = rng.normal(size=d + na)
                assert rbd.lu_solve(K, rhs).tobytes() == np.linalg.solve(K, rhs).tobytes()
    for m in range(1, 8):
        for _ in range(20):
            J = rng.normal(size=(m, 7))
            A = J @ J.T
            assert rbd.eigvalsh(A).tobytes() == np.linalg.eigvalsh(A).tobytes()


def test_lu_solve_raises_on_a_singular_matrix():
    K = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(rbd.LinAlgError, match="Singular matrix"):
        rbd.lu_solve(K, np.ones(2))


def test_lambda_factor_damps_when_eigvalsh_fails(iiwa, monkeypatch):
    """Where np.linalg.eigvalsh would raise that it did not converge, the
    helper's eigenvalues read NaN; lambda_factor then damps, as it did on
    the raise."""
    dyn = rbd.compute_dynamics(iiwa, rbd.JointState(Q_STAR, np.zeros(7)))
    J = rbd.jacobian(iiwa, dyn.kin, iiwa.tool_frame)[:3]
    assert not rbd.lambda_factor(J, dyn.minv)[2]
    monkeypatch.setattr(rbd, "eigvalsh", lambda A: np.full(len(A), np.nan))
    factor, Minv_Jt, damped = rbd.lambda_factor(J, dyn.minv)
    assert damped
    A = J @ Minv_Jt
    A = 0.5 * (A + A.T)
    assert factor[0].tobytes() == rbd.spd_factor(A + rbd.EPSILON_LAMBDA * np.eye(3))[0].tobytes()


# ---------------------------------------------------------------------------
# task dynamics


def test_task_dynamics_square_full_rank(iiwa):
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, 7)
    J = rng.normal(size=(7, 7))
    bundle = rbd.task_dynamics(J, dynamics_at(iiwa, q).minv, epsilon=0.0)
    np.testing.assert_allclose(bundle.Jbar, np.linalg.inv(J), atol=1e-8)
    np.testing.assert_allclose(bundle.N, 0.0, atol=1e-8)


def test_task_dynamics_right_inverse(iiwa):
    rng = np.random.default_rng(10)
    q = rng.uniform(-1, 1, 7)
    J = rng.normal(size=(3, 7))
    bundle = rbd.task_dynamics(J, dynamics_at(iiwa, q).minv, epsilon=0.0)
    np.testing.assert_allclose(J @ bundle.Jbar, np.eye(3), atol=1e-8)


def test_task_dynamics_rank_deficient_bounded(iiwa):
    rng = np.random.default_rng(12)
    q = rng.uniform(-1, 1, 7)
    row = rng.normal(size=(1, 7))
    J = np.vstack([row, row])          # duplicate rows: rank 1
    eps = 1e-6
    bundle = rbd.task_dynamics(J, dynamics_at(iiwa, q).minv, epsilon=eps)
    assert np.all(np.isfinite(bundle.Lambda))
    assert np.abs(bundle.Lambda).max() <= 1.0 / eps + 1e-6


def test_task_dynamics_projector_properties(iiwa):
    rng = np.random.default_rng(13)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, 7)
        dyn = dynamics_at(iiwa, q)
        J = rbd.jacobian(iiwa, dyn.kin, iiwa.tool_frame)[:3]
        bundle = rbd.task_dynamics(J, dyn.minv, epsilon=0.0)
        # idempotent
        assert np.abs(bundle.N @ bundle.N - bundle.N).max() < 1e-8
        # null-space torques produce zero task acceleration
        M = dyn.M
        for _ in range(5):
            tau = rng.normal(size=7) * 30
            acc = J @ np.linalg.solve(M, bundle.N @ tau)
            assert np.linalg.norm(acc) < 1e-8 * max(np.linalg.norm(tau), 1.0)


def test_task_dynamics_rejects_bad_inputs(iiwa):
    minv = dynamics_at(iiwa, np.zeros(7)).minv
    with pytest.raises(ValueError):
        rbd.task_dynamics(np.zeros((8, 7)), minv)
    with pytest.raises(ValueError):
        rbd.task_dynamics(np.full((2, 7), np.nan), minv)


# ---------------------------------------------------------------------------
# invariants


def test_mass_matrix_spd_random_draws(iiwa):
    rng = np.random.default_rng(42)
    for _ in range(300):
        q = rng.uniform(iiwa.q_min, iiwa.q_max)
        M = rbd.mass_matrix(iiwa, rbd.Kinematics(iiwa, q))
        assert np.abs(M - M.T).max() < 1e-10
        np.linalg.cholesky(M)


def test_passivity_short(iiwa_dict):
    """Free motion with zero gravity conserves kinetic energy (smoke length)."""
    model = rbd.model_from_dict(dict(iiwa_dict, gravity=[0.0, 0.0, 0.0]))
    rng = np.random.default_rng(21)
    state = rbd.JointState(rng.uniform(-1, 1, 7), rng.uniform(-0.5, 0.5, 7))
    zero = np.zeros(7)
    e0 = 0.5 * state.qd @ rbd.mass_matrix(model, rbd.Kinematics(model, state.q)) @ state.qd
    for _ in range(2000):
        state = oracles.rk4_step(model, state, zero, None, 1e-4)
    e1 = 0.5 * state.qd @ rbd.mass_matrix(model, rbd.Kinematics(model, state.q)) @ state.qd
    assert abs(e1 - e0) / e0 < 1e-3


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_planar_fk_jacobian_consistency(q1, q2):
    model = rbd.model_from_dict(planar_dict(2))
    q = np.array([q1, q2])
    J = rbd.jacobian(model, rbd.Kinematics(model, q), model.tool_frame)

    def fk(qq):
        return frame_pose(model, qq, model.tool_frame)

    assert np.abs(J - oracles.jacobian_fd(fk, q)).max() < 1e-5


# ---------------------------------------------------------------------------
# model loading


def test_loader_rejects_bad_limits(iiwa_dict):
    bad = {**iiwa_dict, "joints": [dict(j) for j in iiwa_dict["joints"]]}
    bad["joints"][2] = dict(bad["joints"][2], q_min=2.0, q_max=-2.0)
    with pytest.raises(rbd.ModelError, match=r"joints\[2\].*q_min"):
        rbd.model_from_dict(bad, source="m")


def test_loader_rejects_bad_inertia(iiwa_dict):
    bad = {**iiwa_dict, "joints": [dict(j) for j in iiwa_dict["joints"]]}
    link = dict(bad["joints"][0]["link"], inertia=[-1.0, 1.0, 1.0, 0, 0, 0])
    bad["joints"][0] = dict(bad["joints"][0], link=link)
    with pytest.raises(rbd.ModelError, match=r"joints\[0\].link.inertia"):
        rbd.model_from_dict(bad, source="m")


def test_loader_rejects_non_unit_axis(iiwa_dict):
    bad = {**iiwa_dict, "joints": [dict(j) for j in iiwa_dict["joints"]]}
    bad["joints"][1] = dict(bad["joints"][1], axis=[0, 0, 2])
    with pytest.raises(rbd.ModelError, match="unit"):
        rbd.model_from_dict(bad, source="m")


def test_loader_reports_missing_field(iiwa_dict):
    bad = {**iiwa_dict, "joints": [dict(j) for j in iiwa_dict["joints"]]}
    del bad["joints"][4]["axis"]
    with pytest.raises(rbd.ModelError, match=r"joints\[4\].*axis"):
        rbd.model_from_dict(bad, source="m")


@pytest.mark.parametrize("kind, message", [("missing", "no such file or directory"),
                                           ("directory", "is a directory"),
                                           ("not_utf8", "not UTF-8 text")])
def test_load_model_reports_an_unreadable_file(kind, message, tmp_path):
    """A model file that cannot be read is a ModelError naming its path,
    with the message a scenario file gets."""
    path = tmp_path / "model.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(rbd.ModelError, match=re.escape(f"{path}: {message}")):
        rbd.load_model(path)


def test_a_nul_byte_in_a_path_is_reported_with_the_path():
    """open() refuses a path with a NUL byte; the model loader reports it as
    a ModelError naming the path, and the scenario reader as an issue, with
    the NUL byte written as \\x00."""
    with pytest.raises(rbd.ModelError, match=re.escape("a\\x00b.json: embedded null byte")):
        rbd.load_model("a\x00b.json")
    assert sim.read_scenario("a\x00b.json") == (
        None, [("error", "a\\x00b.json: embedded null byte")])


def test_model_is_immutable(iiwa):
    with pytest.raises(ValueError):
        iiwa.masses[0] = 5.0
