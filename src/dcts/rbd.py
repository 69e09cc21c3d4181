"""Rigid-body kinematics and dynamics for fixed-base revolute serial chains.

World-frame formulation throughout:

- forward kinematics / geometric Jacobians (linear rows stacked over angular),
- joint-space inertia M(q) from the per-link COM Jacobians in one matmul,
- Coriolis/centrifugal vector nu(q, qd) and gravity vector g(q) via recursive
  Newton-Euler, so that inverse_dynamics(q, qd, qdd) == M qdd + nu + g holds
  to machine precision,
- task-space inertia Lambda = (J M^-1 J^T + eps I)^-1 from ``lambda_factor``,
  the one Cholesky factor of J M^-1 J^T, the dynamically consistent
  pseudoinverse Jbar = M^-1 J^T Lambda and the projector N = I - J^T Jbar^T.

A RobotModel is immutable after load; every function here is a pure function
of its arguments. The model loader's file reader and field converters serve
the scenario parser in ``sim`` too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs


class ModelError(ValueError):
    """Raised when a robot model file cannot be read or violates the schema or
    its invariants."""


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix for fixed-axis roll/pitch/yaw: Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    return np.array(_rodrigues(*axis, angle)).reshape(3, 3)


def _rodrigues(x: float, y: float, z: float, angle: float) -> tuple:
    """The entries of ``axis_rotation``, row by row, as Python floats."""
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return (x * x * C + c, x * y * C - z * s, x * z * C + y * s,
            y * x * C + z * s, y * y * C + c, y * z * C - x * s,
            z * x * C - y * s, z * y * C + x * s, z * z * C + c)


def _transform(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = translation
    return T


# (a x b)_k = a_{k+1} b_{k+2} - a_{k+2} b_{k+1}, indices mod 3: both products
# of every component in one 6-vector, minuend half first
_A6, _B6 = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _bcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched cross product over the last axis, with np.cross's products and
    differences in four numpy calls."""
    ab = a.take(_A6, -1) * b.take(_B6, -1)
    return ab[..., :3] - ab[..., 3:]


@dataclass(frozen=True)
class RobotModel:
    """Fixed-base serial chain of revolute joints.

    ``origins[i]`` is the fixed transform from the parent link frame to joint
    frame i (the child link frame); rotation by ``q[i]`` about ``axes[i]``
    happens inside that frame. Link inertial data (``masses``, ``coms``,
    ``inertias`` about the COM) is expressed in the child link frame.
    ``tool`` is a fixed transform from the last link frame to the tool frame,
    addressed as frame index ``n``.
    """

    name: str
    origins: np.ndarray      # (n, 4, 4)
    axes: np.ndarray         # (n, 3) unit vectors in the joint frame
    masses: np.ndarray       # (n,) [kg]
    coms: np.ndarray         # (n, 3) [m]
    inertias: np.ndarray     # (n, 3, 3) [kg m^2], about COM, link frame
    q_min: np.ndarray        # (n,) [rad]
    q_max: np.ndarray
    v_min: np.ndarray        # (n,) [rad/s]
    v_max: np.ndarray
    tau_min: np.ndarray      # (n,) [N m]
    tau_max: np.ndarray
    gravity: np.ndarray      # (3,) [m/s^2]
    tool: np.ndarray         # (4, 4)
    armature: np.ndarray     # (n,) [kg m^2] reflected drive inertia, may be zero

    def __post_init__(self):
        for name in ("origins", "axes", "masses", "coms", "inertias", "q_min",
                     "q_max", "v_min", "v_max", "tau_min", "tau_max",
                     "gravity", "tool", "armature"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def tool_frame(self) -> int:
        return self.n

    def check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (self.n,) or q.ndim > 2:
            raise ValueError(f"expected joint vector of shape ({self.n},) or (B, {self.n}), "
                             f"got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("joint vector has non-finite entries")
        return q

    def check_frame(self, frame: int) -> int:
        if not 0 <= frame <= self.n:
            raise ValueError(f"frame index {frame} outside 0..{self.n} (tool frame is {self.n})")
        return frame


@dataclass
class JointState:
    """Joint positions and velocities, the integrator's state."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qd = np.asarray(self.qd, dtype=float)
        if self.q.shape != self.qd.shape or self.q.ndim not in (1, 2):
            raise ValueError("q and qd must be 1-d vectors of equal length, "
                             "or (B, n) batches of them")
        if not (np.isfinite(self.q).all() and np.isfinite(self.qd).all()):
            raise ValueError("joint state has non-finite entries")

    def copy(self) -> "JointState":
        return JointState(self.q.copy(), self.qd.copy())


@dataclass
class TaskDynamicsBundle:
    """Task-space dynamic quantities for one task Jacobian."""

    J: np.ndarray           # (m, n)
    Lambda: np.ndarray      # (m, m)
    Jbar: np.ndarray        # (n, m)
    N: np.ndarray           # (n, n) torque null-space projector I - J^T Jbar^T


# ---------------------------------------------------------------------------
# kinematics
#
# The plant path takes the Kinematics of a configuration q of shape (n,) or
# of a batch of them, shape (B, n), and returns every result with the same
# leading batch axis.
# Each batch row is computed with the arithmetic of an unbatched call, so it
# equals that call byte for byte.


_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


def link_transforms(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """World transforms of every link frame plus the tool frame, shape
    (n+1, 4, 4), or (B, n+1, 4, 4) for a batch of configurations."""
    q = model.check_q(q)
    batch = q.shape[:-1]
    n = model.n
    # every joint's rotation in one array, its entries Python floats
    entries = [_rodrigues(x, y, z, angle)
               for (x, y, z), column in zip(model.axes.tolist(), q.reshape(-1, n).T.tolist())
               for angle in column]
    R = np.fromiter(chain.from_iterable(entries), float, 9 * len(entries))
    R = R.reshape(n, *batch, 3, 3)
    # each joint's transform from its parent frame: the origin with the
    # joint's rotation folded in, all joints in one batched matmul
    origins = model.origins.reshape(n, *(1,) * len(batch), 4, 4)
    local = np.broadcast_to(origins, (n, *batch, 4, 4)).copy()
    np.matmul(origins[..., :3, :3], R, out=local[..., :3, :3])
    out = np.empty((*batch, n + 1, 4, 4))
    T = _EYE4
    for i in range(n):
        T = np.matmul(T, local[i], out=out[..., i, :, :])
    np.matmul(T, model.tool, out=out[..., n, :, :])
    return out


class Kinematics:
    """World-frame per-link quantities of one configuration q, built once and
    handed to everything evaluated at q: the link ``transforms`` and, per
    link, the joint axis ``z``, joint origin ``p``, COM ``c`` and inertia
    about the COM ``Iw``. A batch of configurations gives each field a
    leading batch axis."""

    __slots__ = ("transforms", "z", "p", "c", "Iw")

    def __init__(self, model: RobotModel, q: np.ndarray):
        self.transforms = link_transforms(model, q)
        R = self.transforms[..., :model.n, :3, :3]
        self.p = self.transforms[..., :model.n, :3, 3]
        self.z = (R @ model.axes[:, :, None])[..., 0]
        self._set_inertial(model)

    def _set_inertial(self, model: RobotModel) -> None:
        R = self.transforms[..., :model.n, :3, :3]
        self.c = (R @ model.coms[:, :, None])[..., 0] + self.p
        self.Iw = R @ model.inertias @ R.swapaxes(-1, -2)

    def with_inertia(self, model: RobotModel) -> "Kinematics":
        """The Kinematics of ``model`` at the same q, for a model that differs
        from this one's only in link masses, COMs and inertias (a plant
        carrying a payload): ``transforms``, ``z`` and ``p`` are shared, and
        only ``c`` and ``Iw`` are computed."""
        out = Kinematics.__new__(Kinematics)
        out.transforms, out.z, out.p = self.transforms, self.z, self.p
        out._set_inertial(model)
        return out

    @classmethod
    def stack(cls, kins: list["Kinematics"]) -> "Kinematics":
        """The batched Kinematics of configurations whose Kinematics exist."""
        out = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(out, name, np.array([getattr(kin, name) for kin in kins]))
        return out

    def point(self, frame: int, point: np.ndarray | None = None) -> np.ndarray:
        """World position of a point given in the frame's own coordinates
        (default: the frame origin)."""
        T = self.transforms[..., frame, :, :]
        return (T[..., :3, 3] if point is None
                else T[..., :3, :3] @ np.asarray(point, float) + T[..., :3, 3])


def jacobian(model: RobotModel, kin: Kinematics, frame: int,
             point: np.ndarray | None = None,
             x: np.ndarray | None = None) -> np.ndarray:
    """Geometric Jacobian (3 linear rows over 3 angular rows) of a frame point
    at the configuration of ``kin``.

    ``point`` is an offset expressed in the frame's own coordinates (default:
    the frame origin). Row sub-selection for tasks is the caller's job.
    ``x`` is the point's world position, ``kin.point(frame, point)``, when
    the caller has it; the same holds in ``jacobian_dot_qd``.
    """
    frame = model.check_frame(frame)
    if x is None:
        x = kin.point(frame, point)
    J = np.zeros((*kin.z.shape[:-2], 6, model.n))
    last = model.n - 1 if frame == model.n else frame
    z, p = kin.z[..., :last + 1, :], kin.p[..., :last + 1, :]
    J[..., :3, :last + 1] = _bcross(z, x[..., None, :] - p).swapaxes(-1, -2)
    J[..., 3:, :last + 1] = z.swapaxes(-1, -2)
    return J


def jacobian_dot_qd(model: RobotModel, dyn: ChainDynamics, frame: int,
                    point: np.ndarray | None = None,
                    x: np.ndarray | None = None) -> np.ndarray:
    """The drift acceleration Jdot qd of a frame point at the state of ``dyn``.

    Equals the classical acceleration [a; alpha] of the point when qdd = 0 and
    gravity is off; no finite differences and no explicit Jdot. It is read
    from ``dyn.velocity``, the (w, dw, a_joint) of that velocity recursion;
    the point reads only links up to its frame's, which later joint rates do
    not reach.
    """
    frame = model.check_frame(frame)
    last = model.n - 1 if frame == model.n else frame
    w, dw, a_joint = (v[..., last, :] for v in dyn.velocity)
    if x is None:
        x = dyn.kin.point(frame, point)
    a_point = a_joint + _rigid_acceleration(w, dw, x - dyn.kin.p[..., last, :])
    return np.concatenate([a_point, dw], axis=-1)


# ---------------------------------------------------------------------------
# dynamics


def mass_matrix(model: RobotModel, kin: Kinematics) -> np.ndarray:
    """Joint-space inertia M(q) = sum_i (m_i Jv_i^T Jv_i + Jw_i^T I_i Jw_i)
    at the configuration of ``kin``.

    Built from batched per-link COM Jacobians in one matmul; symmetric
    positive definite.
    """
    n = model.n
    batch = kin.z.shape[:-2]
    # left[j, i] = [z_j x (c_i - p_j), z_j]: joint j's column of link i's
    # [Jv; Jw]; right[k, i] = [m_i Jv_i, I_i Jw_i] of joint k, zero unless
    # k <= i (I_i symmetric, so (I_i z_k)^T = z_k^T I_i)
    left = np.empty((*batch, n, n, 6))
    z = kin.z[..., :, None, :]
    ab = z.take(_A6, -1) * (kin.c[..., None, :, :] - kin.p[..., :, None, :]).take(_B6, -1)
    np.subtract(ab[..., :3], ab[..., 3:], out=left[..., :3])
    left[..., 3:] = z
    right = np.empty_like(left)
    mask = _upper_mask(n)
    np.multiply(left[..., :3], model.masses[:, None] * mask, out=right[..., :3])
    zI = kin.z @ kin.Iw.swapaxes(-3, -2).reshape(*batch, 3, 3 * n)
    np.multiply(zI.reshape(*batch, n, n, 3), mask, out=right[..., 3:])
    # row j, column k >= j sums over the links i >= k that both joints move;
    # the entries below the diagonal are their mirror images
    A = left.reshape(*batch, n, 6 * n) @ right.reshape(*batch, n, 6 * n).swapaxes(-1, -2)
    M = np.where(mask[:, :, 0], A, A.swapaxes(-1, -2))
    M.reshape(-1, n * n)[:, ::n + 1] += model.armature     # the diagonal
    return M


@lru_cache
def _upper_mask(n: int) -> np.ndarray:
    """1 on and above the diagonal of an (n, n, 1) array, 0 below: row j,
    column i is 1 where joint j moves link i."""
    mask = np.tri(n).T[:, :, None].copy()
    mask.setflags(write=False)
    return mask


def _shifted(x: np.ndarray) -> np.ndarray:
    """x moved one link down the chain, zero at the base: row i holds x[i-1]."""
    out = np.empty_like(x)
    out[..., 0, :] = 0.0
    out[..., 1:, :] = x[..., :-1, :]
    return out


def _velocity_recursion(kin: Kinematics, qd: np.ndarray, qdd: np.ndarray,
                        a_base: np.ndarray):
    """Batched forward pass: per-link w, dw, joint-origin and COM accelerations.

    All recursions are prefix sums of locally computable increments, so the
    whole pass is a handful of vectorized operations, and link i's values
    depend on the joint rates up to i only. ``qd``, ``qdd`` and ``a_base``
    may carry a leading batch axis, which broadcasts against ``kin``'s.
    """
    z, p, c = kin.z, kin.p, kin.c
    qd, qdd = qd[..., None], qdd[..., None]
    w_inc = z * qd
    w = w_inc.cumsum(-2)
    # w_i x z_i = w_{i-1} x z_i, as z_i x z_i = 0
    dw_inc = _bcross(w, z) * qd + z * qdd
    dw = dw_inc.cumsum(-2)
    # each link's p_i moves with the link before it
    inc = _rigid_acceleration(w - w_inc, dw - dw_inc, p - _shifted(p))
    a_joint = inc.cumsum(-2) + a_base[..., None, :]
    a_com = a_joint + _rigid_acceleration(w, dw, c - p)
    return w, dw, a_joint, a_com


def _rigid_acceleration(w: np.ndarray, dw: np.ndarray, r: np.ndarray) -> np.ndarray:
    """dw x r + w x (w x r): the acceleration of a body's point relative to
    its point at -r, with w x (w x r) as w (w.r) - r (w.w)."""
    return (_bcross(dw, r) + w * np.vecdot(w, r)[..., None]
            - r * np.vecdot(w, w)[..., None])


def _rnea(model: RobotModel, kin: Kinematics, qd: np.ndarray, qdd: np.ndarray,
          gravity: np.ndarray) -> np.ndarray:
    """Newton-Euler inverse dynamics in world coordinates, batched.

    Gravity enters as a base acceleration. The backward force/moment sweep is
    expressed through suffix sums: the moment about joint origin p_i of all
    inertial forces of links j >= i is

        mu_i = revcum(I dw + w x Iw + c x (m a_com))_i - p_i x revcum(m a_com)_i

    ``qd``, ``qdd`` and ``gravity`` may carry a leading batch axis: one
    configuration's ``kin`` then serves several motions in one pass.
    """
    qdd = np.asarray(qdd, float)
    w, dw, _, a_com = _velocity_recursion(kin, np.asarray(qd, float), qdd,
                                          -np.asarray(gravity, float))
    return _force_sweep(model, kin, qdd, w, dw, a_com)


def _force_sweep(model: RobotModel, kin: Kinematics, qdd: np.ndarray,
                 w: np.ndarray, dw: np.ndarray, a_com: np.ndarray) -> np.ndarray:
    """The backward half of ``_rnea``: joint torques from a velocity pass."""
    ma = model.masses[:, None] * a_com
    Iw_w = (kin.Iw @ w[..., None])[..., 0]
    K = (kin.Iw @ dw[..., None])[..., 0] + _bcross(w, Iw_w) + _bcross(kin.c, ma)
    K_suffix = K[..., ::-1, :].cumsum(-2)[..., ::-1, :]
    ma_suffix = ma[..., ::-1, :].cumsum(-2)[..., ::-1, :]
    mu = K_suffix - _bcross(kin.p, ma_suffix)
    return np.vecdot(kin.z, mu) + model.armature * qdd


def inverse_dynamics(model: RobotModel, kin: Kinematics, qd: np.ndarray,
                     qdd: np.ndarray) -> np.ndarray:
    """Joint torques for a prescribed motion: tau = M qdd + nu + g."""
    return _rnea(model, kin, qd, qdd, model.gravity)


def bias_and_gravity(model: RobotModel, kin: Kinematics, qd: np.ndarray) -> np.ndarray:
    """nu(q, qd) + g(q) in a single Newton-Euler pass."""
    return _rnea(model, kin, qd, np.zeros(model.n), model.gravity)


def _potrf(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """One LAPACK potrf call on a matrix already checked to be finite."""
    c, info = dpotrf(A, lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def spd_factor(A: np.ndarray) -> tuple[np.ndarray, bool] | list[tuple[np.ndarray, bool]]:
    """scipy's ``cho_factor(A, lower=True)``: the same LAPACK potrf call and
    errors, without a wrapper that costs more than factorizing a 7x7 matrix.
    A batch of matrices, shape (B, n, n), is checked once and gives a list of
    B factors."""
    A = np.asarray_chkfinite(A, dtype=float)
    return [_potrf(a) for a in A] if A.ndim == 3 else _potrf(A)


def spd_solve(factor: tuple[np.ndarray, bool] | list[tuple[np.ndarray, bool]],
              b: np.ndarray) -> np.ndarray:
    """scipy's ``cho_solve(factor, b)`` as one direct LAPACK potrs call; a
    list of factors solves one row of b each, b checked once."""
    if isinstance(factor, list):
        b = np.asarray_chkfinite(b, dtype=float)
        return np.array([dpotrs(c, row, lower=lower)[0] for (c, lower), row in zip(factor, b)])
    return dpotrs(factor[0], np.asarray_chkfinite(b, dtype=float), lower=factor[1])[0]


# numpy.linalg's solve, eigvalsh and det each make one call to a gufunc of
# numpy's own LAPACK module; on a small float matrix the Python wrapper around
# it costs more than the call. These make the call alone, with the same bytes.


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(A, b)`` of a float matrix and vector (LAPACK gesv).
    A singular A raises LinAlgError, from the check ``np.linalg.solve``
    makes: the gufunc marks its NaN result as an invalid value."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.solve1(A, b)
    except FloatingPointError:
        raise LinAlgError("Singular matrix") from None


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(A)`` of a float symmetric matrix, ascending
    (LAPACK syevd on the lower triangle). Where ``np.linalg.eigvalsh``
    raises that they did not converge, the eigenvalues read NaN."""
    return _umath_linalg.eigvalsh_lo(A)


def forward_dynamics(model: RobotModel, kin: Kinematics, qd: np.ndarray,
                     tau: np.ndarray, tau_ext: np.ndarray | None = None,
                     M_cho=None, nu_g: np.ndarray | None = None) -> np.ndarray:
    """qdd = M^-1 (tau + tau_ext - nu - g); ``M_cho`` and ``nu_g`` are the
    factor of M and nu + g at (q, qd) when the caller has them."""
    if nu_g is None:
        nu_g = bias_and_gravity(model, kin, qd)
    rhs = np.asarray(tau, float) - nu_g
    if tau_ext is not None:
        rhs = rhs + tau_ext
    if M_cho is None:
        M_cho = spd_factor(mass_matrix(model, kin))
    return spd_solve(M_cho, rhs)


EPSILON_LAMBDA = 1e-6      # damping for near-singular task inertia


def lambda_factor(J: np.ndarray, minv, epsilon: float | None = None):
    """(factor, Minv_Jt, damped): the Cholesky factor of J M^-1 J^T, where
    ``minv`` maps B to M^-1 B. With ``epsilon`` None the factor is exact when
    J M^-1 J^T is well conditioned and damped by ``EPSILON_LAMBDA`` otherwise;
    a given ``epsilon`` always damps by that value."""
    Minv_Jt = minv(J.T)
    A = J @ Minv_Jt
    A = 0.5 * (A + A.T)
    if epsilon is None:
        # the condition number alone is scale-invariant; a vanishing task
        # Jacobian (fully projected away) must fall through to damping too.
        # A is symmetric, so its condition number is the ratio of its extreme
        # eigenvalues, and an eigenvalue <= 0 is as ill-conditioned as it
        # gets; a NaN one (no convergence) fails both tests, and so damps,
        # as does a potrf that finds A not positive definite after all
        try:
            if np.abs(A).max() > 1e-9:
                lam = eigvalsh(A)
                if lam[0] > 0.0 and lam[-1] < 1e10 * lam[0]:
                    return spd_factor(A), Minv_Jt, False
        except LinAlgError:
            pass
        epsilon = EPSILON_LAMBDA
    return spd_factor(A + epsilon * np.eye(A.shape[0])), Minv_Jt, True


def task_dynamics(J: np.ndarray, minv, epsilon: float = EPSILON_LAMBDA) -> TaskDynamicsBundle:
    """Task-space inertia, dynamically consistent pseudoinverse and projector.

    Lambda = (J M^-1 J^T + epsilon I)^-1 from ``lambda_factor`` (no explicit
    inversion of an ill-conditioned matrix), Jbar = M^-1 J^T Lambda and
    N = I - J^T Jbar^T. ``minv`` maps B to M^-1 B with an existing
    factorization (``ChainDynamics.minv``).
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m, n = J.shape
    if m > n:
        raise ValueError(f"task dimension {m} exceeds joint count {n}")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if not np.all(np.isfinite(J)):
        raise ValueError("task Jacobian has non-finite entries")
    factor, Minv_Jt, _ = lambda_factor(J, minv, epsilon)
    Lambda = spd_solve(factor, np.eye(m))
    Lambda = 0.5 * (Lambda + Lambda.T)
    Jbar = Minv_Jt @ Lambda
    N = np.eye(n) - J.T @ Jbar.T
    return TaskDynamicsBundle(J=J, Lambda=Lambda, Jbar=Jbar, N=N)


@dataclass
class ChainDynamics:
    """Per-tick dynamic quantities shared by controllers and metrics."""

    model: RobotModel
    q: np.ndarray
    qd: np.ndarray
    kin: Kinematics
    M: np.ndarray
    M_cho: tuple = field(repr=False)
    nu: np.ndarray
    g: np.ndarray
    nu_g: np.ndarray
    # (w, dw, a_joint) per link of nu's velocity pass (qdd = 0, no gravity),
    # from which every task's drift Jdot qd is read
    velocity: tuple = field(repr=False)

    @property
    def transforms(self) -> np.ndarray:
        return self.kin.transforms

    def minv(self, rhs: np.ndarray) -> np.ndarray:
        return spd_solve(self.M_cho, rhs)


def compute_dynamics(model: RobotModel, state: JointState) -> ChainDynamics:
    """M, its factor, nu = RNEA(qd, qdd = 0, no gravity),
    g = RNEA(qd = 0, qdd = 0, gravity) and nu + g at one state, the three
    Newton-Euler passes as one call over three rows, and nu's velocity pass."""
    kin = Kinematics(model, state.q)
    M = mass_matrix(model, kin)
    zero = np.zeros(model.n)
    gravity = model.gravity
    w, dw, a_joint, a_com = _velocity_recursion(
        kin, np.array((state.qd, zero, state.qd)), zero,
        -np.array((np.zeros(3), gravity, gravity)))
    nu, g, nu_g = _force_sweep(model, kin, zero, w, dw, a_com)
    return ChainDynamics(model=model, q=state.q.copy(), qd=state.qd.copy(),
                         kin=kin, M=M, M_cho=spd_factor(M), nu=nu, g=g, nu_g=nu_g,
                         velocity=(w[0], dw[0], a_joint[0]))


# ---------------------------------------------------------------------------
# input files: the model and scenario parsers share one reader and one set of
# converters. A converter raises TypeError or ValueError, ``_get`` a KeyError
# for a missing field, and each parser reports the error naming its field.


_REQUIRED = object()


def _floats(value, shape: tuple = (), fill: bool = True) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; with ``fill`` a number
    fills it."""
    v = np.asarray(value, dtype=float)
    if v.shape != shape:
        if v.ndim or not fill:
            raise ValueError(f"expected shape {shape}, got {v.shape}")
        v = np.full(shape, v)
    if not np.isfinite(v).all():
        raise ValueError("must be finite")
    return v


def _num(value, low: float = -math.inf, strict: bool = False) -> float:
    """A finite number >= low, or > low when strict."""
    v = float(_floats(value))
    if v < low or (strict and v == low):
        raise ValueError(f"must be {'>' if strict else '>='} {low:g}")
    return v


def _int(value, low: float = -math.inf, high: float = math.inf) -> int:
    v = _num(value)
    if not (v.is_integer() and low <= v <= high):
        raise ValueError(f"must be an integer in [{low}, {high}]")
    return int(v)


def _only(d: dict, keys: tuple, prefix: str = "") -> None:
    """Raise ValueError naming every key of ``d`` outside ``keys``."""
    unknown = [k for k in d if k not in keys]
    if unknown:
        raise ValueError(f"{prefix}unknown key {', '.join(map(repr, unknown))}")


def _obj(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _list(value, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        raise TypeError(f"expected a {'non-empty ' if nonempty else ''}list")
    return value


_positive = partial(_num, low=0.0, strict=True)
_nonneg = partial(_num, low=0.0)
_vec3 = partial(_floats, shape=(3,), fill=False)     # a number fills no 3-vector


def _get(d: dict, key: str, convert, default=_REQUIRED):
    """``convert(d[key])``, or ``convert(default)`` when the key is absent
    (None when the default is None). A missing required key raises
    KeyError; a failed conversion raises ValueError naming the key."""
    if key not in d:
        if default is _REQUIRED:
            raise KeyError(key)
        if default is None:
            return None
    try:
        return convert(d.get(key, default))
    except (TypeError, ValueError) as e:
        raise ValueError(f"{key}: {e}") from e


def _input_path(ref: str | Path, folder: str = "", base: Path | None = None) -> Path:
    """The path of an input file: ``bundled:<name>`` names the package's
    ``data/<folder><name>.json``; any other reference is a path, taken from
    ``base`` when it is relative."""
    if isinstance(ref, str) and ref.startswith("bundled:"):
        name = ref.split(":", 1)[1]
        return Path(resources.files("dcts").joinpath(f"data/{folder}{name}.json"))
    return Path(base or "", ref)


def _escaped(text: str | Path) -> str:
    """``text`` with each C0 control character and DEL written as ``\\xNN``,
    so that a message echoing it sends none of them to a terminal."""
    return str(text).translate({c: f"\\x{c:02x}" for c in (*range(32), 127)})


def _read_json(path: Path, error: type[ValueError] = ModelError):
    """The parsed JSON of a file. A missing or unreadable file, a path with a
    NUL byte, text that is not UTF-8 and invalid JSON raise ``error`` with a
    message that starts with the path, its control characters escaped."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise error(f"{_escaped(path)}: {e.strerror.lower()}") from e
    except UnicodeDecodeError as e:
        raise error(f"{_escaped(path)}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    except json.JSONDecodeError as e:
        raise error(f"{_escaped(path)}:{e.lineno}: invalid JSON ({e.msg})") from e
    except ValueError as e:             # open() refuses a NUL byte in the path
        raise error(f"{_escaped(path)}: {e}") from e


def _axis(value) -> np.ndarray:
    """Three numbers of unit norm, within 1e-9."""
    v = _floats(value, (3,), fill=False)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"must be unit norm, got |axis| = {norm}")
    return v


def _inertia(value) -> np.ndarray:
    """The positive definite tensor of [ixx, iyy, izz, ixy, ixz, iyz]."""
    i = _floats(value, (6,), fill=False)
    I = np.array([[i[0], i[3], i[4]], [i[3], i[1], i[5]], [i[4], i[5], i[2]]])
    if np.linalg.eigvalsh(I).min() <= 0:
        raise ValueError("tensor is not positive definite")
    return I


def model_from_dict(data: dict, source: str = "<dict>") -> RobotModel:
    """Build and validate a RobotModel from parsed JSON (see README for the
    schema); a ModelError names the first bad field."""

    def read(d, key, convert, default=_REQUIRED, where=source):
        """``_get(d, key, convert, default)``, every error a ModelError naming
        ``where.key``, or ``where`` when ``d`` is not an object."""
        try:
            return _get(_obj(d), key, convert, default)
        except KeyError as e:
            raise ModelError(f"{where}: missing field {e}") from None
        except TypeError as e:          # from _obj: _get reports a convert's as ValueError
            raise ModelError(f"{where}: {e}") from None
        except ValueError as e:
            raise ModelError(f"{where}.{e}") from e

    bounds = (("q_min", "q_max"), ("v_min", "v_max"), ("tau_min", "tau_max"))
    rows = []
    for i, j in enumerate(read(data, "joints", partial(_list, nonempty=True))):
        joint = partial(read, j, where=f"{source}.joints[{i}]")
        link = partial(read, joint("link", _obj), where=f"{source}.joints[{i}].link")
        row = {k: joint(k, _num) for pair in bounds for k in pair}
        for lo, hi in bounds:
            if row[lo] >= row[hi]:
                raise ModelError(f"{source}.joints[{i}]: {lo} must be < {hi}")
        rows.append(dict(row,
                         origins=_transform(rpy_matrix(*joint("origin_rpy", _vec3)),
                                            joint("origin_xyz", _vec3)),
                         axes=joint("axis", _axis),
                         masses=link("mass", _positive),
                         coms=link("com", _vec3),
                         inertias=link("inertia", _inertia),
                         armature=joint("armature", _nonneg, 0.0)))
    tool = partial(read, read(data, "tool", _obj, {"xyz": [0, 0, 0], "rpy": [0, 0, 0]}),
                   where=source + ".tool")
    return RobotModel(name=str(data.get("name", "unnamed")),
                      gravity=read(data, "gravity", _vec3),
                      tool=_transform(rpy_matrix(*tool("rpy", _vec3)), tool("xyz", _vec3)),
                      **{k: np.array([row[k] for row in rows]) for k in rows[0]})


def load_model(path: str | Path) -> RobotModel:
    path = Path(path)
    return model_from_dict(_read_json(path), source=str(path))


def bundled_model_path(name: str = "iiwa14") -> Path:
    """Path of a model file shipped with the package."""
    return _input_path(f"bundled:{name}")


def load_bundled_model(name: str = "iiwa14") -> RobotModel:
    return load_model(bundled_model_path(name))


# ---------------------------------------------------------------------------
# rotation helpers shared by tasks and tests


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (angle in [0, pi])."""
    tr = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    angle = math.acos(tr)
    if angle < 1e-12:
        return np.zeros(3)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if math.pi - angle < 1e-6:
        # near pi the skew part degenerates; fall back to the symmetric part
        A = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(A), 0.0, None))
        axis = axis * np.sign(w + 1e-300)
        return angle * axis / np.linalg.norm(axis)
    return angle * w / (2.0 * math.sin(angle))
