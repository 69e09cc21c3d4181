"""Rigid-body kinematics and dynamics for fixed-base revolute serial chains.

World-frame formulation throughout:

- forward kinematics / geometric Jacobians (linear rows stacked over angular),
- joint-space inertia M(q) via a composite-rigid-body pass,
- Coriolis/centrifugal vector nu(q, qd) and gravity vector g(q) via recursive
  Newton-Euler, so that inverse_dynamics(q, qd, qdd) == M qdd + nu + g holds
  to machine precision,
- task-space inertia Lambda = (J M^-1 J^T + eps I)^-1, the dynamically
  consistent pseudoinverse Jbar = M^-1 J^T Lambda and the torque null-space
  projector N = I - J^T Jbar^T, all computed through Cholesky solves.

A RobotModel is immutable after load; every function here is a pure function
of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs


class ModelError(ValueError):
    """Raised when a robot model file violates the schema or its invariants."""


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-9:
        raise ModelError(f"{what}: axis must be unit norm, got |axis| = {n}")
    return v


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
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([
        [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
    ])


def _transform(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = translation
    return T


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _bcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched cross product over the last axis; avoids np.cross overhead."""
    return (a.take(_NEXT, -1) * b.take(_PREV, -1)
            - a.take(_PREV, -1) * b.take(_NEXT, -1))


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
        if q.shape != (self.n,):
            raise ValueError(f"expected joint vector of shape ({self.n},), got {q.shape}")
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
        if self.q.shape != self.qd.shape or self.q.ndim != 1:
            raise ValueError("q and qd must be 1-d vectors of equal length")
        if not (np.isfinite(self.q).all() and np.isfinite(self.qd).all()):
            raise ValueError("joint state has non-finite entries")

    def copy(self) -> "JointState":
        return JointState(self.q.copy(), self.qd.copy())


@dataclass
class FramePose:
    """Position and rotation of a link frame in world coordinates."""

    position: np.ndarray    # (3,)
    rotation: np.ndarray    # (3, 3)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-9 or abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ValueError(f"rotation is not orthonormal/proper (error {err:.2e})")


@dataclass
class TaskDynamicsBundle:
    """Task-space dynamic quantities for one task Jacobian."""

    J: np.ndarray           # (m, n)
    Lambda: np.ndarray      # (m, m)
    Jbar: np.ndarray        # (n, m)
    N: np.ndarray           # (n, n) torque null-space projector I - J^T Jbar^T


# ---------------------------------------------------------------------------
# kinematics


def link_transforms(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """World transforms of every link frame plus the tool frame, shape (n+1, 4, 4)."""
    q = model.check_q(q)
    out = np.empty((model.n + 1, 4, 4))
    T = np.eye(4)
    for i, (axis, angle) in enumerate(zip(model.axes.tolist(), q.tolist())):
        T = T @ model.origins[i]
        T[:3, :3] = T[:3, :3] @ axis_rotation(axis, angle)
        out[i] = T
    out[model.n] = T @ model.tool
    return out


class _KinData:
    """Batched world-frame per-link quantities shared by the dynamics passes."""

    __slots__ = ("z", "p", "c", "Iw")

    def __init__(self, model: RobotModel, transforms: np.ndarray):
        R = transforms[:model.n, :3, :3]
        self.p = transforms[:model.n, :3, 3]
        self.z = np.einsum("nij,nj->ni", R, model.axes)
        self.c = np.einsum("nij,nj->ni", R, model.coms) + self.p
        self.Iw = np.einsum("nij,njk,nlk->nil", R, model.inertias, R)


def forward_kinematics(model: RobotModel, q: np.ndarray, frame: int) -> FramePose:
    """Pose of the given link frame (``n`` = tool frame) in the world frame."""
    frame = model.check_frame(frame)
    T = link_transforms(model, q)[frame]
    return FramePose(T[:3, 3].copy(), T[:3, :3].copy())


def jacobian(model: RobotModel, q: np.ndarray, frame: int,
             point: np.ndarray | None = None,
             transforms: np.ndarray | None = None) -> np.ndarray:
    """Geometric Jacobian (3 linear rows over 3 angular rows) of a frame point.

    ``point`` is an offset expressed in the frame's own coordinates (default:
    the frame origin). Row sub-selection for tasks is the caller's job.
    """
    frame = model.check_frame(frame)
    if transforms is None:
        transforms = link_transforms(model, q)
    T = transforms[frame]
    x = T[:3, 3] if point is None else T[:3, :3] @ np.asarray(point, float) + T[:3, 3]
    kin = _KinData(model, transforms)
    J = np.zeros((6, model.n))
    last = model.n - 1 if frame == model.n else frame
    z, p = kin.z[:last + 1], kin.p[:last + 1]
    J[:3, :last + 1] = _bcross(z, x - p).T
    J[3:, :last + 1] = z.T
    return J


def jacobian_dot_qd(model: RobotModel, q: np.ndarray, qd: np.ndarray, frame: int,
                    point: np.ndarray | None = None,
                    transforms: np.ndarray | None = None) -> np.ndarray:
    """The drift acceleration Jdot qd of a frame point, via velocity recursion.

    Equals the classical acceleration [a; alpha] of the point when qdd = 0 and
    gravity is off; no finite differences and no explicit Jdot.
    """
    frame = model.check_frame(frame)
    qd = np.asarray(qd, dtype=float)
    if transforms is None:
        transforms = link_transforms(model, q)
    kin = _KinData(model, transforms)
    last = model.n - 1 if frame == model.n else frame
    qd_masked = qd.copy()
    qd_masked[last + 1:] = 0.0
    w, dw, a_joint, _ = _velocity_recursion(kin, qd_masked, np.zeros(model.n),
                                            np.zeros(3))
    T = transforms[frame]
    x = T[:3, 3] if point is None else T[:3, :3] @ np.asarray(point, float) + T[:3, 3]
    r = x - kin.p[last]
    a_point = (a_joint[last] + _bcross(dw[last], r)
               + _bcross(w[last], _bcross(w[last], r)))
    return np.concatenate([a_point, dw[last]])


# ---------------------------------------------------------------------------
# dynamics


def mass_matrix(model: RobotModel, q: np.ndarray,
                transforms: np.ndarray | None = None,
                kin: "_KinData | None" = None) -> np.ndarray:
    """Joint-space inertia M(q) = sum_i (m_i Jv_i^T Jv_i + Jw_i^T I_i Jw_i).

    Built from batched per-link COM Jacobians; symmetric positive definite.
    """
    if transforms is None:
        transforms = link_transforms(model, q)
    if kin is None:
        kin = _KinData(model, transforms)
    n = model.n
    # V[i, j] = z_j x (c_i - p_j) for j <= i, else 0; W[i, j] = z_j for j <= i
    mask = np.tri(n)[:, :, None]
    lever = kin.c[:, None, :] - kin.p[None, :, :]
    V = _bcross(kin.z[None, :, :], lever) * mask
    W = kin.z[None, :, :] * mask
    M = np.einsum("i,ija,ika->jk", model.masses, V, V)
    M += np.einsum("ija,iab,ikb->jk", W, kin.Iw, W)
    M = 0.5 * (M + M.T)
    M.flat[::n + 1] += model.armature            # the diagonal
    return M


def _velocity_recursion(kin: "_KinData", qd: np.ndarray, qdd: np.ndarray,
                        a_base: np.ndarray):
    """Batched forward pass: per-link w, dw, joint-origin and COM accelerations.

    All recursions are prefix sums of locally computable increments, so the
    whole pass is a handful of vectorized operations.
    """
    z, p, c = kin.z, kin.p, kin.c
    w = np.cumsum(z * qd[:, None], axis=0)
    w_prev = np.concatenate((np.zeros((1, 3)), w[:-1]))
    dw = np.cumsum(_bcross(w_prev, z) * qd[:, None] + z * qdd[:, None], axis=0)
    dw_prev = np.concatenate((np.zeros((1, 3)), dw[:-1]))
    dp = p - np.concatenate((np.zeros((1, 3)), p[:-1]))
    inc = _bcross(dw_prev, dp) + _bcross(w_prev, _bcross(w_prev, dp))
    a_joint = np.cumsum(inc, axis=0) + a_base
    rc = c - p
    a_com = a_joint + _bcross(dw, rc) + _bcross(w, _bcross(w, rc))
    return w, dw, a_joint, a_com


def _rnea(model: RobotModel, q: np.ndarray, qd: np.ndarray, qdd: np.ndarray,
          gravity: np.ndarray, transforms: np.ndarray | None = None,
          kin: "_KinData | None" = None) -> np.ndarray:
    """Newton-Euler inverse dynamics in world coordinates, batched.

    Gravity enters as a base acceleration. The backward force/moment sweep is
    expressed through suffix sums: the moment about joint origin p_i of all
    inertial forces of links j >= i is

        mu_i = revcum(I dw + w x Iw + c x (m a_com))_i - p_i x revcum(m a_com)_i
    """
    if transforms is None:
        transforms = link_transforms(model, q)
    if kin is None:
        kin = _KinData(model, transforms)
    w, dw, _, a_com = _velocity_recursion(kin, np.asarray(qd, float),
                                          np.asarray(qdd, float),
                                          -np.asarray(gravity, float))
    ma = model.masses[:, None] * a_com
    Iw_w = np.einsum("nij,nj->ni", kin.Iw, w)
    K = np.einsum("nij,nj->ni", kin.Iw, dw) + _bcross(w, Iw_w) + _bcross(kin.c, ma)
    K_suffix = np.cumsum(K[::-1], axis=0)[::-1]
    ma_suffix = np.cumsum(ma[::-1], axis=0)[::-1]
    mu = K_suffix - _bcross(kin.p, ma_suffix)
    return np.einsum("ni,ni->n", kin.z, mu) + model.armature * qdd


def inverse_dynamics(model: RobotModel, q: np.ndarray, qd: np.ndarray,
                     qdd: np.ndarray,
                     transforms: np.ndarray | None = None) -> np.ndarray:
    """Joint torques for a prescribed motion: tau = M qdd + nu + g."""
    q = model.check_q(q)
    return _rnea(model, q, np.asarray(qd, float), np.asarray(qdd, float),
                 model.gravity, transforms)


def bias_forces(model: RobotModel, q: np.ndarray, qd: np.ndarray,
                transforms: np.ndarray | None = None,
                kin: "_KinData | None" = None) -> np.ndarray:
    """Coriolis/centrifugal torques nu(q, qd), gravity excluded."""
    q = model.check_q(q)
    return _rnea(model, q, np.asarray(qd, float), np.zeros(model.n),
                 np.zeros(3), transforms, kin)


def gravity_forces(model: RobotModel, q: np.ndarray,
                   transforms: np.ndarray | None = None,
                   kin: "_KinData | None" = None) -> np.ndarray:
    """Gravity torques g(q)."""
    q = model.check_q(q)
    zero = np.zeros(model.n)
    return _rnea(model, q, zero, zero, model.gravity, transforms, kin)


def bias_and_gravity(model: RobotModel, q: np.ndarray, qd: np.ndarray,
                     transforms: np.ndarray | None = None,
                     kin: "_KinData | None" = None) -> np.ndarray:
    """nu(q, qd) + g(q) in a single Newton-Euler pass."""
    q = model.check_q(q)
    return _rnea(model, q, np.asarray(qd, float), np.zeros(model.n),
                 model.gravity, transforms, kin)


def spd_factor(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """scipy's ``cho_factor(A, lower=True)``: the same LAPACK potrf call and
    errors, without a wrapper that costs more than factorizing a 7x7 matrix."""
    c, info = dpotrf(np.asarray_chkfinite(A, dtype=float), lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def spd_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """scipy's ``cho_solve(factor, b)`` as one direct LAPACK potrs call."""
    return dpotrs(factor[0], np.asarray_chkfinite(b, dtype=float), lower=factor[1])[0]


def forward_dynamics(model: RobotModel, q: np.ndarray, qd: np.ndarray,
                     tau: np.ndarray, tau_ext: np.ndarray | None = None,
                     transforms: np.ndarray | None = None,
                     M_cho=None) -> np.ndarray:
    """qdd = M^-1 (tau + tau_ext - nu - g)."""
    if transforms is None:
        transforms = link_transforms(model, q)
    kin = _KinData(model, transforms)
    rhs = np.asarray(tau, float) - bias_and_gravity(model, q, qd, transforms, kin)
    if tau_ext is not None:
        rhs = rhs + tau_ext
    if M_cho is None:
        M_cho = spd_factor(mass_matrix(model, q, transforms, kin))
    return spd_solve(M_cho, rhs)


def task_dynamics(model: RobotModel, q: np.ndarray, J: np.ndarray,
                  epsilon: float = 1e-6,
                  minv=None) -> TaskDynamicsBundle:
    """Task-space inertia, dynamically consistent pseudoinverse and projector.

    Lambda = (J M^-1 J^T + epsilon I)^-1 through Cholesky solves (no explicit
    inversion of an ill-conditioned matrix), Jbar = M^-1 J^T Lambda and
    N = I - J^T Jbar^T. ``minv`` maps B to M^-1 B with an existing
    factorization (``ChainDynamics.minv``); without it M(q) is built and
    factorized here.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m, n = J.shape
    if m > n:
        raise ValueError(f"task dimension {m} exceeds joint count {n}")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if not np.all(np.isfinite(J)):
        raise ValueError("task Jacobian has non-finite entries")
    if minv is None:
        Minv_Jt = spd_solve(spd_factor(mass_matrix(model, q)), J.T)
    else:
        Minv_Jt = minv(J.T)
    A = J @ Minv_Jt
    A = 0.5 * (A + A.T) + epsilon * np.eye(m)
    Lambda = spd_solve(spd_factor(A), np.eye(m))
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
    transforms: np.ndarray
    M: np.ndarray
    M_cho: tuple = field(repr=False, default=None)
    nu: np.ndarray = None
    g: np.ndarray = None

    def minv(self, rhs: np.ndarray) -> np.ndarray:
        return spd_solve(self.M_cho, rhs)


def compute_dynamics(model: RobotModel, state: JointState) -> ChainDynamics:
    transforms = link_transforms(model, state.q)
    kin = _KinData(model, transforms)
    M = mass_matrix(model, state.q, transforms, kin)
    nu = bias_forces(model, state.q, state.qd, transforms, kin)
    g = gravity_forces(model, state.q, transforms, kin)
    return ChainDynamics(model=model, q=state.q.copy(), qd=state.qd.copy(),
                         transforms=transforms, M=M,
                         M_cho=spd_factor(M), nu=nu, g=g)


# ---------------------------------------------------------------------------
# model loading


def _get(d: dict, key: str, where: str):
    if key not in d:
        raise ModelError(f"{where}: missing field '{key}'")
    return d[key]


def _vec(d: dict, key: str, size: int, where: str) -> np.ndarray:
    v = np.asarray(_get(d, key, where), dtype=float)
    if v.shape != (size,):
        raise ModelError(f"{where}.{key}: expected {size} numbers, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ModelError(f"{where}.{key}: non-finite value")
    return v


def model_from_dict(data: dict, source: str = "<dict>") -> RobotModel:
    """Build and validate a RobotModel from parsed JSON (see README for the schema)."""
    joints = _get(data, "joints", source)
    if not isinstance(joints, list) or len(joints) < 1:
        raise ModelError(f"{source}.joints: need at least one joint")
    n = len(joints)

    origins = np.empty((n, 4, 4))
    axes = np.empty((n, 3))
    masses = np.empty(n)
    coms = np.empty((n, 3))
    inertias = np.empty((n, 3, 3))
    lim = {k: np.empty(n) for k in ("q_min", "q_max", "v_min", "v_max", "tau_min", "tau_max")}

    for i, j in enumerate(joints):
        where = f"{source}.joints[{i}]"
        xyz = _vec(j, "origin_xyz", 3, where)
        rpy = _vec(j, "origin_rpy", 3, where)
        origins[i] = _transform(rpy_matrix(*rpy), xyz)
        axes[i] = _unit(_vec(j, "axis", 3, where), where)
        link = _get(j, "link", where)
        lwhere = where + ".link"
        masses[i] = float(_get(link, "mass", lwhere))
        if masses[i] <= 0:
            raise ModelError(f"{lwhere}.mass: must be > 0, got {masses[i]}")
        coms[i] = _vec(link, "com", 3, lwhere)
        ivals = _vec(link, "inertia", 6, lwhere)     # ixx iyy izz ixy ixz iyz
        I = np.array([
            [ivals[0], ivals[3], ivals[4]],
            [ivals[3], ivals[1], ivals[5]],
            [ivals[4], ivals[5], ivals[2]],
        ])
        if np.linalg.eigvalsh(I).min() <= 0:
            raise ModelError(f"{lwhere}.inertia: tensor is not positive definite")
        inertias[i] = I
        for k in lim:
            lim[k][i] = float(_get(j, k, where))
    for lo, hi in (("q_min", "q_max"), ("v_min", "v_max"), ("tau_min", "tau_max")):
        bad = np.nonzero(lim[lo] >= lim[hi])[0]
        if bad.size:
            raise ModelError(f"{source}.joints[{bad[0]}]: {lo} must be < {hi}")

    armature = np.zeros(n)
    for i, j in enumerate(joints):
        armature[i] = float(j.get("armature", 0.0))
        if armature[i] < 0:
            raise ModelError(f"{source}.joints[{i}].armature: must be >= 0")
    gravity = _vec(data, "gravity", 3, source)
    tool = data.get("tool", {"xyz": [0, 0, 0], "rpy": [0, 0, 0]})
    tool_T = _transform(rpy_matrix(*_vec(tool, "rpy", 3, source + ".tool")),
                        _vec(tool, "xyz", 3, source + ".tool"))

    return RobotModel(name=str(data.get("name", "unnamed")),
                      origins=origins, axes=axes, masses=masses, coms=coms,
                      inertias=inertias, gravity=gravity, tool=tool_T,
                      armature=armature, **lim)


def load_model(path: str | Path) -> RobotModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ModelError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    return model_from_dict(data, source=str(path))


def bundled_model_path(name: str = "iiwa14") -> Path:
    """Path of a model file shipped with the package."""
    return Path(resources.files("dcts").joinpath(f"data/{name}.json"))


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
