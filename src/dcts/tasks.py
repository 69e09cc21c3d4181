"""Desired task accelerations: impedance laws and the saturated waypoint tracker.

Three task modes are supported:

- ``impedance``: xdd_d = K dx + D dxd (regulation, zero feedforward),
- ``force_impedance``: xdd_d = J M^-1 J^T f_d with f_d = K dx + D dxd, the
  impedance-without-inertia-shaping form that makes measuring task-space
  external forces unnecessary,
- ``waypoint_tracker``: xdd_d = -kv (xd_c - v xd_d) with xd_d = (kp/kv) dx and
  the saturation factor v = min(1, v_sat / ||xd_d||^2), the published form.
  Once the last waypoint is reached the same law holds the tool there.

Selectors map joint state to task coordinates; the Jacobian rows and the
error parameterization (axis-angle for orientation) live here so solvers only
ever see (J, jdot_qd, desired acceleration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rbd

TRACKING, DONE = "tracking", "done"


def impedance_accel(K: np.ndarray, D: np.ndarray, dx: np.ndarray,
                    dxd: np.ndarray) -> np.ndarray:
    """Regulation impedance: K dx + D dxd with dx = x_d - x, dxd = xd_d - xd."""
    K = np.atleast_2d(K)
    D = np.atleast_2d(D)
    return K @ np.asarray(dx, float) + D @ np.asarray(dxd, float)


def force_impedance_accel(J: np.ndarray, minv_solve, f_d: np.ndarray) -> np.ndarray:
    """xdd_d = J M^-1 J^T f_d; ``minv_solve`` maps a vector b to M^-1 b."""
    J = np.atleast_2d(J)
    return J @ minv_solve(J.T @ np.asarray(f_d, float))


@dataclass
class WaypointTracker:
    """Ordered Cartesian waypoints consumed by the saturated tracking law."""

    waypoints: list
    tolerance: float
    kp: float
    kv: float
    v_sat: float
    index: int = 0
    start: np.ndarray | None = None          # segment start for path-error metrics

    def __post_init__(self):
        self.waypoints = [np.asarray(w, dtype=float) for w in self.waypoints]
        if self.tolerance <= 0 or self.kp <= 0 or self.kv <= 0 or self.v_sat <= 0:
            raise ValueError("tolerance, kp, kv, v_sat must all be > 0")

    @property
    def done(self) -> bool:
        return self.index >= len(self.waypoints)

    @property
    def current(self) -> np.ndarray | None:
        """The waypoint steered to: the active one, the last once done, None
        for an empty list."""
        if not self.waypoints:
            return None
        return self.waypoints[min(self.index, len(self.waypoints) - 1)]

    def segment(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Current straight-line leg (start, goal) for path-deviation metrics."""
        if self.done or self.start is None:
            return None
        return self.start, self.waypoints[self.index]


def waypoint_accel(tracker: WaypointTracker, x: np.ndarray,
                   xd_c: np.ndarray) -> tuple[np.ndarray, str]:
    """Desired acceleration toward the active waypoint; advances on arrival.

    Returns (acceleration, status). Once the list is exhausted the status is
    DONE and the same law keeps regulating to the last waypoint; an empty
    list commands zero.
    """
    x = np.asarray(x, dtype=float)
    xd_c = np.asarray(xd_c, dtype=float)
    goal = tracker.current
    if goal is None:
        return np.zeros_like(x), DONE
    if tracker.start is None:
        tracker.start = x.copy()
    dx = goal - x
    xd_d = (tracker.kp / tracker.kv) * dx
    speed = float(np.linalg.norm(xd_d))
    v = 1.0 if speed < 1e-12 else min(1.0, tracker.v_sat / speed**2)
    acc = -tracker.kv * (xd_c - v * xd_d)
    if not tracker.done and float(np.linalg.norm(dx)) < tracker.tolerance:
        tracker.start = goal.copy()
        tracker.index += 1
    return acc, DONE if tracker.done else TRACKING


def octagon_waypoints(center: np.ndarray, radius: float,
                      phase: float = 0.0) -> list[np.ndarray]:
    """Vertices of an octagon in the (y, z) plane, alternating with the center.

    16 entries: vertex_k, center, vertex_{k+1}, center, ... with vertex_k at
    angle phase + k * 45 deg measured from +y toward +z.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    center = np.asarray(center, dtype=float)
    out = []
    for k in range(8):
        a = phase + k * math.pi / 4.0
        vertex = center + radius * np.array([0.0, math.cos(a), math.sin(a)])
        out.append(vertex)
        out.append(center.copy())
    return out


# ---------------------------------------------------------------------------
# task specifications and their per-tick realization

_SELECTORS = ("tool_pos", "tool_rot_xy", "joint_posture")


@dataclass
class TaskSpec:
    """One prioritized task: selector, gains, target and mode.

    ``point`` is the controlled point in tool-frame coordinates; it defines
    what "the end effector center" means for this task.
    """

    priority: int
    mode: str                                # impedance | force_impedance | waypoint_tracker
    selector: str
    stiffness: np.ndarray | None = None      # (m, m)
    damping: np.ndarray | None = None        # (m, m)
    target_position: np.ndarray | None = None
    target_rotation: np.ndarray | None = None
    target_q: np.ndarray | None = None
    tracker: WaypointTracker | None = None
    point: np.ndarray | None = None          # (3,) tool-frame offset
    name: str = ""

    def __post_init__(self):
        if self.selector not in _SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}; expected one of {_SELECTORS}")
        if self.mode not in ("impedance", "force_impedance", "waypoint_tracker"):
            raise ValueError(f"unknown task mode {self.mode!r}")
        if self.mode == "waypoint_tracker":
            if self.tracker is None:
                raise ValueError("waypoint_tracker mode needs a tracker")
            if self.selector != "tool_pos":
                raise ValueError("waypoint_tracker only supports the tool_pos selector")
        else:
            for g in ("stiffness", "damping"):
                mat = np.atleast_2d(np.asarray(getattr(self, g), dtype=float))
                if mat.shape[0] != mat.shape[1] or np.abs(mat - mat.T).max() > 1e-12:
                    raise ValueError(f"{g} must be square symmetric")
                if np.linalg.eigvalsh(mat).min() <= 0:
                    raise ValueError(f"{g} must be positive definite")
                setattr(self, g, mat)


@dataclass
class TaskInstance:
    """A task realized at one control tick, all a torque solver needs."""

    J: np.ndarray            # (m, n)
    jdot_qd: np.ndarray      # (m,)
    a_d: np.ndarray          # (m,) desired (unscaled) task acceleration
    priority: int
    name: str = ""
    error: np.ndarray | None = None
    status: str = TRACKING


def orientation_error_xy(R_desired: np.ndarray, R_current: np.ndarray) -> np.ndarray:
    """World x/y components of the axis-angle of R_d R_c^T."""
    return rbd.rotation_log(R_desired @ R_current.T)[:2]


def realize_task(spec: TaskSpec, dyn: rbd.ChainDynamics) -> TaskInstance:
    """Evaluate selector rows, task error and desired acceleration at a state."""
    model = dyn.model
    tool = model.tool_frame
    if spec.selector == "joint_posture":
        J = np.eye(model.n)
        jdq = np.zeros(model.n)
        dx = spec.target_q - dyn.q
        dxd = -dyn.qd
    else:
        J6 = rbd.jacobian(model, dyn.q, tool, point=spec.point,
                          transforms=dyn.transforms)
        jdq6 = rbd.jacobian_dot_qd(model, dyn.q, dyn.qd, tool, point=spec.point,
                                   transforms=dyn.transforms)
        T = dyn.transforms[tool]
        if spec.selector == "tool_pos":
            J, jdq = J6[:3], jdq6[:3]
            x = T[:3, 3] if spec.point is None else T[:3, :3] @ spec.point + T[:3, 3]
            xd = J @ dyn.qd
            if spec.mode == "waypoint_tracker":
                a_d, status = waypoint_accel(spec.tracker, x, xd)
                goal = spec.tracker.current
                err = np.zeros(3) if goal is None else goal - x
                return TaskInstance(J=J, jdot_qd=jdq, a_d=a_d, priority=spec.priority,
                                    name=spec.name, error=err, status=status)
            dx = spec.target_position - x
            dxd = -xd
        else:  # tool_rot_xy
            J, jdq = J6[3:5], jdq6[3:5]
            dx = orientation_error_xy(spec.target_rotation, T[:3, :3])
            dxd = -(J @ dyn.qd)

    if spec.mode == "force_impedance":
        f_d = impedance_accel(spec.stiffness, spec.damping, dx, dxd)
        a_d = force_impedance_accel(J, dyn.minv, f_d)
    else:
        a_d = impedance_accel(spec.stiffness, spec.damping, dx, dxd)
    return TaskInstance(J=J, jdot_qd=jdq, a_d=a_d, priority=spec.priority,
                        name=spec.name, error=dx)
