"""Bound shaping: position/velocity/acceleration limits as per-tick acceleration bounds.

For each limited direction i the admissible acceleration interval over one
control period dt is the intersection of

    acceleration:  a_min_i <= a <= a_max_i
    velocity:      (v_min_i - cd_i)/dt <= a <= (v_max_i - cd_i)/dt
    position:      2 (c_min_i - c_i - cd_i dt)/dt^2 <= a
                                       <= 2 (c_max_i - c_i - cd_i dt)/dt^2
    viability:     after one step at a, the direction can still stop before
                   the position limit while braking at its acceleration limit

so that a constant acceleration inside the interval keeps position and
velocity inside their limits after one step and never commits the state to a
future position-limit violation. The viability member is what makes braking
start early: the bare one-step position term only activates within one tick
of the wall, where the required deceleration exceeds any actuator.

The limited space is joint space: direction i is joint i, with c = q and
cd = qd. External joint torques shift both bounds by -M^-1 tau_ext so that
the bound applies to the physically resulting acceleration, not just the
commanded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _viability_upper(margin: np.ndarray, cd: np.ndarray, brake: np.ndarray,
                     dt: float) -> np.ndarray:
    """Largest post-step velocity u that can still stop within ``margin``.

    Solves u^2 + brake dt u - (2 brake margin + brake dt cd) <= 0 for the
    velocity after one step; the acceleration bound is (u - cd)/dt. A negative
    discriminant means the wall cannot be avoided even from zero velocity;
    the bound then demands moving away (u <= 0).
    """
    # half-step buffer absorbs the sampled-time loss of the continuous
    # stopping argument; without it, riding the bound creeps past the limit
    # by O(brake dt^2) per approach
    margin = margin - 0.5 * brake * dt * dt
    disc = (brake * dt) ** 2 + 8.0 * brake * margin + 4.0 * brake * dt * cd
    u = np.where(disc >= 0.0,
                 0.5 * (-brake * dt + np.sqrt(np.maximum(disc, 0.0))),
                 0.0)
    return (u - cd) / dt


@dataclass(frozen=True)
class LimitSet:
    """Box limits of the limited directions plus the control period.

    ``brake_fraction`` is the share of the acceleration limit the viability
    shaping assumes for future braking toward a position limit. Keeping it
    below 1 starts braking earlier and leaves actuation headroom for the
    inertial coupling of the other directions; the instantaneous bounds still
    allow the full +-a range.

    ``c_min_tight`` ... ``v_max_tight`` are the position and velocity limits
    moved inward by 1e-4 of their range, the ones bound shaping enforces: the
    plant integrates with zero-order-hold torque, not acceleration, so riding
    a bound exactly would cross it by the intra-tick model drift (~1e-5 rel).
    """

    c_min: np.ndarray
    c_max: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    a_min: np.ndarray
    a_max: np.ndarray
    dt: float
    brake_fraction: float = 0.4
    viability_brake_min: np.ndarray | None = None   # braking toward c_min side
    viability_brake_max: np.ndarray | None = None
    c_min_tight: np.ndarray = field(init=False, repr=False, compare=False)
    c_max_tight: np.ndarray = field(init=False, repr=False, compare=False)
    v_min_tight: np.ndarray = field(init=False, repr=False, compare=False)
    v_max_tight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for lo, hi in (("c_min", "c_max"), ("v_min", "v_max"), ("a_min", "a_max")):
            lov, hiv = getattr(self, lo), getattr(self, hi)
            if lov.shape != hiv.shape or lov.ndim != 1:
                raise ValueError(f"{lo}/{hi} must be 1-d vectors of equal length")
            if np.any(lov >= hiv):
                raise ValueError(f"{lo} must be < {hi} elementwise")
        if not (np.all(np.isfinite(self.a_min)) and np.all(np.isfinite(self.a_max))):
            raise ValueError("acceleration bounds must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if not 0.0 < self.brake_fraction <= 1.0:
            raise ValueError("brake_fraction must be in (0, 1]")
        if self.viability_brake_max is None:
            object.__setattr__(self, "viability_brake_max",
                               -self.brake_fraction * self.a_min)
        if self.viability_brake_min is None:
            object.__setattr__(self, "viability_brake_min",
                               self.brake_fraction * self.a_max)
        if np.any(self.viability_brake_max <= 0) or np.any(self.viability_brake_min <= 0):
            raise ValueError("viability brake magnitudes must be > 0")
        margin_c = 1e-4 * (self.c_max - self.c_min)
        margin_v = 1e-4 * (self.v_max - self.v_min)
        object.__setattr__(self, "c_max_tight", self.c_max - margin_c)
        object.__setattr__(self, "c_min_tight", self.c_min + margin_c)
        object.__setattr__(self, "v_max_tight", self.v_max - margin_v)
        object.__setattr__(self, "v_min_tight", self.v_min + margin_v)

    @property
    def size(self) -> int:
        return len(self.c_min)


def limit_set(c_min, c_max, v_min, v_max, a_min, a_max, dt: float,
              brake_fraction: float = 0.4, viability_brake=None) -> LimitSet:
    as_arr = lambda v: np.asarray(v, dtype=float)
    vb = None if viability_brake is None else as_arr(viability_brake)
    return LimitSet(as_arr(c_min), as_arr(c_max), as_arr(v_min), as_arr(v_max),
                    as_arr(a_min), as_arr(a_max), float(dt), float(brake_fraction),
                    viability_brake_min=vb, viability_brake_max=vb)


@dataclass
class ShapedBounds:
    """Per-direction acceleration interval.

    ``repaired`` flags directions whose raw interval was empty (possible when
    a position or velocity bound is already violated) and was collapsed to a
    single feasible value, clamped into [a_min, a_max] so the demand stays
    dynamically sane.
    """

    acc_min: np.ndarray
    acc_max: np.ndarray
    repaired: np.ndarray              # bool mask

    @property
    def any_repaired(self) -> bool:
        return bool(self.repaired.any())


def shape_acceleration_bounds(limits: LimitSet, c: np.ndarray, cd: np.ndarray) -> ShapedBounds:
    """Tightest per-direction acceleration interval honouring all three limit levels."""
    c = np.asarray(c, dtype=float)
    cd = np.asarray(cd, dtype=float)
    if c.shape != (limits.size,) or cd.shape != (limits.size,):
        raise ValueError(f"c/cd must have shape ({limits.size},)")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(cd))):
        raise ValueError("c/cd must be finite")
    dt = limits.dt
    # enforced against the slightly tightened position/velocity limits
    c_max, c_min = limits.c_max_tight, limits.c_min_tight
    v_max, v_min = limits.v_max_tight, limits.v_min_tight

    upper = np.stack([
        limits.a_max,
        (v_max - cd) / dt,
        2.0 * (c_max - c - cd * dt) / dt**2,
        _viability_upper(c_max - c - cd * dt, cd, limits.viability_brake_max, dt),
    ])
    lower = np.stack([
        limits.a_min,
        (v_min - cd) / dt,
        2.0 * (c_min - c - cd * dt) / dt**2,
        -_viability_upper(c + cd * dt - c_min, -cd, limits.viability_brake_min, dt),
    ])
    acc_max = upper.min(axis=0)
    acc_min = lower.max(axis=0)

    repaired = acc_min > acc_max
    if repaired.any():
        mid = np.clip(0.5 * (acc_min + acc_max), limits.a_min, limits.a_max)
        acc_min = np.where(repaired, mid, acc_min)
        acc_max = np.where(repaired, mid, acc_max)
    return ShapedBounds(acc_min=acc_min, acc_max=acc_max, repaired=repaired)


def apply_external_offset(bounds: ShapedBounds, minv_tau_ext: np.ndarray) -> ShapedBounds:
    """Shift both bounds by -M^-1 tau_ext (external forces in the constraint)."""
    offset = np.asarray(minv_tau_ext, dtype=float)
    if offset.shape != bounds.acc_min.shape:
        raise ValueError("minv_tau_ext does not match the bound dimension")
    return ShapedBounds(acc_min=bounds.acc_min - offset,
                        acc_max=bounds.acc_max - offset,
                        repaired=bounds.repaired.copy())


@dataclass
class LimitRealization:
    """One tick's shaped joint-acceleration bounds handed to a solver."""

    bounds: ShapedBounds


def joint_space_limits(model, dt: float, a_min=None, a_max=None,
                       brake_fraction: float = 0.4) -> LimitSet:
    """LimitSet for the joints of a model, default accel +-10 rad/s^2."""
    n = model.n
    if a_min is None:
        a_min = np.full(n, -10.0)
    if a_max is None:
        a_max = np.full(n, 10.0)
    return limit_set(model.q_min, model.q_max, model.v_min, model.v_max,
                     a_min, a_max, dt, brake_fraction)


def realize_joint_limits(limits: LimitSet, q: np.ndarray, qd: np.ndarray,
                         minv_tau_ext: np.ndarray | None = None) -> LimitRealization:
    """Shape joint-space bounds at the current state, optionally offset by tau_ext."""
    bounds = shape_acceleration_bounds(limits, q, qd)
    if minv_tau_ext is not None:
        bounds = apply_external_offset(bounds, minv_tau_ext)
    return LimitRealization(bounds=bounds)
