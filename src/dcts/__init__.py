"""Torque-level redundancy resolution under unilateral limits.

Library layout:

- :mod:`dcts.rbd` -- chain kinematics/dynamics and the robot model loader,
- :mod:`dcts.limits` -- position/velocity/acceleration bound shaping,
- :mod:`dcts.tasks` -- impedance laws and the saturated waypoint tracker,
- :mod:`dcts.qpcore` -- dense convex QP solver (dual active set),
- :mod:`dcts.solvers` -- projector OSC, QP-MT, QP-MD and DCTS controllers,
- :mod:`dcts.sim` -- forward-dynamics scenario runner, events and metrics,
- :mod:`dcts.cli` -- the ``dcts`` command.
"""

from .rbd import (JointState, RobotModel, forward_kinematics, jacobian,
                  jacobian_dot_qd, load_bundled_model, load_model,
                  mass_matrix, task_dynamics)
from .limits import LimitSet, ShapedBounds, apply_external_offset, shape_acceleration_bounds
from .tasks import TaskSpec, WaypointTracker, impedance_accel, octagon_waypoints, waypoint_accel
from .qpcore import QpProblem, QpSolution
from .solvers import (ControlOutput, SolverConfig, naive_saturate, solve_dcts_multi,
                      solve_osc, solve_qp_md, solve_qp_mt)
from .sim import Scenario, load_bundled_scenario, load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "JointState", "RobotModel", "forward_kinematics", "jacobian",
    "jacobian_dot_qd", "load_bundled_model", "load_model", "mass_matrix",
    "task_dynamics", "LimitSet", "ShapedBounds", "apply_external_offset",
    "shape_acceleration_bounds", "TaskSpec", "WaypointTracker",
    "impedance_accel", "octagon_waypoints", "waypoint_accel", "QpProblem",
    "QpSolution", "ControlOutput", "SolverConfig", "naive_saturate",
    "solve_dcts_multi", "solve_osc", "solve_qp_md", "solve_qp_mt", "Scenario",
    "load_bundled_scenario", "load_scenario", "run_scenario",
]
