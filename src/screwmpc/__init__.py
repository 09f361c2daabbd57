"""Screw-linear task-space interpolation with MPC twist smoothing.

The pipeline plans a coordinate-invariant pose path through task-space
keypoints (ScLERP), smooths the resulting reference twist under velocity,
acceleration and jerk bounds with a receding-horizon controller, and tracks
the smoothed pose with a dual quaternion kinematic inner loop on a 7-joint
serial manipulator.
"""

from .dualquat import (
    DualQuaternion,
    PureDualQuaternion,
    Quaternion,
    ScrewParameters,
    UnitDualQuaternion,
    adjoint,
    c8,
    exp,
    hamilton_minus8,
    log,
    power,
    screw_parameters,
)
from .kinematics import (
    ChainElement,
    ControlCommand,
    RobotModel,
    forward_kinematics,
    inner_control,
    load_robot_model,
    pose_error,
    pose_jacobian,
)
from .mpc import (
    LimitSet,
    MpcConfig,
    QpProblem,
    QpSolution,
    SmootherState,
    StepResult,
    TwistSmoother,
    solve_qp,
)
from .screwpath import (
    DiscretePath,
    PathSample,
    generate_path,
    load_keypoints,
    reference_twists,
    sclerp,
)

__version__ = "0.1.0"
