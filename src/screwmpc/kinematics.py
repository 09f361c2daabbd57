"""Serial-chain kinematics and the inner-loop pose controller.

A robot is a sequence of chain elements, each a fixed unit dual quaternion
offset optionally followed by a revolute rotation about a local axis.  The
end-effector pose is the ordered product of the elements; the 8x7 pose
Jacobian maps joint rates to the time derivative of the vec8 pose
coefficients.  The inner loop commands joint rates from the conjugation
error e = 1 - x_d^* x_eff through a damped pseudo-inverse.

Robot geometry is data, not code: models load from a text file listing,
per joint, the fixed offset (vec8), the rotation axis label and the
position/velocity limits.  The shipped Panda description is transcribed
from the manufacturer's public kinematic parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dualquat import (
    DualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    c8,
    hamilton_minus8,
)

__all__ = [
    "ChainElement",
    "RobotModel",
    "ControlCommand",
    "forward_kinematics",
    "pose_jacobian",
    "pose_error",
    "inner_control",
    "load_robot_model",
    "packaged_model_path",
]

_AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}
_GENERATORS = {
    label: DualQuaternion(Quaternion.from_vector(axis), Quaternion.zero())
    for label, axis in _AXES.items()
}
_C8 = c8()
_C8.setflags(write=False)

SV_CUTOFF = 1e-8
DLS_DAMPING = 1e-4


@dataclass(frozen=True)
class ChainElement:
    """Fixed offset plus an optional revolute axis ('x', 'y', 'z' or None)."""

    offset: UnitDualQuaternion
    axis: str | None

    def __post_init__(self):
        if self.axis is not None and self.axis not in _AXES:
            raise ValueError(f"unknown rotation axis label {self.axis!r}")


@dataclass(frozen=True)
class RobotModel:
    """Serial chain description with joint position and velocity limits."""

    elements: tuple[ChainElement, ...]
    q_min: np.ndarray
    q_max: np.ndarray
    qd_max: np.ndarray

    def __post_init__(self):
        dof = self.dof
        for name in ("q_min", "q_max", "qd_max"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if arr.shape != (dof,):
                raise ValueError(f"{name} must have {dof} entries, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if np.any(self.q_min >= self.q_max):
            raise ValueError("joint position limits are infeasible: min >= max")
        if np.any(self.qd_max <= 0.0):
            raise ValueError("joint velocity limits must be positive")

    @cached_property
    def dof(self) -> int:
        return sum(1 for e in self.elements if e.axis is not None)

    def clamp_position(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.q_min, self.q_max)

    def scale_velocity(self, qd: np.ndarray) -> np.ndarray:
        """Uniformly scale qd into the velocity box, preserving direction."""
        ratio = np.max(np.abs(qd) / self.qd_max)
        if ratio > 1.0:
            return qd / ratio
        return qd


def _joint_rotation(axis: str, angle: float) -> Quaternion:
    a = _AXES[axis]
    half = angle / 2.0
    s = math.sin(half)
    return Quaternion(math.cos(half), s * a[0], s * a[1], s * a[2])


def _check_q(model: RobotModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (model.dof,):
        raise ValueError(
            f"joint vector has {q.shape[0]} entries but the model has {model.dof} joints"
        )
    return q


def _walk_chain(model: RobotModel, q: np.ndarray):
    """One pass over the chain: x_eff and (P_j, axis label) per joint.

    The ordered product accumulates through plain products and is checked
    for unit norm once at the end; the joint pose P_j includes joint j's own
    rotation.
    """
    x: DualQuaternion = DualQuaternion.identity()
    joint_poses: list[tuple[DualQuaternion, str]] = []
    j = 0
    for elem in model.elements:
        x = x * DualQuaternion(elem.offset.primary, elem.offset.dual)
        if elem.axis is not None:
            x = x * DualQuaternion(_joint_rotation(elem.axis, q[j]), Quaternion.zero())
            joint_poses.append((x, elem.axis))
            j += 1
    return UnitDualQuaternion(x.primary, x.dual), joint_poses


def _jacobian(x_eff: UnitDualQuaternion,
              joint_poses: list[tuple[DualQuaternion, str]]) -> np.ndarray:
    """J = (1/2) H8^-(x_eff) [vec8(l_j)] with l_j = P_j a_j P_j^* the world axis.

    The pose derivative w.r.t. joint j is (1/2) P_j a_j S_j for the suffix
    product S_j, and P_j S_j = x_eff with P_j unit, so it equals
    (1/2) l_j x_eff.
    """
    lines = np.empty((8, len(joint_poses)))
    for j, (pose, axis) in enumerate(joint_poses):
        lines[:, j] = (pose * _GENERATORS[axis] * pose.conjugate()).vec8()
    return 0.5 * hamilton_minus8(x_eff) @ lines


def forward_kinematics(model: RobotModel, q) -> UnitDualQuaternion:
    """End-effector pose as the ordered product of the chain elements."""
    return _walk_chain(model, _check_q(model, q))[0]


def pose_jacobian(model: RobotModel, q) -> np.ndarray:
    """Analytic 8x7 Jacobian with d/dt vec8(x_eff) = J @ qdot.

    Column j is vec8 of the pose derivative w.r.t. joint j, using
    d/dq R(q) = (1/2) * axis * R(q) inside the chain product.
    """
    return _jacobian(*_walk_chain(model, _check_q(model, q)))


def pose_error(x_d: UnitDualQuaternion, x_eff: UnitDualQuaternion) -> DualQuaternion:
    """Conjugation error e = 1 - x_d^* x_eff, double-cover aligned.

    x_eff is negated first when <vec8(x_d), vec8(x_eff)> < 0, so identical
    poses always give e = 0.
    """
    if float(x_d.vec8() @ x_eff.vec8()) < 0.0:
        x_eff = -x_eff
    return DualQuaternion.identity() - x_d.conjugate() * x_eff


class ControlCommand(NamedTuple):
    qdot: np.ndarray
    singular: bool


def inner_control(model: RobotModel, q, x_d: UnitDualQuaternion,
                  gain: np.ndarray) -> ControlCommand:
    """Kinematic control law qdot = -(H8(x_d) C8 J)^+ K vec8(e).

    The pseudo-inverse is computed from an SVD with singular-value cutoff
    1e-8.  The pose manifold is 6-dimensional, so the task matrix of a
    redundant arm is nominally rank 6 (with dof extra null directions
    dropped by the cutoff); when the rank-revealing decomposition shows the
    task rank itself collapsing below that, a damped least-squares fallback
    (damping 1e-4) is used and reported in the flag.
    """
    q = _check_q(model, q)
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (8, 8):
        raise ValueError("gain matrix must be 8x8")
    x_eff, joint_poses = _walk_chain(model, q)
    err = pose_error(x_d, x_eff)
    jac = _jacobian(x_eff, joint_poses)
    task = hamilton_minus8(x_d) @ _C8 @ jac

    u_svd, sigma, vt = np.linalg.svd(task, full_matrices=False)
    nominal_rank = min(model.dof, 6)
    singular = bool(sigma[nominal_rank - 1] < SV_CUTOFF)
    if singular:
        inv_sigma = sigma / (sigma * sigma + DLS_DAMPING * DLS_DAMPING)
    else:
        inv_sigma = np.where(sigma >= SV_CUTOFF, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
    task_pinv = vt.T @ np.diag(inv_sigma) @ u_svd.T
    qdot = -task_pinv @ (gain @ err.vec8())
    return ControlCommand(qdot, singular)


# ---------------------------------------------------------------------------
# Robot model file format


def packaged_model_path() -> Path:
    """Location of the shipped 7-joint Panda description."""
    return Path(resources.files("screwmpc").joinpath("data/panda.model"))


def load_robot_model(path: str | Path, expected_dof: int | None = 7) -> RobotModel:
    """Read a chain description from a text file.

    Records, one per line (blank lines and '#' comments skipped):

    * ``joint <axis> h1 ... h8 <q_min> <q_max> <qd_max>`` - fixed offset in
      vec8 order followed by a revolute joint about the local axis, and
    * ``fixed h1 ... h8`` - a fixed transform (for example a flange).

    The chain order is the file order.  By default the loader enforces the
    7-joint contract of the simulator; pass ``expected_dof=None`` to load
    arbitrary chains.
    """
    path = Path(path)
    elements: list[ChainElement] = []
    q_min: list[float] = []
    q_max: list[float] = []
    qd_max: list[float] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "joint":
                if len(fields) != 13:
                    raise ValueError("joint record needs: axis, 8 pose, 3 limit fields")
                axis = fields[1]
                pose = UnitDualQuaternion.from_vec8([float(t) for t in fields[2:10]])
                lo, hi, vel = (float(t) for t in fields[10:13])
                elements.append(ChainElement(pose, axis))
                q_min.append(lo)
                q_max.append(hi)
                qd_max.append(vel)
            elif kind == "fixed":
                if len(fields) != 9:
                    raise ValueError("fixed record needs 8 pose fields")
                pose = UnitDualQuaternion.from_vec8([float(t) for t in fields[1:9]])
                elements.append(ChainElement(pose, None))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    model = RobotModel(tuple(elements), np.array(q_min), np.array(q_max),
                       np.array(qd_max))
    if expected_dof is not None and model.dof != expected_dof:
        raise ValueError(
            f"{path}: expected a {expected_dof}-joint chain, found {model.dof}"
        )
    return model
