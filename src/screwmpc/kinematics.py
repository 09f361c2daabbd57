"""Serial-chain kinematics and the inner-loop pose controller.

A robot is a sequence of chain elements, each a fixed unit dual quaternion
offset optionally followed by a revolute rotation about a local axis.  The
end-effector pose is the ordered product of the elements; the 8x7 pose
Jacobian maps joint rates to the time derivative of the vec8 pose
coefficients.  The inner loop commands joint rates from the conjugation
error e = 1 - x_d^* x_eff through a damped pseudo-inverse.  All three run
on stacked 8x8 Hamilton matrices in numpy, one chain pass per call.  The
matrices and the conjugation signs come from ``screwmpc.dualquat``'s one
operator builder; its algebra classes only wrap the inputs and outputs.

Robot geometry is data, not code: models load from a text file listing,
per joint, the fixed offset (vec8), the rotation axis label and the
position/velocity limits.  The shipped Panda description is transcribed
from the manufacturer's public kinematic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dualquat import _CONJ, DualQuaternion, UnitDualQuaternion, _hamilton8

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
_EYE8 = np.eye(8)
_EYE8.setflags(write=False)
# H8^-(h) C8 is linear in vec8(h): row i holds its 64 entries for h = e_i, so
# vec8(h) @ _TASK_BASIS is H8^-(h) C8 flattened (each entry a single signed term).
_TASK_BASIS = np.array([(_hamilton8(e, -1) * _CONJ).ravel() for e in _EYE8])
_TASK_BASIS.setflags(write=False)

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
        if not np.all(self.q_min < self.q_max):
            raise ValueError("joint position limits are infeasible: min >= max")
        if not np.all(self.qd_max > 0.0):
            raise ValueError("joint velocity limits must be positive")

    @cached_property
    def dof(self) -> int:
        return sum(1 for e in self.elements if e.axis is not None)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-joint Hamilton matrices M_j, K_j (dof x 8 x 8) and the flange column.

        F_j is the product of the fixed offsets from just after joint j-1's
        rotation up to and including joint j's own offset; M_j = H8^+(F_j)
        and K_j = M_j H8^+(a_j) for the joint axis a_j, so that
        H8^+(F_j R_j(q)) = cos(q/2) M_j + sin(q/2) K_j.  The flange column is
        vec8 of the product of the offsets after the last joint.
        """
        folded = np.eye(8)
        m, k = [], []
        for elem in self.elements:
            folded = folded @ _hamilton8(elem.offset.vec8(), 1)
            if elem.axis is not None:
                axis = np.concatenate([[0.0], _AXES[elem.axis], np.zeros(4)])
                m.append(folded)
                k.append(folded @ _hamilton8(axis, 1))
                folded = np.eye(8)
        chain = (np.array(m).reshape(-1, 8, 8), np.array(k).reshape(-1, 8, 8),
                 folded[:, 0].copy())  # H8^+(F) e_1 = vec8(F)
        for arr in chain:
            arr.setflags(write=False)
        return chain

    def clamp_position(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.q_min, self.q_max)

    def scale_velocity(self, qd: np.ndarray) -> np.ndarray:
        """Uniformly scale qd into the velocity box, preserving direction."""
        ratio = np.max(np.abs(qd) / self.qd_max)
        if ratio > 1.0:
            return qd / ratio
        return qd


def _check_q(model: RobotModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (model.dof,):
        raise ValueError(
            f"joint vector has {q.shape[0]} entries but the model has {model.dof} joints"
        )
    return q


def _half_angles(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(q_j/2) and sin(q_j/2), shaped (dof, 1, 1) to scale per-joint matrices."""
    half = 0.5 * q
    return np.cos(half)[:, None, None], np.sin(half)[:, None, None]


def _suffix_vectors(model: RobotModel, c: np.ndarray,
                    s: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Joint elements G_j and suffix vectors s_j = G_j ... G_{n-1} f, s_n = f.

    Joint j's element is G_j = H8^+(F_j R_j(q_j)) = cos(q_j/2) M_j + sin(q_j/2) K_j
    (see ``RobotModel._chain``), so the chain product is G_0 ... G_{n-1} f
    for the flange column f, and s_0 = vec8(x_eff).
    """
    m, k, flange = model._chain
    g = c * m + s * k
    suffix = [flange]
    for gj in g[::-1]:
        suffix.append(gj.dot(suffix[-1]))
    return g, suffix[::-1]


def _pose_and_jacobian(model: RobotModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the chain: vec8(x_eff) and the 8 x dof pose Jacobian.

    With the suffix vectors s_j of ``_suffix_vectors`` and prefix products
    P_j = G_0 ... G_{j-1}, column j of the Jacobian is P_j dG_j s_{j+1},
    where dG_j = d G_j / d q_j.
    """
    m, k, _ = model._chain
    c, s = _half_angles(q)
    g, suffix = _suffix_vectors(model, c, s)
    dg = 0.5 * (c * k - s * m)
    prefix = [_EYE8]
    for gj in g[:-1]:
        prefix.append(prefix[-1].dot(gj))
    jac = np.matmul(prefix, np.matmul(dg, np.array(suffix[1:]).reshape(-1, 8, 1)))
    return suffix[0], jac[:, :, 0].T


def _task_map(x_d8: np.ndarray) -> np.ndarray:
    """H8^-(x_d) C8 from vec8(x_d)."""
    return (x_d8 @ _TASK_BASIS).reshape(8, 8)


def _error8(task_map: np.ndarray, x_d8: np.ndarray, x_eff8: np.ndarray) -> np.ndarray:
    """vec8(1 - x_d^* x_eff) from task_map = H8^-(x_d) C8, double-cover aligned.

    (x_d^* x_eff)^* = x_eff^* x_d, so vec8(x_d^* x_eff) = C8 H8^-(x_d) C8 vec8(x_eff).
    """
    if x_d8 @ x_eff8 < 0.0:
        x_eff8 = -x_eff8
    err = -_CONJ * (task_map @ x_eff8)
    err[0] += 1.0
    return err


def forward_kinematics(model: RobotModel, q) -> UnitDualQuaternion:
    """End-effector pose as the ordered product of the chain elements."""
    _, suffix = _suffix_vectors(model, *_half_angles(_check_q(model, q)))
    return UnitDualQuaternion.from_vec8(suffix[0])


def pose_jacobian(model: RobotModel, q) -> np.ndarray:
    """Analytic 8x7 Jacobian with d/dt vec8(x_eff) = J @ qdot.

    Column j is vec8 of the pose derivative w.r.t. joint j, using
    d/dq R(q) = (1/2) * axis * R(q) inside the chain product.
    """
    return _pose_and_jacobian(model, _check_q(model, q))[1]


def pose_error(x_d: UnitDualQuaternion, x_eff: UnitDualQuaternion) -> DualQuaternion:
    """Conjugation error e = 1 - x_d^* x_eff, double-cover aligned.

    x_eff is negated first when <vec8(x_d), vec8(x_eff)> < 0, so identical
    poses always give e = 0.
    """
    x_d8 = x_d.vec8()
    return DualQuaternion.from_vec8(_error8(_task_map(x_d8), x_d8, x_eff.vec8()))


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
    x_eff8, jac = _pose_and_jacobian(model, q)
    UnitDualQuaternion.from_vec8(x_eff8)  # raises if the chain product drifted off unit
    x_d8 = x_d.vec8()
    task_map = _task_map(x_d8)
    err = _error8(task_map, x_d8, x_eff8)
    task = task_map @ jac

    u_svd, sigma, vt = np.linalg.svd(task, full_matrices=False)
    nominal_rank = min(model.dof, 6)
    singular = bool(sigma[nominal_rank - 1] < SV_CUTOFF)
    if singular:
        inv_sigma = sigma / (sigma * sigma + DLS_DAMPING * DLS_DAMPING)
    else:
        inv_sigma = np.where(sigma >= SV_CUTOFF, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
    task_pinv = (vt.T * inv_sigma) @ u_svd.T
    qdot = -task_pinv @ (gain @ err)
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
