"""Serial-chain kinematics and the inner-loop pose controller.

A robot is a sequence of chain elements, each a fixed unit dual quaternion
offset optionally followed by a revolute rotation about a local axis.  The
end-effector pose is the ordered product of the elements; the 8x7 pose
Jacobian maps joint rates to the time derivative of the vec8 pose
coefficients.  The inner loop commands joint rates from the conjugation
error e = 1 - x_d^* x_eff through the task matrix's pseudo-inverse: one
8x8 inverse, certified well conditioned, away from singularities, and an
SVD (damped where the task rank collapses) near them.  All three run
on stacked 8x8 Hamilton matrices in numpy.  One function walks the chain
(``_pose_and_jacobian``): one sweep from the flange gives the suffix
products s_j, s_0 the pose, checked unit, and Jacobian column j is the
pose times s_(j+1)^* (a_j/2) s_(j+1) for joint j's axis a_j.  Every
caller makes that one pass: ``forward_kinematics``, ``pose_jacobian`` and
``inner_control`` once per call, the closed loop's inner ticks
(``_track_tick``) once per tick, each handing its pose and Jacobian to the
next through the same control law (``_control_law``).  A NaN joint vector
fails the unit check; the inner ticks raise it as FloatingPointError.
The matrices and the conjugation signs come from
``screwmpc.dualquat``, which reads them off its own product and
conjugation; its algebra classes only wrap the inputs and outputs.

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

from . import textio
from .dualquat import (_CONJ, _HAMILTON_BASIS, DualQuaternion, UnitDualQuaternion,
                       _check_unit, _hamilton8)

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

_AXES = {"x": 1, "y": 2, "z": 3}  # axis label -> vec8 index of its unit quaternion
_EYE8 = np.eye(8)
# H8^-(h) C8 is linear in vec8(h): row i holds its 64 entries for h = e_i, so
# vec8(h) @ _TASK_BASIS is H8^-(h) C8 flattened (each entry a single signed term).
_TASK_BASIS = np.array([(_hamilton8(e, -1) * _CONJ).ravel() for e in _EYE8])
# vec8(h) @ _STAR_BASIS is H8^+(h^*) flattened, for a stack of h too.
_STAR_BASIS = _CONJ[:, None] * _HAMILTON_BASIS[1]
_NEG_CONJ = -_CONJ
# (vec8(r) @ _NORMAL_BASIS).reshape(8, 2) has the columns (r_P, 0) and (r_D, r_P), the
# normals at a unit r of its 6-dimensional manifold (gradients of |r_P|^2, <r_P, r_D>).
_NORMAL_BASIS = np.zeros((8, 8, 2))
_NORMAL_BASIS[:4, :4, 0] = _NORMAL_BASIS[4:, :4, 1] = _NORMAL_BASIS[:4, 4:, 1] = np.eye(4)
_NORMAL_BASIS = _NORMAL_BASIS.reshape(8, 16)
for _table in (_EYE8, _TASK_BASIS, _STAR_BASIS, _NEG_CONJ, _NORMAL_BASIS):
    _table.setflags(write=False)
# ||M^-1||_F^2 below this certifies sigma_6(N) > 1e-3, as 1 / sigma_6^4 <= ||M^-1||_F^2
_CERTIFIED_INV_SQ = 1e12

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
        for ok, what in ((self.q_min < self.q_max, "position limits are infeasible: min >= max"),
                         (self.qd_max > 0.0, "velocity limits must be positive")):
            if not ok.all():
                raise ValueError(f"joint {what}: joint " + ", ".join(
                    str(j + 1) for j in np.flatnonzero(~ok)))

    @cached_property
    def dof(self) -> int:
        return sum(1 for e in self.elements if e.axis is not None)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-joint Hamilton matrices M_j, K_j, A_j (dof x 8 x 8) and the flange column.

        F_j is the product of the fixed offsets from just after joint j-1's
        rotation up to and including joint j's own offset; M_j = H8^+(F_j),
        A_j = H8^+(a_j / 2) for the joint axis a_j and K_j = 2 M_j A_j, so
        that H8^+(F_j R_j(q)) = cos(q/2) M_j + sin(q/2) K_j.  The flange
        column is vec8 of the product of the offsets after the last joint.
        """
        folded = np.eye(8)
        m, k, a = [], [], []
        for elem in self.elements:
            folded = folded @ _hamilton8(elem.offset.vec8(), 1)
            if elem.axis is not None:
                a.append(_hamilton8(0.5 * _EYE8[_AXES[elem.axis]], 1))
                m.append(folded)
                k.append(folded @ (2.0 * a[-1]))
                folded = np.eye(8)
        chain = (*(np.array(h).reshape(-1, 8, 8) for h in (m, k, a)),
                 folded[:, 0].copy())  # H8^+(F) e_1 = vec8(F)
        for arr in chain:
            arr.setflags(write=False)
        return chain

    def clamp_position(self, q: np.ndarray) -> np.ndarray:
        # np.clip(q, q_min, q_max) bit for bit (operands in its comparison
        # order, so a signed zero at a bound comes out the same), without the
        # cost of np.clip's Python wrapper: about a tenth of an inner tick
        return np.minimum(self.q_max, np.maximum(self.q_min, q))

    def scale_velocity(self, qd: np.ndarray) -> np.ndarray:
        """Uniformly scale qd into the velocity box, preserving direction."""
        ratio = (np.abs(qd) / self.qd_max).max()
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


def _pose_and_jacobian(model: RobotModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one chain pass: vec8(x_eff), checked unit, and the 8 x dof pose Jacobian.

    Joint j's element is G_j = H8^+(F_j R_j(q_j)) = cos(q_j/2) M_j + sin(q_j/2) K_j
    (see ``RobotModel._chain``), so one sweep from the flange column f gives
    the suffix vectors s_j = G_j ... G_{n-1} f, s_n = f, and s_0 = vec8(x_eff).
    A pose off unit (NaN joints, a drifted chain) raises ValueError.
    dG_j/dq_j = G_j A_j, so column j is vec8 of P_j G_j (a_j/2) s_{j+1} for the
    prefix P_j = G_0 ... G_{j-1}; as x_eff = P_j G_j s_{j+1} and s_{j+1} is
    unit, that is x_eff times the body column s_{j+1}^* (a_j/2) s_{j+1}.
    """
    m, k, a, flange = model._chain
    half = 0.5 * q
    c, s = np.cos(half)[:, None, None], np.sin(half)[:, None, None]
    suffix = [flange]
    for gj in (c * m + s * k)[::-1]:
        suffix.append(gj.dot(suffix[-1]))
    suffix = np.array(suffix[::-1])
    x_eff8, after = suffix[0], suffix[1:]
    _check_unit(*x_eff8.tolist())
    body = np.matmul((after @ _STAR_BASIS).reshape(-1, 8, 8), np.matmul(a, after[:, :, None]))
    return x_eff8, _hamilton8(x_eff8, 1) @ body[:, :, 0].T


def _task_map(x_d8: np.ndarray) -> np.ndarray:
    """H8^-(x_d) C8 from vec8(x_d)."""
    return (x_d8 @ _TASK_BASIS).reshape(8, 8)


def _error8(task_map: np.ndarray, x_d8: np.ndarray, x_eff8: np.ndarray) -> np.ndarray:
    """vec8(1 - x_d^* x_eff) from task_map = H8^-(x_d) C8, double-cover aligned.

    (x_d^* x_eff)^* = x_eff^* x_d, so vec8(x_d^* x_eff) = C8 H8^-(x_d) C8 vec8(x_eff).
    """
    return _relative_error8(task_map @ x_eff8, x_d8 @ x_eff8 < 0.0)


def _relative_error8(rel8: np.ndarray, flip: bool) -> np.ndarray:
    """``_error8`` from rel8 = vec8(x_eff^* x_d), which negating x_eff negates exactly."""
    err = (_CONJ if flip else _NEG_CONJ) * rel8
    err[0] += 1.0
    return err


def forward_kinematics(model: RobotModel, q) -> UnitDualQuaternion:
    """End-effector pose as the ordered product of the chain elements."""
    return UnitDualQuaternion.from_vec8(_pose_and_jacobian(model, _check_q(model, q))[0])


def pose_jacobian(model: RobotModel, q) -> np.ndarray:
    """Analytic 8x7 Jacobian with d/dt vec8(x_eff) = J @ qdot.

    Column j is vec8 of the pose derivative w.r.t. joint j, x_eff s^* (axis/2) s
    for the product s of the chain after joint j, as d/dq R(q) = R(q) * axis/2.
    A chain product off unit (NaN joints) raises ValueError, as in
    ``forward_kinematics``.
    """
    return _pose_and_jacobian(model, _check_q(model, q))[1]


def _unit_vec8(pose: DualQuaternion) -> np.ndarray:
    """vec8 of a pose, ValueError unless it is a unit dual quaternion."""
    pose8 = pose.vec8()
    _check_unit(*pose8.tolist())
    return pose8


def pose_error(x_d: UnitDualQuaternion, x_eff: UnitDualQuaternion) -> DualQuaternion:
    """Conjugation error e = 1 - x_d^* x_eff, double-cover aligned.

    x_eff is negated first when <vec8(x_d), vec8(x_eff)> < 0, so identical
    poses always give e = 0.  A pose that is not unit raises ValueError.
    """
    x_d8 = _unit_vec8(x_d)
    return DualQuaternion.from_vec8(_error8(_task_map(x_d8), x_d8, _unit_vec8(x_eff)))


class ControlCommand(NamedTuple):
    qdot: np.ndarray
    singular: bool


def _check_gain(gain) -> np.ndarray:
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (8, 8):
        raise ValueError("gain matrix must be 8x8")
    return gain


def inner_control(model: RobotModel, q, x_d: UnitDualQuaternion,
                  gain: np.ndarray) -> ControlCommand:
    """Kinematic control law qdot = -(H8(x_d) C8 J)^+ K vec8(e).

    The columns of the task matrix N = H8(x_d) C8 J are rates of the unit
    r = x_eff^* x_d, so they lie in its 6-dimensional tangent space, with
    normals n_1 = (r_P, 0), n_2 = (r_D, r_P).  So for 6 or more joints
    N^+ = N^T M^-1, M = N N^T + n_1 n_1^T + n_2 n_2^T, one 8x8 inverse,
    used when ||M^-1||_F^2 < 1e12 certifies sigma_6(N) > 1e-3.  Otherwise
    (near a singularity, M not invertible, or fewer than 6 joints) the
    pseudo-inverse comes from an SVD with singular-value cutoff 1e-8; when
    it shows the nominal rank min(dof, 6) collapsing, a damped
    least-squares fallback (damping 1e-4) is used and reported in the flag.
    An x_d or a chain product that is not unit raises ValueError.
    """
    q = _check_q(model, q)
    gain = _check_gain(gain)
    x_d8 = _unit_vec8(x_d)
    x_eff8, jac = _pose_and_jacobian(model, q)
    return _control_law(model, x_eff8, jac, x_d8, _task_map(x_d8), gain)


def _control_law(model: RobotModel, x_eff8: np.ndarray, jac: np.ndarray, x_d8: np.ndarray,
                 task_map: np.ndarray, gain: np.ndarray) -> ControlCommand:
    """``inner_control`` at a pose and Jacobian already computed, for checked inputs."""
    rel = task_map @ x_eff8
    err = _relative_error8(rel, x_d8 @ x_eff8 < 0.0)
    task = task_map @ jac
    if model.dof >= 6:
        aug = np.concatenate((task, (rel @ _NORMAL_BASIS).reshape(8, 2)), axis=1)
        try:
            m_inv = np.linalg.inv(aug @ aug.T)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.vdot(m_inv, m_inv) < _CERTIFIED_INV_SQ:
                return ControlCommand(-(task.T @ (m_inv @ (gain @ err))), False)

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


def _track_tick(model: RobotModel, q: np.ndarray, x_eff8: np.ndarray, jac: np.ndarray,
                x_d8: np.ndarray, task_map: np.ndarray, gain: np.ndarray, dt: float,
                ticks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Track x_d for one MPC tick of ``ticks`` inner ticks from a carried state.

    (q, x_eff8, jac) is the joint vector with its unit pose and Jacobian, and
    task_map = H8^-(x_d) C8 (``_task_map``).  Each inner tick applies the
    control law (``_control_law``), scales qdot into the velocity box, takes
    an explicit Euler step of length dt, clamps to the position limits and
    makes the one chain pass (``_pose_and_jacobian``) at the new q, whose pose
    and Jacobian the next inner tick (or the next MPC tick) uses.  Returns the
    new (q, x_eff8, jac) and whether any inner tick was singular; q and gain
    must be checked by the caller.  A q that turns NaN fails the pass's unit
    check and raises FloatingPointError("NaN in simulation state"); a finite
    pose off unit keeps the pass's ValueError.
    """
    singular = False
    for _ in range(ticks):
        cmd = _control_law(model, x_eff8, jac, x_d8, task_map, gain)
        singular = singular or cmd.singular
        q = model.clamp_position(q + dt * model.scale_velocity(cmd.qdot))
        try:
            x_eff8, jac = _pose_and_jacobian(model, q)
        except ValueError:
            if np.isnan(q).any():
                raise FloatingPointError("NaN in simulation state") from None
            raise
    return q, x_eff8, jac, singular


# ---------------------------------------------------------------------------
# Robot model file format


def packaged_model_path() -> Path:
    """Location of the shipped 7-joint Panda description."""
    return Path(resources.files("screwmpc").joinpath("data/panda.model"))


def _chain_record(line: str) -> tuple[ChainElement, list[float] | None]:
    """One model file record: its chain element and, for a joint, its limits."""
    kind, *fields = line.split()
    if kind == "joint":
        if len(fields) != 12:
            raise ValueError("joint record needs: axis, 8 pose, 3 limit fields")
        values = textio.floats(fields[1:])
        return ChainElement(UnitDualQuaternion.from_vec8(values[:8]), fields[0]), values[8:]
    if kind == "fixed":
        if len(fields) != 8:
            raise ValueError("fixed record needs 8 pose fields")
        return ChainElement(UnitDualQuaternion.from_vec8(textio.floats(fields)), None), None
    raise ValueError(f"unknown record kind {kind!r}")


def load_robot_model(path: str | Path, expected_dof: int | None = 7) -> RobotModel:
    """Read a chain description from a text file.

    Records, one per line (blank lines and '#' comments skipped; errors name
    the file and line, or the file and joint for limits ``RobotModel`` rejects):

    * ``joint <axis> h1 ... h8 <q_min> <q_max> <qd_max>`` - fixed offset in
      vec8 order followed by a revolute joint about the local axis, and
    * ``fixed h1 ... h8`` - a fixed transform (for example a flange).

    The chain order is the file order.  By default the loader enforces the
    7-joint contract of the simulator; pass ``expected_dof=None`` to load
    arbitrary chains.
    """
    path = Path(path)
    chain = textio.records(path.read_text(), path, _chain_record)
    q_min, q_max, qd_max = np.array([lim for _, lim in chain if lim]).reshape(-1, 3).T.copy()
    try:
        model = RobotModel(tuple(elem for elem, _ in chain), q_min, q_max, qd_max)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if expected_dof is not None and model.dof != expected_dof:
        raise ValueError(
            f"{path}: expected a {expected_dof}-joint chain, found {model.dof}"
        )
    return model
