"""Serial-chain kinematics and the inner-loop pose controller.

A robot is a sequence of chain elements, each a fixed unit dual quaternion
offset optionally followed by a revolute rotation about a local axis.  The
end-effector pose is the ordered product of the elements; the 8x7 pose
Jacobian maps joint rates to the time derivative of the vec8 pose
coefficients.  The inner loop commands joint rates from the conjugation
error e = 1 - x_d^* x_eff through the task matrix's pseudo-inverse: one
8x8 inverse, certified well conditioned, away from singularities, and an
SVD (damped where the task rank collapses) near them.  The inverse is
``numpy.linalg._umath_linalg.inv``, the LAPACK gufunc ``np.linalg.inv``
calls, without that wrapper, which cost more than the call: a singular M
comes back NaN, unwarned under ``errstate(invalid="ignore")``, set once per
call and per MPC tick.  All three run on stacked 8x8 Hamilton matrices in
numpy.  One function walks the chain
(``_pose_and_jacobian``), as one product with a table fixed per model:
joint j's factor cos(q_j/2) M_j + sin(q_j/2) K_j is affine in the pair
(cos(q_j/2), sin(q_j/2)), so the pose is multilinear in the n pairs,
vec8(x_eff) = sum_t mu_t(q) V_t over the 2^n bit patterns t, with the
monomial mu_t taking sin(q_j/2) where bit j of t is set and cos(q_j/2)
where it is not.  A derivative swaps one factor, d mu_t/dq_j =
+-1/2 mu_(t xor 2^j), so each Jacobian column is a sum over the same
monomials, and [V | W_0 ... W_(n-1)] is one table: the pass forms the
2^n monomials and takes one vector-matrix product, read as the block
[vec8(x_eff); J^T], then checks the pose unit.  Chains longer than 8
joints split into blocks of at most 8, one table each, combined by
Hamilton products.  Every caller makes that one pass: ``forward_kinematics``,
``pose_jacobian`` and ``inner_control`` once per call, the closed loop's
inner ticks once per tick, each handing its pose and Jacobian to the next
through the same control law (``_control_law``) on one object per run
(``_InnerLoop``), which forms K C8, K e_1 and its buffers once and writes
into them per desired pose: one product J^T T^T, T = H8^-(x_d) C8, writes
the task matrix's rows N^T; one product of the pose with rows formed for
x_d writes after them the normals n_1, n_2, then K C8 r, the gain folded
with the conjugation, and <x_d, x_eff>; M = aug^T aug is formed from the
rows [N^T; n_1; n_2].  A NaN joint vector fails the unit check; the inner
ticks raise it as FloatingPointError.
The matrices and the conjugation signs come from
``screwmpc.dualquat``, which reads them off its own product and
conjugation; its algebra classes only wrap the inputs and outputs.

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
from numpy.linalg._umath_linalg import inv as _inv

from . import textio
from .dualquat import _CONJ, DualQuaternion, UnitDualQuaternion, _check_unit, _hamilton8

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
_NEG_CONJ = -_CONJ
# _NORMAL_ROWS @ vec8(r) is (n_1, n_2) = ((r_P, 0), (r_D, r_P)), the normals at a unit r
# of its 6-dimensional manifold (gradients of |r_P|^2, <r_P, r_D>), one after the other.
_NORMAL_ROWS = np.zeros((16, 8))
_NORMAL_ROWS[:4, :4] = _NORMAL_ROWS[8:12, 4:] = _NORMAL_ROWS[12:, :4] = np.eye(4)
for _table in (_EYE8, _TASK_BASIS, _NEG_CONJ, _NORMAL_ROWS):
    _table.setflags(write=False)
# ||M^-1||_F^2 below this certifies sigma_6(N) > 1e-3, as 1 / sigma_6^4 <= ||M^-1||_F^2
_CERTIFIED_INV_SQ = 1e12
# joints per chain-pass table: 2^8 x 72 entries (147 kB) for a full block
_BLOCK_JOINTS = 8

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
    def _chain(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The chain pass's (index, table) per block of at most 8 consecutive joints.

        F_j is the product of the fixed offsets from just after joint j-1's
        rotation up to and including joint j's own offset; M_j = H8^+(F_j)
        and K_j = M_j H8^+(a_j) for the joint axis a_j, so that
        H8^+(F_j R_j(q)) = cos(q/2) M_j + sin(q/2) K_j.  The last block ends
        with the flange, the product of the offsets after the last joint;
        a chain without joints is one empty block.  See ``_block_table``.
        """
        folded = np.eye(8)
        factors = []
        for elem in self.elements:
            folded = folded @ _hamilton8(elem.offset.vec8(), 1)
            if elem.axis is not None:
                factors.append((folded, folded @ _hamilton8(_EYE8[_AXES[elem.axis]], 1)))
                folded = np.eye(8)
        flange = folded[:, 0]  # H8^+(F) e_1 = vec8(F)
        return tuple(_block_table(factors[j:j + _BLOCK_JOINTS], j,
                                  flange if j + _BLOCK_JOINTS >= self.dof else _EYE8[0])
                     for j in range(0, max(self.dof, 1), _BLOCK_JOINTS))

    def clamp_position(self, q: np.ndarray) -> np.ndarray:
        # np.clip(q, q_min, q_max) bit for bit (operands in its comparison
        # order, so a signed zero at a bound comes out the same), without the
        # cost of np.clip's Python wrapper: about a tenth of an inner tick
        return np.minimum(self.q_max, np.maximum(self.q_min, q))

    def scale_velocity(self, qd: np.ndarray) -> np.ndarray:
        """Uniformly scale qd into the velocity box, preserving direction."""
        ratio = np.maximum.reduce(np.abs(qd) / self.qd_max)
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


def _block_table(factors: list[tuple[np.ndarray, np.ndarray]], first: int,
                 tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, table) of the block x_b = G_0 ... G_(k-1) tail of k = len(factors) joints.

    G_j = c_j M_j + s_j K_j for (M_j, K_j) = factors[j] and c_j, s_j =
    cos, sin of half joint ``first`` + j.  Expanding the product,
    vec8(x_b) = sum_t mu_t V_t over the 2^k bit patterns t, where
    mu_t = prod_j (s_j if bit j of t is set, else c_j) and
    V_t = prod_j (K_j if bit j of t is set, else M_j) tail.  As
    d mu_t/dq_j = +-1/2 mu_(t xor 2^j), column j of the block's Jacobian is
    sum_u mu_u W_(j,u) with W_(j,u) = (-1/2 if bit j of u is set, else 1/2)
    V_(u xor 2^j).  table is [V | W] (2^k x 8(k+1)), W's columns ordered as
    the entries of the k x 8 transposed Jacobian, so that the product
    mu @ table, read as a (k + 1) x 8 block, is [vec8(x_b); J_b^T]; index
    (k x 2^k) picks mu_t's factors out of the joint vector's interleaved
    (c_0, s_0, c_1, s_1, ...).
    """
    vectors = tail[None]
    for m, k in reversed(factors):  # bit j of the row index picks K_j for M_j
        vectors = np.stack((vectors @ m.T, vectors @ k.T), axis=1).reshape(-1, 8)
    joints = np.arange(len(factors))
    patterns = np.arange(len(vectors))[:, None]
    bits = (patterns >> joints) & 1
    w = (0.5 - bits)[:, :, None] * vectors[patterns ^ (1 << joints)]
    table = np.concatenate((vectors, w.reshape(len(vectors), -1)), axis=1)
    index = (2 * (first + joints) + bits).T
    for arr in (index, table):
        arr.setflags(write=False)
    return index, table


def _pose_and_jacobian(model: RobotModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one chain pass: vec8(x_eff), checked unit, and the 8 x dof pose Jacobian.

    Each block of ``model._chain`` gives its pose and Jacobian as one product,
    monomials mu(q) times its table, read as the block [vec8(x_b); J_b^T]
    (see ``_block_table``): with at most 8 joints, one block is the whole
    chain, and the pose and the Jacobian are views of it.  Longer chains
    combine the blocks by Hamilton products, x = x_1 x_2 ..., so a column of
    block b is H8^+(x_1 ... x_(b-1)) H8^-(x_(b+1) ...) times the block's own.
    A pose off unit (NaN joints, a drifted chain) raises ValueError.
    """
    cos_sin = np.exp(0.5j * q).view(float)  # cos(q_j/2), sin(q_j/2) interleaved
    # the monomials, prod(axis=0) of the gathered factors, without the method's wrapper
    index, table = model._chain[0]
    block = np.multiply.reduce(cos_sin.take(index), axis=0).dot(table).reshape(-1, 8)
    x_eff8, jac = block[0], block[1:].T
    for index, table in model._chain[1:]:
        block = np.multiply.reduce(cos_sin.take(index), axis=0).dot(table).reshape(-1, 8)
        left = _hamilton8(x_eff8, 1)
        jac = np.concatenate((_hamilton8(block[0], -1) @ jac, left @ block[1:].T), axis=1)
        x_eff8 = left @ block[0]
    _check_unit(*x_eff8.tolist())
    return x_eff8, jac


def _task_map(x_d8: np.ndarray) -> np.ndarray:
    """H8^-(x_d) C8 from vec8(x_d)."""
    return x_d8.dot(_TASK_BASIS).reshape(8, 8)


def _error8(task_map: np.ndarray, x_d8: np.ndarray, x_eff8: np.ndarray) -> np.ndarray:
    """vec8(1 - x_d^* x_eff) from task_map = H8^-(x_d) C8, double-cover aligned.

    (x_d^* x_eff)^* = x_eff^* x_d, so vec8(x_d^* x_eff) = C8 H8^-(x_d) C8 vec8(x_eff),
    which negating x_eff negates exactly.
    """
    err = (_CONJ if x_d8.dot(x_eff8) < 0.0 else _NEG_CONJ) * task_map.dot(x_eff8)
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
    return _pose_and_jacobian(model, _check_q(model, q))[1].copy()


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
    if not np.isfinite(gain).all():
        raise ValueError("gain matrix must be finite")
    return gain


def inner_control(model: RobotModel, q, x_d: UnitDualQuaternion,
                  gain: np.ndarray) -> ControlCommand:
    """Kinematic control law qdot = -(H8(x_d) C8 J)^+ K vec8(e).

    The columns of the task matrix N = H8(x_d) C8 J are rates of the unit
    r = x_eff^* x_d, so they lie in its 6-dimensional tangent space, with
    normals n_1 = (r_P, 0), n_2 = (r_D, r_P).  So for 6 or more joints
    N^+ = N^T M^-1, M = N N^T + n_1 n_1^T + n_2 n_2^T, one 8x8 inverse,
    used when ||M^-1||_F^2 < 1e12 certifies sigma_6(N) > 1e-3.  Otherwise
    (near a singularity, M's inverse not finite, or fewer than 6 joints) the
    pseudo-inverse comes from an SVD with singular-value cutoff 1e-8; when
    it shows the nominal rank min(dof, 6) collapsing, a damped
    least-squares fallback (damping 1e-4) is used and reported in the flag.
    A gain that is not a finite 8x8 matrix, or an x_d or a chain product
    that is not unit, raises ValueError.
    """
    loop = _InnerLoop(model, q, gain)
    loop.aim(_unit_vec8(x_d))
    with np.errstate(invalid="ignore"):  # the NaN inverse of a singular M, unwarned
        return _control_law(loop)


class _InnerLoop:
    """The inner loop of one run: what the run fixes, formed once, and its state.

    Built at joints q (one chain pass) for gain K and ``ticks`` inner ticks of
    length dt per MPC tick (``inner_control``'s runs none), it carries
    (q, x_eff8, jac), the joints with their unit pose and Jacobian.  ``aim``
    writes, for x_d, ``task_map`` T = H8^-(x_d) C8 and ``rows`` (25 x 8),
    _NORMAL_ROWS T, K C8 T and vec8(x_d): rows @ vec8(x_eff) is (n_1, n_2,
    K C8 r, <x_d, x_eff>) at r = T vec8(x_eff).  The workspace holds N^T and
    then that product: its first dof + 2 rows of 8 are ``aug`` = [N^T; n_1; n_2].
    """

    def __init__(self, model: RobotModel, q, gain, dt: float = 0.0, ticks: int = 0):
        self.model, self.dt, self.ticks = model, dt, ticks
        self.q = _check_q(model, q)
        self.gain = _check_gain(gain)
        self.k_conj, self.k_e1 = self.gain * _CONJ, self.gain[:, 0]  # K C8, K e_1
        self.task_flat = np.empty(64)
        self.task_map = self.task_flat.reshape(8, 8)
        self.task_t = self.task_map.T
        self.rows = np.empty((25, 8))
        self.x_d8 = self.rows[24]
        dof = model.dof
        work = np.empty(8 * dof + 25)
        self.aug = work[:8 * dof + 16].reshape(dof + 2, 8)
        self.aug_t, self.task_rows = self.aug.T, self.aug[:dof]  # aug^T, N^T
        # rows @ vec8(x_eff) and its K C8 r
        self.tail, self.k_conj_r = work[8 * dof:], work[8 * dof + 16:8 * dof + 24]
        self.x_eff8, self.jac = _pose_and_jacobian(model, self.q)

    def aim(self, x_d8: np.ndarray) -> None:
        """Write the task map and the rows of the law for x_d."""
        x_d8.dot(_TASK_BASIS, out=self.task_flat)
        _NORMAL_ROWS.dot(self.task_map, out=self.rows[:16])
        self.k_conj.dot(self.task_map, out=self.rows[16:24])
        self.x_d8[:] = x_d8

    def track(self, x_d8: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool, float]:
        """One MPC tick toward x_d: the new q and x_eff8, whether an inner tick
        was singular, and |1 - x_d^* x_eff| at the new pose.

        Each inner tick applies the control law (``_control_law``), scales qdot
        into the velocity box, takes an explicit Euler step of length dt,
        clamps to the position limits and makes the one chain pass
        (``_pose_and_jacobian``) at the new q.  A q that turns NaN fails the
        pass's unit check and raises FloatingPointError("NaN in simulation
        state"); a finite pose off unit keeps the pass's ValueError.
        """
        self.aim(x_d8)
        model, dt = self.model, self.dt
        singular = False
        with np.errstate(invalid="ignore"):  # as in inner_control, once per MPC tick
            for _ in range(self.ticks):
                qdot, tick_singular = _control_law(self)
                singular = singular or tick_singular
                self.q = q = model.clamp_position(self.q + dt * model.scale_velocity(qdot))
                try:
                    self.x_eff8, self.jac = _pose_and_jacobian(model, q)
                except ValueError:
                    if np.isnan(q).any():
                        raise FloatingPointError("NaN in simulation state") from None
                    raise
        err = _error8(self.task_map, x_d8, self.x_eff8)
        # as np.linalg.norm takes it, sqrt(e . e), without its wrapper
        return self.q, self.x_eff8, singular, math.sqrt(err.dot(err))


def _control_law(loop: _InnerLoop) -> ControlCommand:
    """``inner_control`` at the loop's pose and Jacobian, for its last aimed x_d."""
    # products by ndarray.dot, which calls the same BLAS routine as @ at half its overhead;
    # BLAS forms N^T = J^T T^T with the bits of T J
    loop.jac.T.dot(loop.task_t, out=loop.task_rows)
    if loop.model.dof >= 6:
        tail = loop.rows.dot(loop.x_eff8, out=loop.tail)
        # np.linalg.inv's gufunc, bit for bit: a singular M comes back NaN, failing the certificate
        m_inv = _inv(loop.aug_t.dot(loop.aug), signature="d->d")
        if np.vdot(m_inv, m_inv) < _CERTIFIED_INV_SQ:
            # -K vec8(e) for e = e_1 - C8 r, or e_1 + C8 r where <x_d, x_eff> < 0
            neg_gain_err = (-(loop.k_conj_r + loop.k_e1) if tail[24] < 0.0
                            else loop.k_conj_r - loop.k_e1)
            return ControlCommand(loop.task_rows.dot(m_inv.dot(neg_gain_err)), False)

    # the SVD route, on N and on e as pose_error forms it
    task = loop.task_rows.T
    err = _error8(loop.task_map, loop.x_d8, loop.x_eff8)
    u_svd, sigma, vt = np.linalg.svd(task, full_matrices=False)
    nominal_rank = min(loop.model.dof, 6)
    singular = bool(sigma[nominal_rank - 1] < SV_CUTOFF)
    if singular:
        inv_sigma = sigma / (sigma * sigma + DLS_DAMPING * DLS_DAMPING)
    else:
        inv_sigma = np.where(sigma >= SV_CUTOFF, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
    task_pinv = (vt.T * inv_sigma).dot(u_svd.T)
    qdot = (-task_pinv).dot(loop.gain.dot(err))
    return ControlCommand(qdot, singular)


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
