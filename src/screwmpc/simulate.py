"""Deterministic dual-rate closed-loop simulation and trajectory logs.

Every MPC tick the smoother advances one step toward the current reference
twist and the desired pose is held (zero-order) for a fixed number of inner
ticks, each of which runs the kinematic controller and integrates the
joints by explicit Euler.  One log record is written per MPC tick; numbers
are serialized with 17 significant digits so identical configurations give
byte-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dualquat import log
from .kinematics import RobotModel, forward_kinematics, inner_control, pose_error
from .mpc import N_AXES, TwistSmoother
from .screwpath import _fmt, generate_path, reference_twists

__all__ = [
    "LOG_COLUMNS",
    "SimulationResult",
    "VerifyReport",
    "run_closed_loop",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "verify_trajectory",
]

_AXIS_NAMES = ("wx", "wy", "wz", "vx", "vy", "vz")
VIOLATION_SLACK = 1e-6
_ZERO_TWIST = 1e-12
# After the reference series ends, the residual gap to the final keypoint is
# wound down over this many MPC ticks (a gentle pose servo; driving the gap
# to zero in one tick would fight the smoother's lag and oscillate).
_GAP_CLOSE_TICKS = 40

LOG_COLUMNS = (
    ["t"]
    + [f"q{j}" for j in range(1, 8)]
    + [f"xeff_h{j}" for j in range(1, 9)]
    + [f"xd_h{j}" for j in range(1, 9)]
    + [f"ref_{a}" for a in _AXIS_NAMES]
    + [f"twist_{a}" for a in _AXIS_NAMES]
    + [f"du_{a}" for a in _AXIS_NAMES]
    + ["err_track", "err_goal"]
    + [f"acc_{a}" for a in _AXIS_NAMES]
    + [f"jerk_{a}" for a in _AXIS_NAMES]
    + ["qp_iters", "qp_converged", "qp_active", "singular",
       "viol_vel", "viol_acc", "viol_jerk"]
)


@dataclass
class SimulationResult:
    columns: list[str]
    rows: np.ndarray  # (n_records, len(columns))
    reason: str       # "tolerance" or "max_duration"
    final_goal_error: float
    inner_ticks_per_mpc: int
    qp_failures: int
    singular_ticks: int

    @property
    def n_records(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _exceeds(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    return bool(np.any(values > hi + VIOLATION_SLACK)
                or np.any(values < lo - VIOLATION_SLACK))


def run_closed_loop(cfg: RunConfig, model: RobotModel,
                    keypoints) -> SimulationResult:
    """Plan through the keypoints and track the smoothed path.

    Terminates once the pose error to the final keypoint falls below the
    stop tolerance and no reference motion remains, or at the maximum
    duration.  After the reference series is exhausted the smoother is fed
    the twist that closes the remaining gap to the final keypoint, so the
    lag accumulated while constraints were active is wound down (still
    under the configured limits).  NaN anywhere in the state is a hard
    failure, and a start pose q0 outside the joint limits is rejected.
    """
    if model.dof != 7:
        raise ValueError(f"simulator expects a 7-joint model, got {model.dof}")
    q = np.asarray(cfg.q0, dtype=float).copy()
    outside = np.flatnonzero(~((model.q_min <= q) & (q <= model.q_max)))
    if outside.size:
        raise ValueError("start pose q0 is outside the joint limits: " + "; ".join(
            f"joint {j + 1} at {q[j]:g} not in [{model.q_min[j]:g}, {model.q_max[j]:g}]"
            for j in outside))
    path = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s)
    twists = reference_twists(path)
    goal = path.samples[-1].pose

    ref_vectors = [xi.vec6() for xi in twists]
    active_until = 0
    for i, vec in enumerate(ref_vectors):
        if np.abs(vec).max() > _ZERO_TWIST:
            active_until = i + 1

    T = cfg.sample_time_s
    ratio = cfg.inner_ticks_per_mpc
    inner_dt = cfg.inner_dt
    gain = cfg.gain_matrix
    smoother = TwistSmoother(cfg.mpc, cfg.limits, path.samples[0].pose)
    lim = cfg.limits

    max_ticks = max(1, int(math.ceil(cfg.max_duration_s / T)))
    records: list[list[float]] = []
    prev_twist = np.zeros(N_AXES)
    prev_acc = np.zeros(N_AXES)
    qp_failures = 0
    singular_ticks = 0
    reason = "max_duration"
    err_goal = math.inf

    for tick in range(max_ticks):
        if tick < len(ref_vectors):
            ref = ref_vectors[tick]
        else:
            gap_rate = 2.0 / (_GAP_CLOSE_TICKS * T)
            ref = (log(goal * smoother.pose.inverse()) * gap_rate).vec6()
        step = smoother.step(ref)
        if not step.converged or step.max_violation > VIOLATION_SLACK:
            qp_failures += 1

        x_d = step.pose
        singular = False
        for _ in range(ratio):
            cmd = inner_control(model, q, x_d, gain)
            singular = singular or cmd.singular
            qd = model.scale_velocity(cmd.qdot)
            q = model.clamp_position(q + inner_dt * qd)
        if singular:
            singular_ticks += 1

        x_eff = forward_kinematics(model, q)
        err_track = float(np.linalg.norm(pose_error(x_d, x_eff).vec8()))
        err_goal = float(np.linalg.norm(pose_error(goal, x_eff).vec8()))
        acc = (step.twist - prev_twist) / T
        jerk = (acc - prev_acc) / T
        t = tick * T

        if np.isnan(q).any() or np.isnan(step.twist).any():
            raise FloatingPointError(f"NaN in simulation state at t = {t:.6f} s")

        records.append(
            [t, *q, *x_eff.vec8(), *x_d.vec8(), *ref, *step.twist, *step.delta_u,
             err_track, err_goal, *acc, *jerk,
             float(step.iterations), float(step.converged),
             float(step.active_count), float(singular),
             float(_exceeds(step.twist, lim.vel_min, lim.vel_max)),
             float(_exceeds(acc, lim.acc_min, lim.acc_max)),
             float(_exceeds(jerk, lim.jerk_min, lim.jerk_max))]
        )
        prev_twist, prev_acc = step.twist, acc

        if tick + 1 >= active_until and err_goal <= cfg.stop_tol:
            reason = "tolerance"
            break

    return SimulationResult(list(LOG_COLUMNS), np.array(records), reason,
                            err_goal, ratio, qp_failures, singular_ticks)


# ---------------------------------------------------------------------------
# Log files


def write_trajectory_csv(path: str | Path, result: SimulationResult) -> None:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a trajectory log; returns (column names, data matrix)."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty log file")
    columns = lines[0].split(",")
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(
                f"{path}:{lineno}: expected {len(columns)} fields, got {len(fields)}"
            )
        try:
            data.append([float(tok) for tok in fields])
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: non-numeric field ({err})") from None
    if not data:
        raise ValueError(f"{path}: log has no records")
    return columns, np.array(data)


# ---------------------------------------------------------------------------
# Constraint verification


@dataclass
class VerifyReport:
    max_vel: np.ndarray
    max_acc: np.ndarray
    max_jerk: np.ndarray
    vel_violations: int
    acc_violations: int
    jerk_violations: int

    @property
    def total_violations(self) -> int:
        return self.vel_violations + self.acc_violations + self.jerk_violations

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def render(self) -> str:
        lines = ["axis      max|vel|      max|acc|     max|jerk|"]
        for k, name in enumerate(_AXIS_NAMES):
            lines.append(
                f"{name:4s} {self.max_vel[k]:13.6g} {self.max_acc[k]:13.6g} "
                f"{self.max_jerk[k]:13.6g}"
            )
        lines.append(
            f"violations: vel={self.vel_violations} acc={self.acc_violations} "
            f"jerk={self.jerk_violations}"
        )
        return "\n".join(lines)


def verify_trajectory(columns: list[str], rows: np.ndarray,
                      limits) -> VerifyReport:
    """Check the smoothed-twist columns of a log against the limits.

    Velocity is the twist itself; acceleration and jerk are first and
    second finite differences of consecutive records (the log is written at
    the MPC rate).  A sample counts as a violation when any axis exceeds
    its bound by more than 1e-6.
    """
    idx = [columns.index(f"twist_{a}") for a in _AXIS_NAMES]
    t = rows[:, columns.index("t")]
    twist = rows[:, idx]
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("log time column is not strictly increasing")
    dt = np.diff(t)[:, None]
    acc = np.diff(twist, axis=0) / dt
    jerk = np.diff(acc, axis=0) / dt[1:]

    def count(values, lo, hi):
        if values.size == 0:
            return 0
        over = (values > hi + VIOLATION_SLACK) | (values < lo - VIOLATION_SLACK)
        return int(np.count_nonzero(np.any(over, axis=1)))

    def absmax(values):
        if values.size == 0:
            return np.zeros(N_AXES)
        return np.abs(values).max(axis=0)

    return VerifyReport(
        absmax(twist), absmax(acc), absmax(jerk),
        count(twist, limits.vel_min, limits.vel_max),
        count(acc, limits.acc_min, limits.acc_max),
        count(jerk, limits.jerk_min, limits.jerk_max),
    )
