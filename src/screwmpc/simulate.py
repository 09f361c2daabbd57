"""Deterministic dual-rate closed-loop simulation and trajectory logs.

Every MPC tick the smoother advances one step toward the current reference
twist and the desired pose is held (zero-order) for a fixed number of inner
ticks, each of which runs the kinematic controller and integrates the
joints by explicit Euler.  Each inner tick makes one chain pass
(``kinematics._pose_and_jacobian``) at the joints it has just integrated;
that pose and Jacobian are carried to the next inner tick, and the last one
of an MPC tick is the pose it logs and measures both errors at.  One
object per run (``kinematics._InnerLoop``) carries them, forms what the run
fixes once and writes the desired pose's rows of the law per MPC tick; the
goal's task map is formed once per run.  One log record is written per MPC
tick; numbers are serialized with 17 significant digits so identical
configurations give byte-identical logs.  The tick loop records what it
measures; the realized acceleration, jerk and bound flags are differenced
from rest afterwards by the one function ``verify_trajectory`` also checks
a log with; a NaN sample counts as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import textio
from .config import RunConfig
from .dualquat import log
from .kinematics import RobotModel, _check_q, _error8, _InnerLoop, _task_map
# not called here: perfbench/tracing.py wraps these three names in this namespace
from .kinematics import forward_kinematics, inner_control, pose_error  # noqa: F401
from .mpc import FEAS_TOL, N_AXES, TwistSmoother, _AXIS_NAMES
from .screwpath import generate_path, reference_twists

__all__ = [
    "LOG_COLUMNS",
    "SimulationResult",
    "VerifyReport",
    "run_closed_loop",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "verify_trajectory",
]

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


def _realized(twist: np.ndarray, dt: np.ndarray, limits):
    """Finite-difference acceleration and jerk of a twist series, and bound flags.

    acc[i] = (twist[i+1] - twist[i]) / dt[i] and jerk[i] = (acc[i+1] - acc[i])
    / dt[i+1] for the per-interval times dt; each flag array marks the samples
    (twist, acc, jerk) where any axis exceeds its bound by more than 1e-6 or is NaN.
    """
    acc = np.diff(twist, axis=0) / dt[:, None]
    jerk = np.diff(acc, axis=0) / dt[1:, None]
    flags = [np.any(~((values <= hi + FEAS_TOL) & (values >= lo - FEAS_TOL)), axis=1)
             for values, lo, hi in ((twist, limits.vel_min, limits.vel_max),
                                    (acc, limits.acc_min, limits.acc_max),
                                    (jerk, limits.jerk_min, limits.jerk_max))]
    return acc, jerk, flags


def run_closed_loop(cfg: RunConfig, model: RobotModel,
                    keypoints) -> SimulationResult:
    """Plan through the keypoints and track the smoothed path.

    Terminates once the pose error to the final keypoint falls below the
    stop tolerance and no reference motion remains, or at the maximum
    duration.  After the reference series is exhausted the smoother is fed
    the twist that closes the remaining gap to the final keypoint, so the
    lag accumulated while constraints were active is wound down (still
    under the configured limits).  A tick has one fault path: a reference
    twist that is not finite, a smoother step that raises FloatingPointError
    (a smoothed twist that is not finite) and inner ticks whose joints turn
    NaN all raise FloatingPointError with the tick's time appended.  A start
    pose q0 without one entry per joint or outside the joint limits is
    rejected.
    """
    if model.dof != 7:
        raise ValueError(f"simulator expects a 7-joint model, got {model.dof}")
    q = _check_q(model, cfg.q0)
    outside = np.flatnonzero(~((model.q_min <= q) & (q <= model.q_max)))
    if outside.size:
        raise ValueError("start pose q0 is outside the joint limits: " + "; ".join(
            f"joint {j + 1} at {q[j]:g} not in [{model.q_min[j]:g}, {model.q_max[j]:g}]"
            for j in outside))
    path = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s)
    twists = reference_twists(path)
    goal = path.samples[-1].pose

    ref_vectors = np.array([xi.vec6() for xi in twists])
    moving = np.flatnonzero(np.abs(ref_vectors).max(axis=1) > _ZERO_TWIST)
    active_until = moving[-1] + 1 if moving.size else 0

    T = cfg.sample_time_s
    ratio = cfg.inner_ticks_per_mpc
    smoother = TwistSmoother(cfg.mpc, cfg.limits, path.samples[0].pose)
    goal8 = goal.vec8()
    goal_map = _task_map(goal8)
    loop = _InnerLoop(model, q, cfg.gain_matrix, cfg.inner_dt, ratio)

    max_ticks = max(1, int(math.ceil(cfg.max_duration_s / T)))
    records: list[list[float]] = []
    reason = "max_duration"
    err_goal = math.inf

    for tick in range(max_ticks):
        if tick < len(ref_vectors):
            ref = ref_vectors[tick]
        else:
            gap_rate = 2.0 / (_GAP_CLOSE_TICKS * T)
            ref = (log(goal * smoother.pose.inverse()) * gap_rate).vec6()
        t = tick * T
        try:
            if not np.isfinite(ref).all():
                raise FloatingPointError("non-finite reference twist")
            step = smoother.step(ref)
            x_d8 = step.pose.vec8()
            q, x_eff8, singular, err_track = loop.track(x_d8)
        except FloatingPointError as err:
            raise FloatingPointError(f"{err} at t = {t:.6f} s") from None
        # |e| as np.linalg.norm takes it, sqrt(e . e), without its wrapper
        e = _error8(goal_map, goal8, x_eff8)
        err_goal = math.sqrt(e.dot(e))

        records.append(
            [t, *np.concatenate((q, x_eff8, x_d8, ref, step.twist, step.delta_u)).tolist(),
             err_track, err_goal, float(step.iterations), float(step.converged),
             float(step.active_count), float(singular)]
        )

        if tick + 1 >= active_until and err_goal <= cfg.stop_tol:
            reason = "tolerance"
            break

    # the smoother starts at rest: difference the twist from two rest samples
    measured = np.array(records)
    n, k, split = len(measured), LOG_COLUMNS.index("twist_wx"), LOG_COLUMNS.index("acc_wx")
    acc, jerk, flags = _realized(np.vstack([np.zeros((2, N_AXES)), measured[:, k:k + N_AXES]]),
                                 np.full(n + 1, T), cfg.limits)
    rows = np.hstack([measured[:, :split], acc[1:], jerk, measured[:, split:],
                      np.column_stack([f[-n:] for f in flags])])
    singular_ticks = int(rows[:, LOG_COLUMNS.index("singular")].sum())
    qp_failures = int(np.count_nonzero(rows[:, LOG_COLUMNS.index("qp_converged")] == 0.0))
    return SimulationResult(list(LOG_COLUMNS), rows, reason,
                            err_goal, ratio, qp_failures, singular_ticks)


# ---------------------------------------------------------------------------
# Log files


def write_trajectory_csv(path: str | Path, result: SimulationResult) -> None:
    textio.write_records(path, ",".join(result.columns), result.rows.tolist())


def read_trajectory_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a trajectory log; returns (column names, data matrix)."""
    path = Path(path)
    text = path.read_text()
    if not text:
        raise ValueError(f"{path}: empty log file")
    header, _, body = text.partition("\n")
    columns = header.rstrip("\r").split(",")

    def parse(line: str) -> list[float]:
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
        return textio.floats(fields)

    data = textio.records(body, path, parse, first=2)
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
    its bound by more than 1e-6 or is NaN.
    """
    names = ["t"] + [f"twist_{a}" for a in _AXIS_NAMES]
    missing = [name for name in names if name not in columns]
    if missing:
        raise ValueError("log has no column " + ", ".join(missing))
    t, twist = rows[:, columns.index("t")], rows[:, [columns.index(n) for n in names[1:]]]
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        raise ValueError("log time column is not strictly increasing")
    acc, jerk, flags = _realized(twist, dt, limits)
    return VerifyReport(
        *(np.abs(values).max(axis=0, initial=0.0) for values in (twist, acc, jerk)),
        *(int(np.count_nonzero(f)) for f in flags),
    )
