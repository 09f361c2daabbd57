"""Receding-horizon smoothing of a 6-DoF task-space twist.

The plant is the exact zero-order-hold discretization of a double
integrator driven by the task acceleration: per axis, the state carries the
integrated twist and the twist itself, and the applied input u is the
acceleration, so the realized per-step twist difference equals T*u and the
per-step input increment equals T*jerk.  The model is augmented with
backward differences for offset-free tracking, predictions are condensed
into (F, Phi), and each tick solves a dense QP with stacked jerk,
acceleration and velocity inequality rows via Hildreth's dual
coordinate-ascent.

Twist vectors are ordered [wx, wy, wz, vx, vy, vz] (vec6 of a pure dual
quaternion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dualquat import PureDualQuaternion, UnitDualQuaternion, exp

__all__ = [
    "MpcConfig",
    "LimitSet",
    "PredictionMatrices",
    "QpProblem",
    "QpSolution",
    "SmootherState",
    "StepResult",
    "TwistSmoother",
    "build_model",
    "build_prediction",
    "build_setpoint",
    "build_qp",
    "solve_qp",
]

N_AXES = 6
PLANT_DIM = 12
AUG_DIM = 18

DUAL_TOL = 1e-9
FEAS_TOL = 1e-6


def _limit_pair(min_v, max_v, name: str) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(min_v, dtype=float).reshape(-1)
    hi = np.asarray(max_v, dtype=float).reshape(-1)
    if lo.shape != (N_AXES,) or hi.shape != (N_AXES,):
        raise ValueError(f"{name} limits must have {N_AXES} components")
    if np.any(lo >= hi):
        raise ValueError(f"{name} limits are infeasible: min >= max")
    if np.any(lo > 0.0) or np.any(hi < 0.0):
        raise ValueError(f"{name} limits must bracket zero")
    return lo, hi


@dataclass(frozen=True)
class LimitSet:
    """Task-space velocity, acceleration and jerk bounds, per axis."""

    vel_min: np.ndarray
    vel_max: np.ndarray
    acc_min: np.ndarray
    acc_max: np.ndarray
    jerk_min: np.ndarray
    jerk_max: np.ndarray

    def __post_init__(self):
        for name in ("vel", "acc", "jerk"):
            lo, hi = _limit_pair(getattr(self, name + "_min"),
                                 getattr(self, name + "_max"), name)
            object.__setattr__(self, name + "_min", lo)
            object.__setattr__(self, name + "_max", hi)

    @classmethod
    def unbounded(cls) -> "LimitSet":
        inf = np.full(N_AXES, np.inf)
        return cls(-inf, inf, -inf, inf, -inf, inf)


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, sample time and diagonal weight bases for the smoother."""

    n_c: int = 10
    n_p: int = 50
    sample_time: float = 0.009
    q_weight: np.ndarray = field(default_factory=lambda: np.ones(N_AXES))
    r_weight: np.ndarray = field(default_factory=lambda: 0.1 * np.ones(N_AXES))

    def __post_init__(self):
        if not (1 <= self.n_c <= self.n_p):
            raise ValueError(f"need 1 <= n_c <= n_p, got n_c={self.n_c}, n_p={self.n_p}")
        if self.sample_time <= 0.0:
            raise ValueError("sample_time must be positive")
        q = np.asarray(self.q_weight, dtype=float).reshape(-1)
        r = np.asarray(self.r_weight, dtype=float).reshape(-1)
        if q.shape != (N_AXES,) or r.shape != (N_AXES,):
            raise ValueError(f"q_weight and r_weight must have {N_AXES} entries")
        if np.any(q < 0.0):
            raise ValueError("q_weight must be nonnegative (Q_mpc >= 0)")
        if np.any(r <= 0.0):
            raise ValueError("r_weight must be positive (R_mpc > 0)")
        object.__setattr__(self, "q_weight", q)
        object.__setattr__(self, "r_weight", r)

    def output_weight(self) -> np.ndarray:
        """Block-diagonal Q_mpc over the prediction horizon (6n_p x 6n_p)."""
        return np.kron(np.eye(self.n_p), np.diag(self.q_weight))

    def effort_weight(self) -> np.ndarray:
        """Block-diagonal R_mpc over the control horizon (6n_c x 6n_c)."""
        return np.kron(np.eye(self.n_c), np.diag(self.r_weight))


def build_model(sample_time: float):
    """Discrete plant and difference-augmented model for one sample time T.

    Plant (12 states): A_m = [[I, T*I], [0, I]], B_m = [[T^2/2*I], [T*I]],
    exact ZOH of the double integrator; the output picked by C_m is the
    twist block, whose step-to-step difference is exactly T*u.  Augmented
    (18 states = 12 backward differences + 6 outputs):
    A = [[A_m, 0], [C_m A_m, I]], B = [[B_m], [C_m B_m]], C = [0, I].
    """
    T = float(sample_time)
    if T <= 0.0:
        raise ValueError("sample_time must be positive")
    eye = np.eye(N_AXES)
    a_m = np.block([[eye, T * eye], [np.zeros((N_AXES, N_AXES)), eye]])
    b_m = np.vstack([0.5 * T * T * eye, T * eye])
    c_m = np.hstack([np.zeros((N_AXES, N_AXES)), eye])

    a_aug = np.zeros((AUG_DIM, AUG_DIM))
    a_aug[:PLANT_DIM, :PLANT_DIM] = a_m
    a_aug[PLANT_DIM:, :PLANT_DIM] = c_m @ a_m
    a_aug[PLANT_DIM:, PLANT_DIM:] = eye
    b_aug = np.vstack([b_m, c_m @ b_m])
    c_aug = np.hstack([np.zeros((N_AXES, PLANT_DIM)), eye])
    return a_aug, b_aug, c_aug


@dataclass(frozen=True)
class PredictionMatrices:
    """Condensed prediction Y = F @ state + Phi @ delta_u_sequence."""

    f: np.ndarray    # (6 n_p, 18)
    phi: np.ndarray  # (6 n_p, 6 n_c), lower block-triangular


def build_prediction(model, n_p: int, n_c: int) -> PredictionMatrices:
    """Stack C A^k rows into F and the block-Toeplitz convolution into Phi."""
    a, b, c = model
    if not (1 <= n_c <= n_p):
        raise ValueError(f"need 1 <= n_c <= n_p, got n_c={n_c}, n_p={n_p}")
    f = np.zeros((N_AXES * n_p, AUG_DIM))
    markov = np.zeros((N_AXES * n_p, N_AXES))  # row block k holds C A^k B
    ca = c.copy()
    for k in range(n_p):
        markov[N_AXES * k: N_AXES * (k + 1)] = ca @ b
        ca = ca @ a
        f[N_AXES * k: N_AXES * (k + 1)] = ca
    phi = np.zeros((N_AXES * n_p, N_AXES * n_c))
    for col in range(n_c):
        rows = N_AXES * (n_p - col)
        phi[N_AXES * col:, N_AXES * col: N_AXES * (col + 1)] = markov[:rows]
    return PredictionMatrices(f, phi)


def build_setpoint(target: np.ndarray, n_p: int) -> np.ndarray:
    """Stack n_p copies of the current 6-vector reference twist."""
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (N_AXES,):
        raise ValueError(f"target twist must have {N_AXES} components")
    return np.tile(target, n_p)


def _summation_matrix(n_c: int) -> np.ndarray:
    """Lower block-triangular S with S_k @ dU = sum_{j<=k} du_j."""
    return np.kron(np.tril(np.ones((n_c, n_c))), np.eye(N_AXES))


@dataclass(frozen=True)
class QpProblem:
    """Dense QP: minimize (1/2) x^T E x + f^T x subject to W x <= V."""

    e: np.ndarray
    f: np.ndarray
    w: np.ndarray
    v: np.ndarray


def _interleave(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Rows of `minus` then of `plus`, alternating per 6-row block."""
    blocks = (-1, N_AXES) + minus.shape[1:]
    pair = np.stack([minus.reshape(blocks), plus.reshape(blocks)], axis=1)
    return pair.reshape((2 * minus.shape[0],) + minus.shape[1:])


@dataclass(frozen=True)
class _StaticQp:
    """The QP parts fixed by horizons, weights and limits: E, W, V at zero offset."""

    n_c: int
    e: np.ndarray
    w: np.ndarray
    v_zero: np.ndarray
    phi_t_q: np.ndarray  # Phi^T Q
    f_mat: np.ndarray


def _static_qp(prediction: PredictionMatrices, cfg: MpcConfig,
               limits: LimitSet) -> _StaticQp:
    n_c = cfg.n_c
    phi = prediction.phi
    phi_t_q = phi.T @ cfg.output_weight()
    e = phi_t_q @ phi + cfg.effort_weight()
    e = 0.5 * (e + e.T)
    n_dec = N_AXES * n_c
    rows = np.vstack([np.eye(n_dec), _summation_matrix(n_c), phi[:n_dec]])
    T = cfg.sample_time
    lo = np.concatenate([np.tile(b, n_c) for b in
                         (T * limits.jerk_min, limits.acc_min, limits.vel_min)])
    hi = np.concatenate([np.tile(b, n_c) for b in
                         (T * limits.jerk_max, limits.acc_max, limits.vel_max)])
    return _StaticQp(n_c, e, _interleave(-rows, rows), _interleave(-lo, hi),
                     phi_t_q, prediction.f)


def _tick_qp(static: _StaticQp, state: np.ndarray, setpoint: np.ndarray,
             u_prev: np.ndarray) -> QpProblem:
    """Add the state-dependent f and row offsets to the static parts.

    The offsets are 0 (jerk), u_prev (acceleration) and the free response
    F state (velocity): -rows gain +offset, +rows gain -offset.
    """
    n_c, f_mat = static.n_c, static.f_mat
    n_dec = N_AXES * n_c
    f = -static.phi_t_q @ (setpoint - f_mat @ state)
    offset = np.concatenate([np.zeros(n_dec), np.tile(u_prev, n_c),
                             f_mat[:n_dec] @ state])
    return QpProblem(static.e, f, static.w, static.v_zero + _interleave(offset, -offset))


def build_qp(state, setpoint, prediction: PredictionMatrices, cfg: MpcConfig,
             limits: LimitSet, u_prev) -> QpProblem:
    """Assemble the tracking QP for the current augmented state.

    E = Phi^T Q Phi + R and f = -Phi^T Q (setpoint - F state).  Constraint
    rows come in three stacked groups of 12 n_c rows each (-min row then
    +max row per block):

    1. jerk:         +-du_k        <= T * jerk bounds (du is an acceleration
                                      increment, so jerk = du/T),
    2. acceleration: +-(u_prev + sum_{j<=k} du_j) <= acc bounds, and
    3. velocity:     +-(F state + Phi dU) output rows for the first n_c
                     prediction blocks <= vel bounds.
    """
    state = np.asarray(state, dtype=float).reshape(-1)
    if state.shape != (AUG_DIM,):
        raise ValueError(f"augmented state must have {AUG_DIM} components")
    u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
    if u_prev.shape != (N_AXES,):
        raise ValueError(f"u_prev must have {N_AXES} components")
    return _tick_qp(_static_qp(prediction, cfg, limits), state,
                    np.asarray(setpoint, dtype=float), u_prev)


@dataclass
class QpSolution:
    delta_u: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool
    max_violation: float

    @property
    def feasible(self) -> bool:
        return self.max_violation <= FEAS_TOL

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.lam > 1e-12))


def solve_qp(qp: QpProblem, e_inv: np.ndarray | None = None,
             h: np.ndarray | None = None) -> QpSolution:
    """Hildreth's dual coordinate ascent for the dense inequality QP.

    Starting from lambda = 0, Gauss-Seidel sweeps update each multiplier
    lambda_i <- max(0, .) until the largest dual change in a sweep falls
    below 1e-9 or the sweep count reaches 10x the number of rows (floored
    at 2000: low-dimensional problems with nearly dependent rows need more
    sweeps than 10x their row count).  The primal is recovered as
    dU = -E^-1 (f + W^T lambda); when no constraint is violated at the
    unconstrained minimizer it is returned directly.

    Rows with infinite bounds can never activate and are skipped.  Sweeps
    run over the set of rows violated at the current iterate; whenever the
    set converges, the dual gradient of every skipped row is checked and
    newly violated rows join the set, so the result equals a full sweep.
    E^-1 and H = W E^-1 W^T only depend on the static problem structure and
    may be passed in precomputed.
    """
    e, f, w, v = qp.e, qp.f, qp.w, qp.v
    if e_inv is None:
        e_inv = np.linalg.inv(e)
    x_unc = -e_inv @ f
    n_rows = w.shape[0]
    lam = np.zeros(n_rows)
    if n_rows == 0:
        return QpSolution(x_unc, lam, 0, True, 0.0)

    finite = np.isfinite(v)
    residual = w @ x_unc - v
    if np.all(residual <= 1e-12):
        mv = float(max(residual[finite].max(), 0.0)) if finite.any() else 0.0
        return QpSolution(x_unc, lam, 0, True, mv)

    if h is None:
        h = (w @ e_inv) @ w.T
    k_vec = v - w @ x_unc  # equals V + W E^-1 f
    h_diag = np.diag(h)
    eligible = finite & (h_diag > 1e-14)
    in_set = eligible & (k_vec < 0.0)
    sweep_rows = np.flatnonzero(in_set)

    max_sweeps = max(10 * n_rows, 2000)
    converged = False
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        change = 0.0
        for i in sweep_rows:
            num = k_vec[i] + h[i] @ lam - h_diag[i] * lam[i]
            new = -num / h_diag[i]
            if new < 0.0:
                new = 0.0
            delta = abs(new - lam[i])
            if delta > change:
                change = delta
            lam[i] = new
        if change >= DUAL_TOL:
            continue
        # set converged; admit any skipped row whose dual gradient pushes in
        grad = k_vec + h @ lam
        fresh = np.flatnonzero(eligible & ~in_set & (grad < -DUAL_TOL))
        if fresh.size == 0:
            converged = True
            break
        in_set[fresh] = True
        sweep_rows = np.flatnonzero(in_set)

    x = x_unc - e_inv @ (w.T @ lam)
    viol = w @ x - v
    viol = viol[finite]
    max_violation = float(max(viol.max(), 0.0)) if viol.size else 0.0
    return QpSolution(x, lam, sweeps, converged, max_violation)


@dataclass
class SmootherState:
    """Mutable per-instance smoother memory.

    `augmented` is the 18-vector [backward differences of (integrated
    twist, twist); current output twist], `u_prev` the previously applied
    acceleration and `pose` the integrated smoothed pose.
    """

    augmented: np.ndarray
    u_prev: np.ndarray
    pose: UnitDualQuaternion

    def __post_init__(self):
        self.augmented = np.asarray(self.augmented, dtype=float).reshape(-1)
        if self.augmented.shape != (AUG_DIM,):
            raise ValueError(f"augmented state must have {AUG_DIM} components")
        self.u_prev = np.asarray(self.u_prev, dtype=float).reshape(-1)
        if self.u_prev.shape != (N_AXES,):
            raise ValueError(f"u_prev must have {N_AXES} components")

    @classmethod
    def at_rest(cls, pose: UnitDualQuaternion) -> "SmootherState":
        return cls(np.zeros(AUG_DIM), np.zeros(N_AXES), pose)


@dataclass(frozen=True)
class StepResult:
    twist: np.ndarray
    pose: UnitDualQuaternion
    delta_u: np.ndarray
    iterations: int
    converged: bool
    active_count: int
    max_violation: float


class TwistSmoother:
    """Receding-horizon smoother owning one SmootherState.

    Applies only the first block of the optimized increment sequence each
    tick, advances the augmented model, recovers the smoothed twist and
    integrates the pose with x[i] = exp((T/2) * xi[i+1]) * x[i-1]
    (renormalized every step to suppress drift).  Construction functions
    are pure; a single logical controller thread advances the state.
    """

    def __init__(self, cfg: MpcConfig, limits: LimitSet,
                 initial_pose: UnitDualQuaternion):
        self.cfg = cfg
        self.limits = limits
        self.model = build_model(cfg.sample_time)
        self.prediction = build_prediction(self.model, cfg.n_p, cfg.n_c)
        self.state = SmootherState.at_rest(initial_pose)
        self._static = _static_qp(self.prediction, cfg, limits)
        self._e_inv = np.linalg.inv(self._static.e)
        self._h = (self._static.w @ self._e_inv) @ self._static.w.T

    @property
    def pose(self) -> UnitDualQuaternion:
        return self.state.pose

    @property
    def twist(self) -> np.ndarray:
        return self.state.augmented[PLANT_DIM:].copy()

    def step(self, target) -> StepResult:
        """Advance one MPC tick toward the 6-vector reference twist."""
        cfg = self.cfg
        setpoint = build_setpoint(target, cfg.n_p)
        qp = _tick_qp(self._static, self.state.augmented, setpoint, self.state.u_prev)
        sol = solve_qp(qp, e_inv=self._e_inv, h=self._h)
        du = sol.delta_u[:N_AXES]

        a, b, c = self.model
        self.state.augmented = a @ self.state.augmented + b @ du
        self.state.u_prev = self.state.u_prev + du
        twist = c @ self.state.augmented

        half_step = 0.5 * cfg.sample_time
        motion = exp(PureDualQuaternion.from_vec6(twist) * half_step)
        self.state.pose = (motion * self.state.pose).normalized()
        return StepResult(twist, self.state.pose, du, sol.iterations,
                          sol.converged, sol.active_count, sol.max_violation)
