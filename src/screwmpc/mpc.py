"""Receding-horizon smoothing of a 6-DoF task-space twist.

The plant is the exact zero-order-hold discretization of a double
integrator driven by the task acceleration: per axis, the state carries the
integrated twist and the twist itself, and the applied input u is the
acceleration, so the realized per-step twist difference equals T*u and the
per-step input increment equals T*jerk.  Nothing couples the axes, so the
smoother models one axis as a 3-state chain augmented with backward
differences for offset-free tracking, condenses predictions into (F, Phi)
and each tick solves the six QPs (jerk, acceleration and velocity rows) in
one batched, iteration-capped interior-point solve.  ``build_model``,
``build_prediction`` and ``build_qp`` give its dense 18-state lifts (x I6).

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
AUG_DIM = 18

FEAS_TOL = 1e-6
_MAX_ITERATIONS = 30
_KKT_TOL = 1e-10


def _limit_pair(min_v, max_v, name: str) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(min_v, dtype=float).reshape(-1)
    hi = np.asarray(max_v, dtype=float).reshape(-1)
    if lo.shape != (N_AXES,) or hi.shape != (N_AXES,):
        raise ValueError(f"{name} limits must have {N_AXES} components")
    if not np.all(lo < hi):
        raise ValueError(f"{name} limits are infeasible: min >= max")
    if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):
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
    """Horizons, sample time and per-axis diagonal weights for the smoother."""

    n_c: int = 10
    n_p: int = 50
    sample_time: float = 0.009
    q_weight: np.ndarray = field(default_factory=lambda: np.ones(N_AXES))
    r_weight: np.ndarray = field(default_factory=lambda: 0.1 * np.ones(N_AXES))

    def __post_init__(self):
        if not (1 <= self.n_c <= self.n_p):
            raise ValueError(f"need 1 <= n_c <= n_p, got n_c={self.n_c}, n_p={self.n_p}")
        if not self.sample_time > 0.0:
            raise ValueError("sample_time must be positive")
        q = np.asarray(self.q_weight, dtype=float).reshape(-1)
        r = np.asarray(self.r_weight, dtype=float).reshape(-1)
        if q.shape != (N_AXES,) or r.shape != (N_AXES,):
            raise ValueError(f"q_weight and r_weight must have {N_AXES} entries")
        if not np.all(q >= 0.0):
            raise ValueError("q_weight must be nonnegative (Q_mpc >= 0)")
        if not np.all(r > 0.0):
            raise ValueError("r_weight must be positive (R_mpc > 0)")
        object.__setattr__(self, "q_weight", q)
        object.__setattr__(self, "r_weight", r)


def _scalar_model(sample_time: float):
    """One axis's augmented model (3 states: 2 backward differences + output).

    Plant a_m = [[1, T], [0, 1]], b_m = [T^2/2, T]^T, c_m = [0, 1] (exact ZOH of
    the double integrator); A = [[a_m, 0], [c_m a_m, 1]], B = [b_m; c_m b_m]."""
    T = float(sample_time)
    if not T > 0.0:
        raise ValueError("sample_time must be positive")
    a = np.array([[1.0, T, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([[0.5 * T * T], [T], [T]])
    c = np.array([[0.0, 0.0, 1.0]])
    return a, b, c


def _unlift(*dense):
    """The per-axis matrices whose Kronecker products with I6 are `dense`."""
    scalar = tuple(m[::N_AXES, ::N_AXES].copy() for m in dense)
    if not all(np.array_equal(np.kron(s, np.eye(N_AXES)), m) for s, m in zip(scalar, dense)):
        raise ValueError("matrices must act on each axis alike (kron(scalar, I6))")
    return scalar


def build_model(sample_time: float):
    """Difference-augmented model for sample time T: the scalar one x I6.

    Plant A_m = [[I, T*I], [0, I]], B_m = [[T^2/2*I], [T*I]], C_m = [0, I];
    augmented (18 states = 12 backward differences + 6 outputs):
    A = [[A_m, 0], [C_m A_m, I]], B = [[B_m], [C_m B_m]], C = [0, I].
    """
    return tuple(np.kron(m, np.eye(N_AXES)) for m in _scalar_model(sample_time))


@dataclass(frozen=True)
class PredictionMatrices:
    """Condensed prediction Y = F @ state + Phi @ delta_u_sequence."""

    f: np.ndarray    # (6 n_p, 18)
    phi: np.ndarray  # (6 n_p, 6 n_c), lower block-triangular


def _scalar_prediction(model, n_p: int, n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack C A^k rows into F_s (n_p x 3) and the Toeplitz convolution into Phi_s."""
    a, b, c = model
    if not (1 <= n_c <= n_p):
        raise ValueError(f"need 1 <= n_c <= n_p, got n_c={n_c}, n_p={n_p}")
    f = np.zeros((n_p, a.shape[0]))
    markov = np.zeros(n_p)  # markov[k] = C A^k B
    ca = c
    for k in range(n_p):
        markov[k] = (ca @ b)[0, 0]
        ca = ca @ a
        f[k] = ca[0]
    phi = np.zeros((n_p, n_c))
    for col in range(n_c):
        phi[col:, col] = markov[:n_p - col]
    return f, phi


def build_prediction(model, n_p: int, n_c: int) -> PredictionMatrices:
    """F = kron(F_s, I6) and Phi = kron(Phi_s, I6) from the per-axis prediction."""
    scalar = _scalar_prediction(_unlift(*model), n_p, n_c)
    return PredictionMatrices(*(np.kron(m, np.eye(N_AXES)) for m in scalar))


def build_setpoint(target: np.ndarray, n_p: int) -> np.ndarray:
    """Stack n_p copies of the current 6-vector reference twist."""
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (N_AXES,):
        raise ValueError(f"target twist must have {N_AXES} components")
    return np.tile(target, n_p)


@dataclass(frozen=True)
class QpProblem:
    """Dense QP: minimize (1/2) x^T E x + f^T x subject to W x <= V.

    k independent problems sharing W stack as e (k, n, n), f (k, n), v (k, m).
    """

    e: np.ndarray
    f: np.ndarray
    w: np.ndarray
    v: np.ndarray


def _pair(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Rows of `minus` and `plus`, alternating row by row."""
    return np.stack([minus, plus], axis=1).reshape((-1,) + minus.shape[1:])


@dataclass(frozen=True)
class _AxisQp:
    """The per-axis QP parts fixed by horizons, weights and limits; W is shared."""

    e: np.ndarray        # (6, n_c, n_c)
    w: np.ndarray        # (6 n_c, n_c)
    v_zero: np.ndarray   # (6, 6 n_c)
    phi_t_q: np.ndarray  # (6, n_c, n_p): q_a Phi_s^T
    f_mat: np.ndarray    # F_s (n_p, 3)


def _axis_qp(f_mat: np.ndarray, phi: np.ndarray, cfg: MpcConfig,
             limits: LimitSet) -> _AxisQp:
    n_c = cfg.n_c
    phi_t_q = cfg.q_weight[:, None, None] * phi.T
    e = phi_t_q @ phi + cfg.r_weight[:, None, None] * np.eye(n_c)
    e = 0.5 * (e + e.transpose(0, 2, 1))
    rows = np.vstack([np.eye(n_c), np.tril(np.ones((n_c, n_c))), phi[:n_c]])
    T = cfg.sample_time
    lo = np.repeat([T * limits.jerk_min, limits.acc_min, limits.vel_min], n_c, axis=0)
    hi = np.repeat([T * limits.jerk_max, limits.acc_max, limits.vel_max], n_c, axis=0)
    return _AxisQp(e, _pair(-rows, rows), _pair(-lo, hi).T.copy(), phi_t_q, f_mat)


def _tick_qp(axis_qp: _AxisQp, state: np.ndarray, setpoint: np.ndarray,
             u_prev: np.ndarray) -> QpProblem:
    """The stack of six per-axis QPs; column a of state.reshape(3, 6) is axis a's.

    f_a = -q_a Phi_s^T (setpoint_a - F_s x_a).  The row offsets are 0 (jerk),
    u_prev (acceleration) and the free response F_s x_a (velocity): -rows
    gain +offset, +rows gain -offset.
    """
    n_c = axis_qp.e.shape[1]
    free = axis_qp.f_mat @ state.reshape(-1, N_AXES)
    f = -(axis_qp.phi_t_q @ (setpoint.reshape(-1, N_AXES) - free).T[:, :, None])[:, :, 0]
    offset = np.vstack([np.zeros((n_c, N_AXES)), np.tile(u_prev, (n_c, 1)), free[:n_c]])
    return QpProblem(axis_qp.e, f, axis_qp.w, axis_qp.v_zero + _pair(offset, -offset).T)


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

    This is the smoother's stack of six per-axis problems, interleaved:
    variable 6j + a and row 6r + a are axis a's variable j and row r.
    """
    state = np.asarray(state, dtype=float).reshape(-1)
    if state.shape != (AUG_DIM,):
        raise ValueError(f"augmented state must have {AUG_DIM} components")
    u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
    if u_prev.shape != (N_AXES,):
        raise ValueError(f"u_prev must have {N_AXES} components")
    axis_qp = _axis_qp(*_unlift(prediction.f, prediction.phi), cfg, limits)
    qp = _tick_qp(axis_qp, state, np.asarray(setpoint, dtype=float), u_prev)
    eye = np.eye(N_AXES)
    e = np.einsum("aij,ab->iajb", qp.e, eye).reshape(N_AXES * cfg.n_c, -1)
    return QpProblem(e, qp.f.T.ravel(), np.kron(qp.w, eye), qp.v.T.ravel())


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


def _interior_point(e, f, w, v):
    """Mehrotra's predictor-corrector on (k, ., 1) columns from x = 0 (see solve_qp)."""
    scale = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
    rows = np.isfinite(v) & (scale > 1e-12)  # the rows that can activate
    w, v = np.where(rows, w / scale, 0.0), np.where(rows, v / scale, 1.0)
    w_t = w.transpose(0, 2, 1)
    x, iterations = np.zeros(f.shape), np.zeros(len(f), dtype=int)
    s = np.where(v >= 0.0, np.maximum(v, _KKT_TOL), 1.0)  # rows x = 0 meets keep holding
    z = np.maximum(1.0, np.abs(f).max(axis=1, keepdims=True)) * np.ones(v.shape)
    for it in range(_MAX_ITERATIONS + 1):
        wz = w_t @ z
        r_d = e @ x + f + wz
        r_p = w @ x + s - v
        kkt = np.abs(np.concatenate([r_d, r_p, np.minimum(s, z)], axis=1)).max(axis=(1, 2))
        farkas = (np.sum(v * z, axis=(1, 2)) < 0.0) & (
            np.abs(wz).max(axis=(1, 2)) <= 1e-4 * (np.abs(w_t) @ z).max(axis=(1, 2)))
        live = (kkt > _KKT_TOL) & ~farkas
        if it == _MAX_ITERATIONS or not live.any():
            lam = np.where(z > s, z / scale, 0.0)[..., 0]
            return x[..., 0], lam, iterations.max(), kkt.max() <= _KKT_TOL
        iterations += live
        s_n = np.maximum(s, 1e-12 * z)  # z/s <= 1e12 keeps the matrix nonsingular
        mat = e + w_t @ (z / s_n * w)

        def newton(r_c):  # the Newton step for (r_d, r_p, r_c) and 1 / its longest length
            dx = np.linalg.solve(mat, w_t @ ((r_c - z * r_p) / s_n) - r_d)
            ds = -r_p - w @ dx
            dz = -(r_c + z * ds) / s_n
            return dx, ds, dz, np.concatenate([-ds / s, -dz / z], 1).max(1, keepdims=True)
        dx, ds, dz, rate = newton(s * z)
        sigma_mu = (1 - 1 / np.maximum(1, rate)) ** 3 * (s * z).mean(axis=1, keepdims=True)
        dx, ds, dz, rate = newton(s * z + ds * dz - sigma_mu)
        step = 0.995 / np.maximum(0.995, rate) * live[:, None, None]  # stopped ones stay put
        x += step * dx
        s += step * ds
        z += step * dz


def solve_qp(qp: QpProblem, e_inv: np.ndarray | None = None) -> QpSolution:
    """Primal-dual interior-point solve of the dense inequality QP.

    -E^-1 f is the result when it violates no row.  Otherwise Mehrotra's
    predictor-corrector runs on rows scaled to unit norm until the KKT
    residuals and each row's min(s, z) are at most 1e-10, until z proves the
    rows cannot all hold (not converged) or up to an iteration cap.  ``lam``
    is 0 on rows ending with z <= s; rows with infinite bounds or zero W
    never activate.  A stack (e (k, n, n), f (k, n), v (k, m), shared w) is
    solved per problem, each bit for bit as alone, and reports the largest
    iteration count, whether all converged and the largest violation.  E^-1
    (stacked like E) may be passed in precomputed.
    """
    stack = (qp.e, qp.f, qp.v, e_inv)
    if qp.f.ndim == 1:  # a single problem is a stack of one
        stack = tuple(None if m is None else m[None] for m in stack)
    e, f, v, e_inv = stack
    w = qp.w
    e_inv = np.linalg.inv(e) if e_inv is None else e_inv
    x = (-e_inv @ f[:, :, None])[:, :, 0]
    lam = np.zeros(v.shape)
    iterations, converged = 0, True
    finite = np.isfinite(v)
    residual = (w @ x[:, :, None])[:, :, 0] - v
    active = np.flatnonzero(~(residual <= 1e-12).all(axis=1))
    if active.size:
        x[active], lam[active], iterations, converged = _interior_point(
            e[active], f[active, :, None], w, v[active, :, None])
        residual = (w @ x[:, :, None])[:, :, 0] - v
    violation = np.where(finite, residual, 0.0).max(axis=1, initial=0.0)
    if qp.f.ndim == 1:
        x, lam = x[0], lam[0]
    return QpSolution(x, lam, int(iterations), bool(converged), float(violation.max()))


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

    Applies only the first increment of each axis's optimized sequence each
    tick, advances each axis's scalar model, recovers the smoothed twist and
    integrates the pose with x[i] = exp((T/2) * xi[i+1]) * x[i-1]
    (renormalized every step to suppress drift).  Construction functions
    are pure; a single logical controller thread advances the state.
    """

    def __init__(self, cfg: MpcConfig, limits: LimitSet,
                 initial_pose: UnitDualQuaternion):
        self.cfg = cfg
        self.limits = limits
        self.state = SmootherState.at_rest(initial_pose)
        self._model = _scalar_model(cfg.sample_time)
        self._qp = _axis_qp(*_scalar_prediction(self._model, cfg.n_p, cfg.n_c), cfg, limits)
        self._e_inv = np.linalg.inv(self._qp.e)

    @property
    def pose(self) -> UnitDualQuaternion:
        return self.state.pose

    @property
    def twist(self) -> np.ndarray:
        return self.state.augmented[-N_AXES:].copy()

    def step(self, target) -> StepResult:
        """Advance one MPC tick toward the 6-vector reference twist."""
        cfg = self.cfg
        setpoint = build_setpoint(target, cfg.n_p)
        qp = _tick_qp(self._qp, self.state.augmented, setpoint, self.state.u_prev)
        sol = solve_qp(qp, e_inv=self._e_inv)
        du = sol.delta_u[:, 0]

        a, b, _ = self._model
        per_axis = self.state.augmented.reshape(-1, N_AXES)  # column a: axis a's 3 states
        self.state.augmented = (a @ per_axis + b @ du[None]).ravel()
        self.state.u_prev = self.state.u_prev + du
        twist = self.twist

        half_step = 0.5 * cfg.sample_time
        motion = exp(PureDualQuaternion.from_vec6(twist) * half_step)
        self.state.pose = (motion * self.state.pose).normalized()
        return StepResult(twist, self.state.pose, du, sol.iterations,
                          sol.converged, sol.active_count, sol.max_violation)
