"""Receding-horizon smoothing of a 6-DoF task-space twist.

The plant is the exact zero-order-hold discretization of a double
integrator driven by the task acceleration: per axis, the state carries the
integrated twist and the twist itself, and the applied input u is the
acceleration, so the realized per-step twist difference equals T*u and the
per-step input increment equals T*jerk.  Nothing couples the axes, so the
smoother models one axis as a 3-state chain augmented with backward
differences for offset-free tracking, condenses predictions into (F, Phi)
and each tick solves the six QPs (jerk, acceleration and velocity rows) in
one batched solve.  The six QPs share W, and one object (_Laws) holds the
stack: E, W and what they fix, and the maps P_f and P_V from an axis's
parameters theta = [its 3 states, target, u_prev, 1] to its f and V (the
reference is held over the horizon).  It is fixed by the configuration
(horizons, sample time, weights and limits), and a smoother built right
after one of the same configuration shares its stack.  A tick forms theta
and evaluates f = P_f theta, V = P_V theta and the unconstrained optimum
-E^-1 f in one function (_tick_qp); where that optimum breaks no row it is
the tick's solution, and solve_qp is not called.  The rows that end a tick
with a positive multiplier are its working set.
Holding a set as equalities, the solution and its stationarity residual are
affine in theta too: their law is built on first use and kept in the same
object, so trying a set costs one product, and a smoother that shares a
stack starts with the laws built before it; a plain QpProblem builds that
object on each solve, with theta = [1].  A problem whose unconstrained
optimum breaks a row tries the laws of its working sets: the smoother gives
the set it carried from the last tick and the same rows one step along the
horizon, or the empty set where it carries none, and none to an axis whose
last solve did not converge.  A problem they leave locates its region of
the explicit MPC partition (Bemporad, Morari, Dua & Pistikopoulos 2002;
Tondel, Johansen & Bemporad 2003) in one product of the laws its stack
stored before the call: the one law with every multiplier at least 0 that
meets every row.  Else it walks from its last set: each step is one law
product, which drops the row with the most negative multiplier or adds the
most broken row, the steps of all problems walking batched, as the online
active-set method of qpOASES crosses the partition (Ferreau, Bock & Diehl
2008), with the cached laws as its factorizations.  A row that depends on
the working rows (any row that joins a vertex of n) makes a set with no
law, and the next step swaps it in for the row that a dual step on its
least-squares fit zeroes first, one rule for every such row, as Goldfarb &
Idnani (1983) take one dual step on a dependent constraint.
Every candidate passes a screen on the stop test's terms (and every row met
within FEAS_TOL); one whose law's stationarity residual and working rows'
slacks are all at most _KKT_TOL (read for all candidates of a round in array
calls) is held, and the interior point's own stop test, with the law's
residual, decides the others.  The test's stationarity and multiplier
scales are formed on first read, and only a verdict that depends on them
reads them (a multiplier the screen visits between 0 and -_KKT_TOL times a
bound on every scale, a walk that steps on, the full stop test, the
interior point), so a tick that its carried sets or a location settle
usually forms none.  A walk ends after _WALK steps or on a set it had; only
its problem goes to the interior point, which solves it as it would cold.
The systems of the laws, the swaps and the interior point (a Schur
complement, a fit, a Newton step) go to LAPACK's solve gufunc, the one
np.linalg.solve calls, which returns NaN for a singular problem of a stack
and solves the rest: a set with no law, a swap with no fit, or, for a Newton
matrix, the least-squares step.
The smoothed pose is integrated in the dual-quaternion algebra, x[i] =
(exp((T/2) xi[i+1]) x[i-1]).normalized().
The paper's dense 18-state model, prediction and QP are these per-axis
forms lifted by Kronecker products with I6; only the tests build them, as
an oracle.

Twist vectors are ordered [wx, wy, wz, vx, vy, vz] (vec6 of a pure dual
quaternion).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv

from .dualquat import PureDualQuaternion, UnitDualQuaternion, exp

__all__ = [
    "MpcConfig",
    "LimitSet",
    "QpProblem",
    "QpSolution",
    "SmootherState",
    "StepResult",
    "TwistSmoother",
    "solve_qp",
]

N_AXES = 6
AUG_DIM = 18

# a QP row, a smoother step and a logged sample exceed a bound only beyond this
FEAS_TOL = 1e-6
_MAX_ITERATIONS = 30
_KKT_TOL = 1e-10
_WALK = 40  # law steps a walk takes at most (the longest measured took 25)
_CACHED = 2048  # solution laws a QP stack keeps (one measured run built at most 453)
_ONES = np.ones(N_AXES)


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
        for name in ("n_c", "n_p"):
            horizon = getattr(self, name)  # a bool is an int, but no horizon
            if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {horizon!r}")
        if not (1 <= self.n_c <= self.n_p):
            raise ValueError(f"need 1 <= n_c <= n_p, got n_c={self.n_c}, n_p={self.n_p}")
        if not (np.isfinite(self.sample_time) and self.sample_time > 0.0):
            raise ValueError("sample_time must be positive and finite")
        q = np.asarray(self.q_weight, dtype=float).reshape(-1)
        r = np.asarray(self.r_weight, dtype=float).reshape(-1)
        if q.shape != (N_AXES,) or r.shape != (N_AXES,):
            raise ValueError(f"q_weight and r_weight must have {N_AXES} entries")
        if not np.all(np.isfinite(q) & (q >= 0.0)):
            raise ValueError("q_weight must be nonnegative and finite (Q_mpc >= 0)")
        if not np.all(np.isfinite(r) & (r > 0.0)):
            raise ValueError("r_weight must be positive and finite (R_mpc > 0)")
        object.__setattr__(self, "q_weight", q)
        object.__setattr__(self, "r_weight", r)


def _scalar_model(sample_time: float):
    """One axis's augmented model (3 states: 2 backward differences + output).

    Plant a_m = [[1, T], [0, 1]], b_m = [T^2/2, T]^T, c_m = [0, 1] (exact ZOH of
    the double integrator); A = [[a_m, 0], [c_m a_m, 1]], B = [b_m; c_m b_m]."""
    T = float(sample_time)
    a = np.array([[1.0, T, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([[0.5 * T * T], [T], [T]])
    c = np.array([[0.0, 0.0, 1.0]])
    return a, b, c


def _scalar_prediction(model, n_p: int, n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack C A^k rows into F_s (n_p x 3) and the Toeplitz convolution into Phi_s."""
    a, b, c = model
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


class _Laws:
    """A stack of k QPs sharing W whose f and V are affine in p parameters per
    problem: f = P_f theta, and V = P_V theta on the finite rows.  It holds E
    and W, what they and the finite rows fix (E^-1, |E|, the row scale and the
    stop test's rows, scaled to unit norm: a row with an infinite bound or
    zero W can never activate and is 0 there; one copy of them when every
    problem has the same such rows) and the problems' solution laws.

    Holding a working set A as equalities, the solution is affine in theta too:
    x_free = X theta with X = -E^-1 P_f, lambda_A = S^-1 (W_A X - P_V,A) theta
    with S = W_A E^-1 W_A^T, and x = x_free - E^-1 W_A^T lambda_A.  A problem's
    law for A maps theta to x, to A's multipliers in row order, 0 past them,
    and to the stationarity residual E x + f + W_A^T lambda_A (its map E X +
    P_f + W_A^T Lambda formed once; (2n + min(n, m), p)); the caller takes the
    slack V - W x from its own V.  A set of more than n rows or of dependent
    rows (|S_ii (S^-1)_ii| above 1e12, or S singular) has no candidate: its law
    is NaN, which no screen passes and no location finds.  A law is built on
    first use and kept in one dense store, per slot the law (its L laws read as
    one L (2n + min(n, m)) by p matrix), its rows' mask, its first min(n, m)
    rows, working rows first, how many work and its class: problems whose E^-1,
    X, P_V and finite rows are equal bit for bit are of one class and share
    their laws.  _CACHED is a guard far above the laws a run builds: past it
    the stack drops the laws built first and warns, once.  A law depends on
    nothing else, so smoothers in several threads may share one stack: a lock
    guards its store."""

    def __init__(self, e, w, p_f, p_v, finite):
        self.e, self.w = e, w                      # (k, n, n), (m, n)
        self.finite, self.infinite = finite, ~finite  # (k, m) rows with a finite bound, the rest
        self.e_inv, self.e_abs = np.linalg.inv(e), np.abs(e)
        self.minus_e_inv = -self.e_inv
        self.scale = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)  # (m, 1)
        self.rows = finite & (self.scale[:, 0] > 1e-12)  # (k, m) rows that can activate
        rows = self.rows[:1] if (self.rows == self.rows[0]).all() else self.rows
        self.w_unit = np.where(rows[..., None], w / self.scale, 0.0)  # (1 or k, m, n) scaled rows
        self.w_unit_abs = np.abs(self.w_unit)
        (n, p), m = p_f.shape[1:], len(w)
        self.p_fv = np.concatenate([p_f, np.where(finite[..., None], p_v, 0.0)], 1)  # [P_f; P_V]
        self.p_f, self.p_v = self.p_fv[:, :n], self.p_fv[:, n:]  # P_V 0 on the infinite rows
        self.x_free = self.minus_e_inv @ p_f                     # X (k, n, p)
        self.width = min(n, m)  # multipliers a law holds, padded
        # a slack on the unit rows of at least this meets the stop test and FEAS_TOL
        self.floor = max(-_KKT_TOL, -FEAS_TOL / float(self.scale.max(initial=1.0)))
        self.e_rows = float(self.e_abs.sum(axis=-1).max())  # |E|'s largest row sum
        self.store = np.empty((0, 2 * n + self.width, p))
        self.masks, self.work = np.empty((0, m), dtype=bool), np.empty((0, self.width), dtype=int)
        self.count, self.kind = np.empty(0, dtype=int), np.empty(0, dtype=int)
        self.cache: dict = {}  # (class, rows' mask) -> slot, oldest first
        self.stored, self.evicted = 0, False  # laws ever stored; warned
        self.lock = threading.Lock()

    @cached_property
    def alike(self) -> list:
        """Per problem, its class: the first problem equal to it."""
        flat = np.concatenate([m.reshape(len(self.p_f), -1) for m in
                               (self.e_inv, self.x_free, self.p_v, self.finite)], axis=1)
        data = [problem.tobytes() for problem in flat]
        return [data.index(problem) for problem in data]

    def of(self, problems, masks) -> tuple:
        """The laws of problem problems[i] on the rows masks[i], their rows and counts."""
        alike = self.alike
        keys = [(alike[p], mask.tobytes()) for p, mask in zip(problems.tolist(), masks)]
        with self.lock:
            cache = self.cache
            missing = {key: i for i, key in enumerate(keys) if key not in cache}
            if missing:
                new = list(missing.values())
                self._build(problems[new], masks[new])
            slots = np.array([cache[key] for key in keys])
            laws = self.store.take(slots, 0), self.work.take(slots, 0), self.count.take(slots)
            if len(cache) > _CACHED:
                if not self.evicted:
                    import logging  # only here: the import costs every process milliseconds
                    logging.getLogger(__name__).warning(
                        "a QP stack holds more than %d solution laws: it drops the oldest, "
                        "to be rebuilt when used", _CACHED)
                    self.evicted = True
                drop = len(cache) - _CACHED
                self.store, self.masks, self.work, self.count, self.kind = (
                    a[drop:] for a in (self.store, self.masks, self.work, self.count, self.kind))
                self.cache = dict(zip(list(cache)[drop:], range(_CACHED)))
        return laws

    def _build(self, problems, masks) -> None:
        """Store the laws, built batched with padding: a padded row is 0 in
        W_A and 1 on S's diagonal, and its multiplier 0; a set with no law
        is NaN."""
        (n, p), width = self.x_free.shape[1:], self.width
        count = masks.sum(axis=1)
        rows = np.argsort(~masks, axis=1, kind="stable")[:, :width]  # working rows first
        pad = np.arange(width) >= count[:, None]
        w_a = np.where(pad[..., None], 0.0, self.w[rows])
        g = self.e_inv[problems] @ w_a.transpose(0, 2, 1)
        x_free = self.x_free[problems]
        v_a = np.where(pad[..., None], 0.0, self.p_v[problems[:, None], rows])
        eye = np.eye(width)
        schur = w_a @ g + pad[:, None, :] * eye
        rhs = np.concatenate([w_a @ x_free - v_a, np.broadcast_to(eye, schur.shape)], axis=2)
        with np.errstate(all="ignore"):  # dependent rows may solve to inf; their law is NaN
            sol = _solve(schur, rhs)
            diag = np.diagonal(schur, axis1=1, axis2=2) * np.diagonal(sol[..., p:], axis1=1, axis2=2)
            x = x_free - g @ sol[..., :p]
            lam = np.where(pad[..., None], 0.0, sol[..., :p])
            # the stationarity residual E x + f + W_A^T lambda_A as a map of theta
            r_d = self.e[problems] @ x + self.p_f[problems] + w_a.transpose(0, 2, 1) @ lam
        laws = np.concatenate([x, lam, r_d], axis=1)
        laws[(count > n) | ~(abs(diag) <= 1e12).all(axis=1)] = np.nan
        kind, used = [self.alike[q] for q in problems.tolist()], len(self.kind)
        self.cache.update(zip(zip(kind, [mask.tobytes() for mask in masks]),
                              range(used, used + len(kind))))
        self.store, self.masks, self.work, self.count, self.kind = (
            np.concatenate(pair) for pair in zip((self.store, self.masks, self.work, self.count,
                                                  self.kind), (laws, masks, rows, count, kind)))
        self.stored += len(kind)

    def locate(self, problems: list, theta, test, before: int) -> dict:
        """Per problem, the rows of the one law of its class, of the first
        `before` the stack stored, whose multipliers at its theta are at
        least 0 and whose x meets every unit row of `test` by floor, if one
        alone does (explicit MPC's point location)."""
        n = self.x_free.shape[1]
        with self.lock, np.errstate(all="ignore"):  # a law may overflow at a large theta
            count = len(self.cache) - (self.stored - before)
            if count <= 0:
                return {}
            y = (self.store[:count].reshape(-1, self.store.shape[2])
                 @ np.ascontiguousarray(theta[problems].T)).reshape(count, -1, len(problems))
            # every multiplier at least 0 (NaN: no law), over the rows made the
            # outer axis (a reduction over a short inner axis is slow)
            slot, j = ((np.ascontiguousarray(y[:, n:-n].transpose(1, 0, 2)).min(axis=0) >= 0.0)
                       & (self.kind[:count, None] == [self.alike[p] for p in problems])).nonzero()
            # of those, the laws whose x meets every unit row
            p, x = np.array(problems)[j], y[slot, :n, j]
            w_x = x @ test.w[0].T if len(test.w) == 1 else (test.w[p] @ x[..., None])[..., 0]
            met = (test.v[p, :, 0] - w_x).min(axis=1) >= self.floor
            slot, j = slot[met].tolist(), j[met].tolist()
            return {problems[i]: self.masks[slot[j.index(i)]] for i in set(j) if j.count(i) == 1}


class _TickQp(QpProblem):
    """A QpProblem the smoother assembled (_tick_qp): its laws are the
    smoother's stack, theta (6, 6) is this tick's parameters, the problems
    `cold` marks (None: none) skip their working sets, and x and residual
    are -E^-1 f and W x - V (_optimum); one update fills its fields."""

    def __init__(self, e, f, w, v, laws: _Laws, theta, cold, x, residual):
        self.__dict__.update(e=e, f=f, w=w, v=v, laws=laws, theta=theta, cold=cold, x=x,
                             residual=residual)


def _axis_qp(f_mat: np.ndarray, phi: np.ndarray, cfg: MpcConfig, limits: LimitSet) -> _Laws:
    """The laws of a smoother's six per-axis QPs, which share W.  Horizons,
    weights and limits fix E = Phi^T Q Phi + R, W and the maps P_f and P_V
    from an axis's theta_a = [its 3 states s_a, target_a, u_prev_a, 1] to its
    f = -Phi^T Q (target_a - F s_a) (the target held over the horizon) and V;
    a tick only forms theta.  W stacks three groups of 2 n_c rows, a -min row
    then a +max row per step: jerk +-du_k <= T * jerk bounds (du is an
    acceleration increment), acceleration +-(u_prev + sum_{j<=k} du_j) <= acc
    bounds, and velocity +-(F s_a + Phi dU) over the first n_c predicted
    outputs <= vel bounds.  V is each bound less its row's offset (0,
    +-u_prev or +-F s_a)."""
    n_c = cfg.n_c
    phi_t_q = cfg.q_weight[:, None, None] * phi.T
    e = phi_t_q @ phi + cfg.r_weight[:, None, None] * np.eye(n_c)
    e = 0.5 * (e + e.transpose(0, 2, 1))
    rows = np.vstack([np.eye(n_c), np.tril(np.ones((n_c, n_c))), phi[:n_c]])
    T = cfg.sample_time
    lo = np.repeat([T * limits.jerk_min, limits.acc_min, limits.vel_min], n_c, axis=0)
    hi = np.repeat([T * limits.jerk_max, limits.acc_max, limits.vel_max], n_c, axis=0)
    w, v_zero = _pair(-rows, rows), _pair(-lo, hi).T
    p_f = np.zeros((N_AXES, n_c, 6))
    p_f[..., :3], p_f[..., 3] = phi_t_q @ f_mat, -phi_t_q.sum(axis=2)
    p_v = np.zeros((N_AXES, 3, n_c, 2, 6))
    p_v[:, 1, ..., 4] = [1.0, -1.0]
    p_v[:, 2, ..., :3] = np.stack([f_mat[:n_c], -f_mat[:n_c]], axis=1)
    p_v = p_v.reshape(N_AXES, -1, 6)
    p_v[..., 5] = v_zero
    return _Laws(e, w, p_f, p_v, np.isfinite(v_zero))


def _optimum(laws: _Laws, f, v):
    """Each problem's unconstrained optimum x = -E^-1 f and its residual W x - V."""
    x = (laws.minus_e_inv @ f[:, :, None])[:, :, 0]
    return x, (laws.w @ x[:, :, None])[:, :, 0] - v


def _violation(laws: _Laws, residual) -> np.ndarray:
    """Each problem's largest residual on a finite row, or 0."""
    return np.where(laws.finite, residual, 0.0).max(axis=1, initial=0.0)


def _tick_qp(laws: _Laws, state: np.ndarray, target: np.ndarray,
             u_prev: np.ndarray, cold=None) -> _TickQp:
    """The stack of six per-axis QPs of a tick, E and W the laws': row a of
    theta is [column a of state.reshape(3, 6), target_a, u_prev_a, 1], f =
    P_f theta, V = P_V theta on the rows with a finite bound and inf on the
    rest, with its optimum x and residual (_optimum); the axes `cold` marks
    (None: none) skip their working sets."""
    theta = np.concatenate([state, target, u_prev, _ONES]).reshape(-1, N_AXES).T
    fv, n = (laws.p_fv @ theta[:, :, None])[:, :, 0], laws.e.shape[2]
    f, v = fv[:, :n], fv[:, n:]
    v[laws.infinite] = np.inf
    return _TickQp(laws.e, f, laws.w, v, laws, theta, cold, *_optimum(laws, f, v))


@dataclass
class QpSolution:
    delta_u: np.ndarray
    lam: np.ndarray
    iterations: int
    solved: np.ndarray  # per problem of a stack: converged (see solve_qp)
    max_violation: float

    @property
    def converged(self) -> bool:
        return bool(self.solved.all())

    @property
    def feasible(self) -> bool:
        return self.max_violation <= FEAS_TOL

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.lam > 1e-12))


def _solve(mat, rhs):
    """mat^-1 rhs per problem of a stack by LAPACK's solve, the gufunc that
    np.linalg.solve calls, with floating-point warnings off: a singular
    problem comes back NaN, only that one, unwarned."""
    with np.errstate(all="ignore"):
        return _gesv(mat, rhs, signature="dd->d")


class _StopTest:
    """The interior point's stop test for a stack of problems, on (k, ., 1)
    columns.  Rows are scaled to unit norm; a row with an infinite bound or
    zero W reads 0 <= 1.  ``error`` is a problem's largest KKT residual: each
    residual is measured against the size of the terms of its own equation, a
    row's at the iterate x and a stationarity row's at x_free (W^T z is left
    out: multipliers can drift off in opposite pairs); a multiplier against
    the stationarity rows of the variables its row touches.

    The rows and scaled bounds are formed with the test; |bounds|, the
    stationarity scales ``dual`` (k, n, 1) and the multiplier scales
    ``multiplier`` (k, m, 1), each at least 1, on first read.  Every scale
    is at most sqrt(n) (1 + |E|'s largest row sum |x_free| + |f|), on
    2-norms over the stack.  ``bounded``: that bound is finite, so a
    multiplier of at least 0 or a stationarity residual of at most 1e-10
    meets the test on any scale, and a multiplier below ``lowest`` fails it
    on any."""

    FIELDS = ("w", "v", "w_abs", "v_abs", "dual", "multiplier")

    @classmethod
    def of(cls, laws: _Laws, f, v, x_free) -> "_StopTest":
        """The test of a stack from its laws' |E|, scaled rows and row scale
        and its f, v and x_free (which must not change while the test lives)."""
        test = cls()
        test.w, test.w_abs = laws.w_unit, laws.w_unit_abs
        test.v = np.where(laws.rows[..., None], v / laws.scale, 1.0)
        top = 2.0 * math.sqrt(x_free.shape[1]) * (  # twice the bound, for rounding
            1.0 + laws.e_rows * math.sqrt(np.vdot(x_free, x_free)) + math.sqrt(np.vdot(f, f)))
        test.bounded, test.lowest = top <= 1e300, -_KKT_TOL * top  # NaN top: not bounded
        test.terms = laws.e_abs, f, x_free
        return test

    @cached_property
    def v_abs(self) -> np.ndarray:
        return np.abs(self.v)

    @cached_property
    def dual(self) -> np.ndarray:
        e_abs, f, x_free = self.terms
        return np.maximum(1.0, e_abs @ np.abs(x_free) + np.abs(f))

    @cached_property
    def multiplier(self) -> np.ndarray:
        return np.maximum(1.0, self.w_abs @ self.dual)

    def take(self, index) -> "_StopTest":
        """The test of problems `index`, its scales formed (a field of one
        problem is shared)."""
        test = _StopTest()
        for name in self.FIELDS:
            m = getattr(self, name)
            setattr(test, name, m if len(m) == 1 else m[index])
        return test

    def error(self, x, r_d, r_p, s, z) -> np.ndarray:
        primal = np.maximum(1.0, self.w_abs @ np.abs(x) + self.v_abs)
        kkt = np.concatenate([r_d / self.dual, r_p / primal,
                              np.minimum(s / primal, z / self.multiplier)], 1)
        return np.abs(kkt).max(axis=(1, 2))


def _interior_point(e, f, test: _StopTest, scale):
    """Mehrotra's predictor-corrector on (k, ., 1) columns from x = 0 (see solve_qp)."""
    w, v = test.w, test.v
    w_t = w.transpose(0, 2, 1)
    x, iterations = np.zeros(f.shape), np.zeros(len(f), dtype=int)
    s = np.where(v >= 0.0, np.maximum(v, _KKT_TOL), 1.0)  # rows x = 0 meets keep holding
    z = np.maximum(1.0, np.abs(f).max(axis=1, keepdims=True)) * np.ones(v.shape)
    for it in range(_MAX_ITERATIONS + 1):
        wz = w_t @ z
        r_d = e @ x + f + wz
        r_p = w @ x + s - v
        kkt = test.error(x, r_d, r_p, s, z)
        farkas = np.sum(v * z, axis=(1, 2)) < 0.0
        if farkas.any():  # W^T z ~ 0 next to |W|^T z only matters where v^T z < 0
            farkas &= (np.abs(wz).max(axis=(1, 2))
                       <= 1e-4 * (test.w_abs.transpose(0, 2, 1) @ z).max(axis=(1, 2)))
        live = (kkt > _KKT_TOL) & ~farkas
        if it == _MAX_ITERATIONS or not live.any():
            lam = np.where(z > s, z / scale, 0.0)[..., 0]
            return x[..., 0], lam, iterations.max(), kkt <= _KKT_TOL
        iterations += live
        s_n = np.maximum(s, 1e-12 * z)  # z/s <= 1e12 keeps the matrix nonsingular
        mat = e + w_t @ (z / s_n * w)

        def newton(r_c):  # the Newton step for (r_d, r_p, r_c) and 1 / its longest length
            rhs = w_t @ ((r_c - z * r_p) / s_n) - r_d
            dx = _solve(mat, rhs)
            lost = np.isnan(dx).any(axis=(1, 2))
            if lost.any():  # a finite matrix that rounding made singular: the least-squares step
                lost &= np.isfinite(mat).all(axis=(1, 2))
                dx[lost] = np.linalg.pinv(mat[lost]) @ rhs[lost]
            ds = -r_p - w @ dx
            dz = -(r_c + z * ds) / s_n
            return dx, ds, dz, np.concatenate([-ds / s, -dz / z], 1).max(1, keepdims=True)
        sz = s * z
        dx, ds, dz, rate = newton(sz)
        sigma_mu = (1 - 1 / np.maximum(1, rate)) ** 3 * sz.mean(axis=1, keepdims=True)
        dx, ds, dz, rate = newton(sz + ds * dz - sigma_mu)
        step = 0.995 / np.maximum(0.995, rate) * live[:, None, None]  # stopped ones stay put
        x += step * dx
        s += step * ds
        z += step * dz


def _on_laws(laws: _Laws, theta, test: _StopTest, todo, sets, x, lam, residual) -> set:
    """The problems `todo` on laws (see solve_qp): each tries its working
    sets, then the one law it locates, or walks from the last, all problems
    batched.  Writes each held problem's point into x and its multipliers
    into lam, which hold x_free and 0 on the call; returns the problems held."""
    (k, n), m = x.shape, len(laws.w)
    w_u, w_abs = (test.w[0], test.w_abs[0]) if len(test.w) == 1 else (test.w, test.w_abs)
    # candidate c: problem owner[c] on the rows masks[c], each problem's sets
    # in order; a problem's walk starts from its last, last[p]
    masks = (np.asarray(sets, dtype=bool).reshape(-1, k, m) & laws.rows)[:, todo].reshape(-1, m)
    owner = todo.tolist() * (len(masks) // len(todo))
    last = {p: c for c, p in enumerate(owner)}
    held, seen, joined = set(), {}, {}  # joined: candidate -> (its parent, the row that joined)
    before = laws.stored  # only laws stored before the call are located

    def relative():  # the multipliers over their scales, and each candidate's least
        z_rel = z / test.multiplier[problems[:, None], work, 0]
        return z_rel, z_rel.min(axis=1).tolist()

    def met(c):  # the screen's slack terms (see below) of candidate c
        if a_min[c] >= laws.floor:
            return True
        p, x_c = owner[c], y[c, :n, 0]
        # each scale is at most 1 + |x| + |V| on unit rows, so this fails
        # (|x| by hypot, which does not overflow where x . x does)
        if a_min[c] < -2 * _KKT_TOL * (1.0 + math.hypot(*x_c.tolist()) + test.v_abs[p].max()):
            return False
        scale = np.maximum(1.0, (w_abs if w_abs.ndim == 2 else w_abs[p]) @ np.abs(x_c)
                           + test.v_abs[p, :, 0])
        return min((s[c] / scale).min(), (s[c] * laws.scale[:, 0]).min() / FEAS_TOL * _KKT_TOL) \
            >= -_KKT_TOL

    for walk in range(_WALK + 1):
        problems = np.array(owner)
        y, work, count = laws.of(problems, masks)
        y, count = y @ theta[problems, :, None], count.tolist()  # x, multipliers, residual
        # the screen, on the stop test's terms: each working row's
        # multiplier and each row's slack, over their scales, at least
        # -1e-10, and every row met within FEAS_TOL; a slack on the unit
        # rows of at least laws.floor meets both.  A multiplier of at least 0
        # meets its bounded scale and one below test.lowest fails it: the
        # scales are read only where a visited candidate has one between, or
        # the walk steps on
        s = test.v[problems, :, 0] - ((w_u if w_u.ndim == 2 else w_u[problems]) @ y[:, :n])[..., 0]
        z = y[:, n:-n, 0] * laws.scale[work, 0]
        z_rel, d_min = (None, z.min(axis=1).tolist()) if test.bounded else relative()
        a_min = s.min(axis=1).tolist()
        # the stop test's terms the screen leaves, the stationarity residual (the law's)
        # and each working row's min(slack, multiplier), are met if both are at most 1e-10
        top = np.maximum(abs(y[:, -n:, 0]).max(axis=1), np.where(masks, s, 0.0).max(axis=1))
        unread = ((top <= _KKT_TOL) & test.bounded).tolist()
        first, failed = {}, set()  # each problem's first candidate that passes
        for c, p in enumerate(owner):
            if p in first or p in held:
                continue
            if z_rel is None and test.lowest <= d_min[c] < 0.0:
                z_rel, d_min = relative()
            if d_min[c] >= -_KKT_TOL:
                if met(c):
                    first[p] = c
                else:
                    failed.add(c)
        for p, c in first.items():
            rows = work[c, :count[c]]
            if not unread[c]:  # the stop test itself
                z_c = np.zeros((1, m, 1))
                z_c[0, rows, 0] = z[c, :count[c]]
                if test.take([p]).error(y[c, None, :n], y[c, None, -n:], 0.0,
                                        s[c, None, :, None], z_c)[0] > _KKT_TOL:
                    continue
            held.add(p)
            x[p], lam[p, rows] = y[c, :n, 0], np.maximum(y[c, n:n + count[c], 0], 0.0)
        if len(held) == len(todo):
            break
        located = {} if walk else laws.locate([p for p in last if p not in held], theta, test,
                                              before)
        if z_rel is None and len(held) + len(located) < len(todo):
            z_rel, d_min = relative()
        # each problem left goes to the law it located or steps from its
        # last set: the row with the most negative multiplier leaves or, with
        # none, the most broken row joins; a set a row joined with no law
        # (the row depends on the working rows, as at a vertex) swaps the row
        # in, and any other set with no law keeps its rows x_free breaks
        lawless, a_at = np.isnan(y[:, 0, 0]).tolist(), s.argmin(axis=1).tolist()
        d_at = None if z_rel is None else z_rel.argmin(axis=1).tolist()
        new, dependent, joins, moved = masks.copy(), [], {}, []
        for p, c in last.items():
            if p in held:
                continue
            if p in located:
                new[c] = located[p]
            elif lawless[c] and c in joined:
                dependent.append((c, *joined[c]))
            elif lawless[c]:
                new[c] &= residual[p] > FEAS_TOL
            elif d_min[c] < -_KKT_TOL:
                new[c, work[c, d_at[c]]] = False
            elif new[c, a_at[c]] or c not in failed and met(c):
                continue  # passed the screen, not the stop test
            else:
                new[c, a_at[c]], joins[c] = True, a_at[c]
            moved.append((p, c))
        if dependent:
            _swap(laws, new, masks, dependent, *parents)
        owner, kept, last, joined = [], [], {}, {}
        for p, c in moved:  # a walk that repeats a set ends
            path, key = seen.get(p) or seen.setdefault(p, {masks[c].tobytes()}), new[c].tobytes()
            if key not in path:
                path.add(key)
                last[p] = len(owner)
                if c in joins:
                    joined[len(owner)] = c, joins[c]
                owner.append(p)
                kept.append(c)
        if not owner:
            break
        masks, parents = new[kept], (work, z, z_rel, count)
    return held


def _swap(laws: _Laws, new, masks, swaps, work, z, z_rel, count) -> None:
    """Each (c, parent, row) of swaps: `row` joined the working rows of
    candidate `parent` (work, z, z_rel and count of its round), and the set
    they made, masks[c], has no law: the row depends on them.  Its
    least-squares fit d by them (normal equations, a padded row d = 0; the
    exact solve at a vertex of n rows) swaps it in for the row whose
    multiplier a dual step on it zeroes first (the least z / d over
    d > 1e-9), which leaves new[c]; with none the rows cannot all hold, and
    new[c] keeps masks[c], which ends the walk."""
    c, parent, added = (np.array(a) for a in zip(*swaps))
    rows = work[parent]
    pad = (np.arange(rows.shape[1]) >= np.array(count)[parent, None])[..., None]
    w_a = np.where(pad, 0.0, laws.w[rows] / laws.scale[rows])
    w_r = laws.w[added, :, None] / laws.scale[added, :, None]
    d = _solve(w_a @ w_a.transpose(0, 2, 1) + pad * np.eye(len(pad[0])), w_a @ w_r)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 1e-9, np.where(z_rel[parent] > _KKT_TOL, z[parent], 0.0) / d, np.inf)
    out = ratio.argmin(axis=1)
    bound = np.isfinite(ratio[np.arange(len(c)), out])
    new[c[bound], rows[np.arange(len(c)), out][bound]] = False
    new[c[~bound]] = masks[c[~bound]]


def _check_shapes(qp: QpProblem, working_sets: Sequence[np.ndarray]) -> None:
    """ValueError unless e, w, v and each working set fit f (n,) or a stack f (k, n)."""
    f_shape, w_shape = np.shape(qp.f), np.shape(qp.w)
    if len(f_shape) not in (1, 2) or len(w_shape) != 2:
        raise ValueError(f"QP f must be (n,) or (k, n) and w (m, n), got f {f_shape}, w {w_shape}")
    stack, n, m = f_shape[:-1], f_shape[-1], w_shape[0]
    shapes = [(name, expected, np.shape(getattr(qp, name)))
              for name, expected in (("e", stack + (n, n)), ("w", (m, n)), ("v", stack + (m,)))]
    shapes += [("working set", stack + (m,), np.shape(mask)) for mask in working_sets]
    for name, expected, given in shapes:
        if given != expected:
            raise ValueError(f"QP {name} must have shape {expected} for f {f_shape} "
                             f"and w {w_shape}, got {given}")


def solve_qp(qp: QpProblem, *, working_sets: Sequence[np.ndarray] = ()) -> QpSolution:
    """Solve the dense inequality QP on cached solution laws, with a
    primal-dual interior point as the last resort.

    -E^-1 f is the result when it violates no row.  Otherwise a problem tries
    its ``working_sets`` entries (bool masks over the rows, shaped like v) on
    their solution laws (see _Laws), all in one batched product: the point,
    multipliers and stationarity residual with the marked rows held as
    equalities.  A problem that none of them solves tries the one law stored
    before the call with every multiplier at least 0 that meets every unit row
    within the screen's floor (none for a plain problem), else walks from its
    last set, one law product per step, the steps of all problems walking
    batched: the row with the most negative multiplier leaves or, with none,
    the most broken row (on unit rows) joins.  A set a row joined that has no
    law (the row depends on the working rows, as any row joining a vertex of
    n does) swaps that row in for the row whose multiplier a dual step on its
    least-squares fit zeroes first (none: the rows cannot all hold); any other
    set with no law keeps the rows -E^-1 f breaks.
    A walk ends after _WALK steps or on a set it had.  The screen passes a
    candidate whose multipliers and slacks are each at least -1e-10 of their
    scales in the stop test below and that meets every finite row within
    FEAS_TOL; the first that passes must also pass that stop test, with its
    law's residual, except one whose residual and working rows' slacks are all
    at most 1e-10 (found for a round's candidates in array calls), which the
    screen's terms already give.
    A problem solved on a law takes no iteration, and ``lam`` is its exact
    multiplier (one above -1e-10 of its scale reads 0).  The rest run
    Mehrotra's predictor-corrector from x = 0 on rows scaled to unit norm until
    every KKT residual and each row's min(s, z) is at most 1e-10 of the size of
    the terms of its own equation (and of 1), a row's at the iterate and the
    rest at -E^-1 f, until z proves the rows cannot all hold or up to an
    iteration cap.  A finite Newton matrix that rounding makes singular
    (LAPACK's solve returns NaN for it alone) gets a least-squares step.
    ``lam`` is 0 on rows ending with z <= s; rows with infinite bounds or zero
    W never activate.  A stack (e (k, n, n), f (k, n),
    v (k, m), shared w) is solved per problem, each bit for bit as alone, and
    reports the largest iteration count, whether each converged and the largest
    violation.  A problem has converged if it met the stop test and meets every
    finite row within FEAS_TOL.

    A call solves on one _Laws and its theta.  A plain problem builds its
    own on each call, with theta = [1] (P_f = f, P_V = V); its shapes must
    agree (e (n, n), f (n,), w (m, n), v (m,), or a stack, and each working
    set shaped like v), else ValueError.
    A smoother's tick problem carries the stack of the smoother's
    configuration, with its laws cached across ticks and smoothers, and the
    tick's theta.  A call with a broken row builds the stop test's scaled
    bounds for the stack and its stationarity and multiplier scales on
    first read, once: the screen reads the multiplier scales only where a
    candidate it visits has a multiplier between 0 and -1e-10 times a bound
    on every scale (each is at least 1) or the walk steps on; the full stop
    test and the interior point read them (where the bound, from |x|, |f|
    and |E|, overflows, every verdict does).  It evaluates the test only on
    candidates; the interior point takes its rows of the rest.
    """
    w = qp.w
    if isinstance(qp, _TickQp):
        e, f, v, laws, theta, cold = qp.e, qp.f, qp.v, qp.laws, qp.theta, qp.cold
        x, residual = qp.x, qp.residual
    else:
        e, f, v = (m[None] if qp.f.ndim == 1 else m for m in (qp.e, qp.f, qp.v))  # a stack of one
        _check_shapes(qp, working_sets)
        laws, theta = _Laws(e, w, f[..., None], v[..., None], np.isfinite(v)), np.ones((len(v), 1))
        cold = None
        x, residual = _optimum(laws, f, v)
    lam = np.zeros(v.shape)
    iterations, solved = 0, np.ones(len(v), dtype=bool)
    broken = ~(residual <= 1e-12).all(axis=1)
    if broken.any():
        test = _StopTest.of(laws, f[..., None], v[..., None], x[..., None])
        x = x.copy()  # the test's x_free, and a tick problem's optimum, stay
        left = broken.nonzero()[0]
        warm = left if cold is None else left[~cold[left]]
        if len(working_sets) and warm.size:
            held = _on_laws(laws, theta, test, warm, working_sets, x, lam, residual)
            left = [p for p in left.tolist() if p not in held]
        if len(left):
            x[left], lam[left], iterations, solved[left] = _interior_point(
                e[left], f[left, :, None], test.take(left), laws.scale)
        residual = (w @ x[:, :, None])[:, :, 0] - v
    violation = _violation(laws, residual)
    solved &= violation <= FEAS_TOL
    if qp.f.ndim == 1:
        x, lam, solved = x[0], lam[0], solved[0]
    return QpSolution(x, lam, int(iterations), solved, float(violation.max(initial=0.0)))


@dataclass
class SmootherState:
    """Mutable per-instance smoother memory.

    `augmented` is the 18-vector [backward differences of (integrated
    twist, twist); current output twist], `u_prev` the previously applied
    acceleration and `pose` the integrated smoothed pose.  `working_set`
    marks, per axis, the QP rows that ended the last tick with a positive
    multiplier, none on an axis whose solve did not converge; it only speeds
    the next solve, and from a state with none marked (the default) the next
    tick walks from the empty set.  `unsolved` (not an argument; None where
    every axis converged) marks the axes whose solve did not converge: the
    next tick's laws would most likely fail on them again (their rows could
    not all hold), so they go straight to the interior point.
    `augmented` and `u_prev` must be finite: the smoother's laws take
    the rows with a finite bound from the limits alone.  A step writes all
    five at once, after its whole tick is computed.
    """

    augmented: np.ndarray
    u_prev: np.ndarray
    pose: UnitDualQuaternion
    working_set: np.ndarray = field(default_factory=lambda: np.zeros((N_AXES, 0), dtype=bool))
    unsolved: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.augmented = np.asarray(self.augmented, dtype=float).reshape(-1)
        if self.augmented.shape != (AUG_DIM,):
            raise ValueError(f"augmented state must have {AUG_DIM} components")
        self.u_prev = np.asarray(self.u_prev, dtype=float).reshape(-1)
        if self.u_prev.shape != (N_AXES,):
            raise ValueError(f"u_prev must have {N_AXES} components")
        if not (np.isfinite(self.augmented).all() and np.isfinite(self.u_prev).all()):
            raise ValueError("augmented state and u_prev must be finite")
        self.working_set = np.asarray(self.working_set, dtype=bool).reshape(N_AXES, -1)

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


# (configuration bytes, its QP stack): the stack of the smoother built last,
# which the next smoother of that configuration shares
_stack: tuple = (None, None)
_stack_lock = threading.Lock()


class TwistSmoother:
    """Receding-horizon smoother owning one SmootherState.

    Each tick assembles its QP stack (_tick_qp), applies only the first
    increment of each axis's optimized sequence, advances each axis's scalar
    model, recovers the smoothed twist and integrates the pose in the
    algebra, x[i] = (exp((T/2) * xi[i+1]) * x[i-1]).normalized()
    (renormalized every step to suppress drift).  Construction functions
    are pure; a single logical controller thread advances the state.
    A smoother built right after one of the same configuration shares its
    QP stack, also across threads.
    """

    def __init__(self, cfg: MpcConfig, limits: LimitSet,
                 initial_pose: UnitDualQuaternion):
        self.cfg = cfg
        self.limits = limits
        self.state = SmootherState.at_rest(initial_pose)
        self._model = _scalar_model(cfg.sample_time)
        key = np.concatenate([[cfg.n_c, cfg.n_p, cfg.sample_time], cfg.q_weight, cfg.r_weight,
                              limits.vel_min, limits.vel_max, limits.acc_min, limits.acc_max,
                              limits.jerk_min, limits.jerk_max]).tobytes()
        global _stack
        with _stack_lock:
            if _stack[0] != key:
                _stack = key, _axis_qp(*_scalar_prediction(self._model, cfg.n_p, cfg.n_c),
                                       cfg, limits)
            self._laws = _stack[1]
        # rows run group x step x sign; a step's rows move one step earlier each
        # tick, and the last step keeps its own: row r of the next tick is row
        # shift[r] of this one
        step = np.minimum(np.arange(cfg.n_c) + 1, cfg.n_c - 1)
        self._shift = (2 * (cfg.n_c * np.arange(3)[:, None, None] + step[:, None])
                       + np.arange(2)).ravel()

    @property
    def pose(self) -> UnitDualQuaternion:
        return self.state.pose

    @property
    def twist(self) -> np.ndarray:
        return self.state.augmented[-N_AXES:].copy()

    def step(self, target) -> StepResult:
        """Advance one MPC tick toward the 6-vector reference twist.

        The tick's QP stack and its unconstrained optimum come from
        _tick_qp.  A tick whose optimum breaks no row (every residual at
        most 1e-12) applies it without calling solve_qp, with the result
        solve_qp would give; any other tick passes the stack to solve_qp.
        The pose moves by the algebra's exp, product and normalized().  A
        target that is not six finite numbers or a working set not 0 or 6
        n_c rows wide raises ValueError.  A finite
        target too large for floating point raises FloatingPointError,
        whichever step it overflows: the QP's unconstrained optimum -E^-1 f
        (checked only when the solve did not converge), the increment (a
        smoothed twist that is not finite) or the pose integration.  None of
        them changes the state."""
        target = np.asarray(target, dtype=float).reshape(-1)
        if target.shape != (N_AXES,):
            raise ValueError(f"target twist must have {N_AXES} components")
        if not np.isfinite(target).all():
            raise ValueError(f"target twist must be finite, got {target.tolist()}")
        state, rows, laws = self.state, len(self._shift), self._laws
        working = state.working_set
        if working.shape[1] not in (0, rows):
            raise ValueError(f"working set must be 0 or 6 n_c = {rows} rows wide per axis, "
                             f"got {working.shape[1]}")
        qp = _tick_qp(laws, state.augmented, target, state.u_prev, state.unsolved)
        x, residual = qp.x, qp.residual
        worst = residual.max()  # NaN where any residual is
        if worst <= 1e-12:  # free: solve_qp's solution, without calling it
            du, iterations, converged, active = x[:, 0], 0, True, 0
            # 0 when every residual is negative, else solve_qp's reduction (and its signed zero)
            violation = 0.0 if worst < 0.0 else float(_violation(laws, residual).max(initial=0.0))
            working, unsolved = np.zeros(residual.shape, dtype=bool), None
        else:
            guesses = ((working, working[:, self._shift]) if working.any()
                       else (np.zeros((N_AXES, rows), dtype=bool),))
            sol = solve_qp(qp, working_sets=guesses)
            converged = sol.converged
            if not (converged or np.isfinite(x).all()):
                raise FloatingPointError(f"QP overflows at target twist {target.tolist()}")
            du, iterations, active, violation = (sol.delta_u[:, 0], sol.iterations,
                                                 sol.active_count, sol.max_violation)
            working, unsolved = (sol.lam > 0.0) & sol.solved[:, None], (
                None if converged else ~sol.solved)

        a, b, _ = self._model
        per_axis = state.augmented.reshape(-1, N_AXES)  # column a: axis a's 3 states
        augmented = (a @ per_axis + b @ du[None]).ravel()
        twist = augmented[-N_AXES:].copy()
        try:
            pose = (exp(PureDualQuaternion.from_vec6(twist * (0.5 * self.cfg.sample_time)))
                    * state.pose).normalized()
        except (ValueError, OverflowError):  # a twist not finite, or too large to keep unit
            fault = "overflows the pose" if np.isfinite(twist).all() else "is not finite"
            raise FloatingPointError(f"smoothed twist {fault}: {twist.tolist()}") from None
        state.augmented, state.u_prev, state.pose, state.working_set, state.unsolved = (
            augmented, state.u_prev + du, pose, working, unsolved)
        return StepResult(twist, pose, du, iterations, converged, active, violation)
