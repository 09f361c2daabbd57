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
Every plan ends at zero acceleration (_axis_qp eliminates its last
increment), so the shifted previous plan meets every row of the next tick
and every tick from rest is feasible (Mayne, Rawlings, Rao & Scokaert
2000); an axis whose solve does not converge applies that plan's first
increment.
Holding a set as equalities, the solution, its stationarity residual, its
multipliers over the unit rows and its slacks on them are affine in theta
too: their law is built on first use and kept in the same object, so trying
a set costs one product, and a smoother that shares a stack starts with the
laws built before it; a plain QpProblem builds that object on each solve,
with theta = [1].  A problem whose unconstrained
optimum breaks a row tries the laws of its working sets: the set the
smoother carried from the last tick, the same rows one step along the
horizon and the two merged, or the empty set.  A problem they leave locates its region of the
explicit MPC partition (Bemporad, Morari, Dua & Pistikopoulos 2002; Tondel,
Johansen & Bemporad 2003) in one product of the laws its stack stored
before the call: the one law with every multiplier at least 0 that meets
every row.  Else it walks from its last set by the dual active-set method
of Goldfarb & Idnani (1983), one law product per round, the rounds of all
problems batched, the cached laws its factorizations: a set drops its rows
with negative multipliers; at one with none the most broken row joins, and
the point moves along the segment to the joined set's law until a
multiplier reaches 0, whose row leaves.  A joining row that depends on the
working rows (any row joining a vertex of n) makes a set with no law, and
a dual step on its least-squares fit zeroes a working row's multiplier
instead; with none to zero the rows cannot all hold.  The objective rises
with every row that joins, so no set repeats and every walk ends.
Every candidate passes a screen on the stop test's terms (and every row met
within FEAS_TOL), read off its law's product: its multipliers and slacks on
the unit rows, none formed at the point; one whose law's stationarity
residual and working rows' slacks are all at most _KKT_TOL (read for all
candidates of a round in array calls) is held, and the stop test
(_StopTest) decides the others.  Its scaled bounds and its stationarity and
multiplier scales are formed on first read, and only a verdict that depends
on them reads them, so a tick that its carried sets settle usually forms
none.
The laws' systems and the swaps' fits go to LAPACK's solve gufunc, the one
np.linalg.solve calls, which returns NaN for a singular problem of a stack
and solves the rest: a set with no law, or a swap with no fit.
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
_KKT_TOL = 1e-10
_CACHED = 2048  # sets a QP stack keeps the laws of (one measured run met at most 453)
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
    """Horizons, sample time and per-axis diagonal weights for the smoother
    (n_c >= 2: each plan's last increment ends it at rest, see _axis_qp)."""

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
        if not (2 <= self.n_c <= self.n_p):
            why = (": the terminal zero acceleration fixes the last increment, so n_c = 1 "
                   "leaves no variable" if self.n_c == 1 else "")
            raise ValueError(f"need 2 <= n_c <= n_p, got n_c={self.n_c}, n_p={self.n_p}{why}")
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
    law for A maps theta, in the rows of its slot, to
      x (n rows);
      A's multipliers lambda_A in row order, 0 past them (min(n, m) rows);
      the stationarity residual E x + f + W_A^T lambda_A (n rows; its map E X
        + P_f + W_A^T Lambda formed once);
      the unit multipliers lambda_A |W_i|, the stop test's (min(n, m) rows);
      the unit-row slacks S_A = P_V,unit - W_unit X_A (m rows), P_V,unit being
        P_V / |W_i| on the rows that can activate and theta's constant 1
        elsewhere, so those read 1, as the stop test's scaled bounds do;
    so one product gives a candidate all the screen reads.  A set of more
    than n rows or of dependent rows (|S_ii (S^-1)_ii| above 1e12, or S
    singular) has no candidate: it points at slot 0, the one NaN law (no
    rows, no class), which no screen passes and no location finds.  A law is
    built on first use and kept in one dense store, whose arrays grow by
    doubling, per slot the law (its L laws read as one L (2 (n + min(n, m))
    + m) by p matrix), its rows' mask, its first min(n, m) rows, working
    rows first, how many work and its class: problems whose E^-1, X, P_V
    and finite rows are equal bit for bit are of one class and share their
    laws.  _CACHED is a guard far above the
    sets a run meets: past it the stack drops the sets met first and warns,
    once.  A law depends on nothing else, so smoothers in several threads may
    share one stack: a lock guards its store."""

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
        # P_V over the row scale on the rows that can activate, theta's constant elsewhere
        self.p_v_unit = np.where(self.rows[..., None], self.p_v / self.scale, np.arange(p) == p - 1)
        # slot 0: the NaN law that every set with no law shares (no rows, no class)
        self.store = np.full((1, 2 * (n + self.width) + m, p), np.nan)
        self.masks, self.work = np.zeros((1, m), dtype=bool), np.arange(self.width)[None]
        self.count, self.kind = np.zeros(1, dtype=int), np.full(1, -1)
        self.size = 1  # slots in use; the arrays grow by doubling
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
        keys = self._keys(problems, masks)
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
                kept = list(cache.items())[len(cache) - _CACHED:]
                # the laws dropped hold slots 1 to gone: slot gone becomes slot 0
                gone = self.size - 1 - sum(slot > 0 for _, slot in kept)
                arrays = self.store, self.masks, self.work, self.count, self.kind
                for a in arrays:
                    a[gone] = a[0]
                self.store, self.masks, self.work, self.count, self.kind = (
                    a[gone:] for a in arrays)
                self.size -= gone
                self.cache = {key: slot and slot - gone for key, slot in kept}
        return laws

    def _keys(self, problems, masks) -> list:
        """The cache keys of problem problems[i] on the rows masks[i]."""
        alike, rows, m = self.alike, masks.tobytes(), masks.shape[1]
        return [(alike[p], rows[i * m:i * m + m]) for i, p in enumerate(problems.tolist())]

    def _build(self, problems, masks) -> None:
        """Store the laws, built batched with padding: a padded row is 0 in
        W_A and 1 on S's diagonal, and its multiplier 0; a set with no law
        gets slot 0.  One step of iterative refinement follows the Schur
        complement: x cancels the terms of -E^-1 f, which may be far larger."""
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
        with np.errstate(all="ignore"):  # dependent rows may solve to inf; they have no law
            sol = _solve(schur, rhs)
            diag = np.diagonal(schur, axis1=1, axis2=2) * np.diagonal(sol[..., p:], axis1=1, axis2=2)
            e, p_f, w_t = self.e[problems], self.p_f[problems], w_a.transpose(0, 2, 1)
            x, lam = x_free - g @ sol[..., :p], sol[..., :p]
            # refined on the rows' slack and the residual E x + f + W_A^T lambda_A
            r_d = e @ x + p_f + w_t @ lam
            d_lam = sol[..., p:] @ (g.transpose(0, 2, 1) @ r_d + v_a - w_a @ x)
            x = x - self.e_inv[problems] @ r_d + g @ d_lam
            lam = np.where(pad[..., None], 0.0, lam - d_lam)
            r_d = e @ x + p_f + w_t @ lam  # the residual as a map of theta
        lawful = (count <= n) & (abs(diag) <= 1e12).all(axis=1)
        w_unit = self.w_unit[0] if len(self.w_unit) == 1 else self.w_unit[problems]
        laws = np.concatenate([x, lam, r_d, lam * self.scale[rows],  # the unit multipliers
                               self.p_v_unit[problems] - w_unit @ x], axis=1)[lawful]
        used, new = self.size, len(laws)
        self.cache.update(zip(self._keys(problems, masks),
                              np.where(lawful, used + np.cumsum(lawful) - 1, 0).tolist()))
        arrays = self.store, self.masks, self.work, self.count, self.kind
        if used + new > len(self.store):  # at least doubled: each law is copied O(1) times
            grown = [np.empty((used + max(used, new),) + a.shape[1:], a.dtype) for a in arrays]
            for a, b in zip(grown, arrays):
                a[:used] = b[:used]  # the rest is written only as laws fill it
            arrays = grown
        for a, slots in zip(arrays, (laws, masks[lawful], rows[lawful], count[lawful],
                                     np.array(self.alike)[problems[lawful]])):
            a[used:used + new] = slots
        self.store, self.masks, self.work, self.count, self.kind = arrays
        self.size += new
        self.stored += new

    def locate(self, problems: list, theta, test, before: int) -> dict:
        """Per problem, the rows of the one law of its class, of the first
        `before` the stack stored, whose multipliers at its theta are at
        least 0 and whose x meets every unit row of `test` by floor, if one
        alone does (explicit MPC's point location).  It multiplies only the
        x and multiplier rows of the stored slots, and forms the slacks at
        the point for the laws whose multipliers pass."""
        n = self.x_free.shape[1]
        with self.lock, np.errstate(all="ignore"):  # a law may overflow at a large theta
            count = self.size - (self.stored - before)
            if count <= 1:  # slot 0 is no law
                return {}
            y = self.store[:count, :n + self.width] @ np.ascontiguousarray(theta[problems].T)
            # every multiplier at least 0 (NaN: no law), over the rows made the
            # outer axis (a reduction over a short inner axis is slow)
            slot, j = ((np.ascontiguousarray(y[:, n:].transpose(1, 0, 2)).min(axis=0) >= 0.0)
                       & (self.kind[:count, None] == [self.alike[p] for p in problems])).nonzero()
            # of those, the laws whose x meets every unit row
            p, x = np.array(problems)[j], y[slot, :n, j]
            w_x = x @ test.w[0].T if len(test.w) == 1 else (test.w[p] @ x[..., None])[..., 0]
            met = (test.v[p, :, 0] - w_x).min(axis=1) >= self.floor
            slot, j = slot[met].tolist(), j[met].tolist()
            return {problems[i]: self.masks[slot[j.index(i)]] for i in set(j) if j.count(i) == 1}


class _TickQp(QpProblem):
    """A QpProblem the smoother assembled (_tick_qp): its laws are the
    smoother's stack, theta (6, 6) is this tick's parameters, and x and
    residual are -E^-1 f and W x - V (_optimum); one update fills its fields."""

    def __init__(self, e, f, w, v, laws: _Laws, theta, x, residual):
        self.__dict__.update(e=e, f=f, w=w, v=v, laws=laws, theta=theta, x=x, residual=residual)


def _axis_qp(f_mat: np.ndarray, phi: np.ndarray, cfg: MpcConfig, limits: LimitSet) -> _Laws:
    """The laws of a smoother's six per-axis QPs, which share W.  Horizons,
    weights and limits fix the maps P_f and P_V from an axis's theta_a = [its
    3 states s_a, target_a, u_prev_a, 1] to its f and V; a tick only forms
    theta.  In the n_c increments du (acceleration increments), E = Phi^T Q
    Phi + R, f = -Phi^T Q (target_a - F s_a) and W stacks three groups of 2
    n_c rows, a -min then a +max row per step: jerk +-du_k <= T * jerk
    bounds, acceleration +-(u_prev + sum_{j<=k} du_j) <= acc bounds and
    velocity +-(F s_a + Phi dU) over the first n_c outputs <= vel bounds, V
    each bound less its row's offset.  Every plan ends at zero acceleration:
    du = M y - u_prev e_last with M = [I; -1 ... -1], and the QP is in the
    first n_c - 1 increments y (E' = M^T E M, W' = W M, the u_prev terms
    folded into P_f and P_V), where the last acceleration row pair is zero.
    The velocity stays put after a plan, and the shifted previous plan meets
    every row of the next tick (Mayne, Rawlings, Rao & Scokaert 2000)."""
    n_c = cfg.n_c
    phi_t_q = cfg.q_weight[:, None, None] * phi.T
    e = phi_t_q @ phi + cfg.r_weight[:, None, None] * np.eye(n_c)
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
    # the elimination of du_last = -u_prev - sum y (u_prev is theta's entry 4)
    m = np.vstack([np.eye(n_c - 1), -np.ones((1, n_c - 1))])
    p_f[..., 4] -= e[..., -1]
    p_v[..., 4] += w[:, -1]
    e = m.T @ e @ m
    return _Laws(0.5 * (e + e.transpose(0, 2, 1)), w @ m, m.T @ p_f, p_v, np.isfinite(v_zero))


def _optimum(laws: _Laws, f, v):
    """Each problem's unconstrained optimum x = -E^-1 f and its residual W x - V."""
    x = (laws.minus_e_inv @ f[:, :, None])[:, :, 0]
    return x, (laws.w @ x[:, :, None])[:, :, 0] - v


def _violation(laws: _Laws, residual) -> np.ndarray:
    """Each problem's largest residual on a finite row, or 0."""
    return np.where(laws.finite, residual, 0.0).max(axis=1, initial=0.0)


def _tick_qp(laws: _Laws, state: np.ndarray, target: np.ndarray, u_prev: np.ndarray) -> _TickQp:
    """The stack of six per-axis QPs of a tick, E and W the laws': row a of
    theta is [column a of state.reshape(3, 6), target_a, u_prev_a, 1], f =
    P_f theta, V = P_V theta on the rows with a finite bound and inf on the
    rest, with its optimum x and residual (_optimum)."""
    theta = np.concatenate([state, target, u_prev, _ONES]).reshape(-1, N_AXES).T
    fv, n = (laws.p_fv @ theta[:, :, None])[:, :, 0], laws.e.shape[2]
    f, v = fv[:, :n], fv[:, n:]
    v[laws.infinite] = np.inf
    return _TickQp(laws.e, f, laws.w, v, laws, theta, *_optimum(laws, f, v))


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
    """The stop test of a candidate point for a stack of problems, on (k, .,
    1) columns.  Rows are scaled to unit norm; a row with an infinite bound
    or zero W reads 0 <= 1.  ``error`` is a candidate's largest KKT residual:
    each residual is measured against the size of the terms of its own
    equation, a row's at the point and a stationarity row's at x_free (W^T z
    is left out); a multiplier against the stationarity rows of the variables
    its row touches.

    The scaled bounds ``v`` (k, m, 1; 1 on a row that cannot activate) and
    their absolute values ``v_abs``, the stationarity scales ``dual`` (k, n,
    1) and the multiplier scales ``multiplier`` (k, m, 1), each at least 1,
    are formed on first read: a screen reads each candidate's slacks and
    unit multipliers off its law, so a tick that one round of laws holds
    usually forms none of them.  Every scale is at most sqrt(n) (1 + |E|'s
    largest row sum |x_free| + |f|), on 2-norms over the stack.  ``bounded``: that bound is
    finite, so a multiplier of at least 0 or a stationarity residual of at
    most 1e-10 meets the test on any scale, and a multiplier below
    ``lowest`` fails it on any."""

    @classmethod
    def of(cls, laws: _Laws, f, v, x_free) -> "_StopTest":
        """The test of a stack from its laws' |E|, scaled rows and row scale
        and its f, v and x_free (which must not change while the test lives)."""
        test = cls()
        test.w, test.w_abs = laws.w_unit, laws.w_unit_abs
        top = 2.0 * math.sqrt(x_free.shape[1]) * (  # twice the bound, for rounding
            1.0 + laws.e_rows * math.sqrt(np.vdot(x_free, x_free)) + math.sqrt(np.vdot(f, f)))
        test.bounded, test.lowest = top <= 1e300, -_KKT_TOL * top  # NaN top: not bounded
        test.terms = laws, f, v, x_free
        return test

    @cached_property
    def v(self) -> np.ndarray:
        laws, _, v, _ = self.terms
        return np.where(laws.rows[..., None], v / laws.scale, 1.0)

    @cached_property
    def v_abs(self) -> np.ndarray:
        return np.abs(self.v)

    @cached_property
    def dual(self) -> np.ndarray:
        laws, f, _, x_free = self.terms
        return np.maximum(1.0, laws.e_abs @ np.abs(x_free) + np.abs(f))

    @cached_property
    def multiplier(self) -> np.ndarray:
        return np.maximum(1.0, self.w_abs @ self.dual)

    def error(self, p: int, x, r_d, s, rows, z) -> float:
        """Problem p's largest KKT residual at the point x with stationarity
        residual r_d, unit-row slacks s and unit multipliers z on the rows
        `rows` (0 on the others)."""
        w_abs = self.w_abs[0 if len(self.w_abs) == 1 else p]
        primal = np.maximum(1.0, w_abs @ np.abs(x) + self.v_abs[p, :, 0])
        z_rows = np.zeros(len(s))
        z_rows[rows] = z
        return max(np.abs(r_d / self.dual[p, :, 0]).max(),
                   np.abs(np.minimum(s / primal, z_rows / self.multiplier[p, :, 0])).max())


def _on_laws(laws: _Laws, theta, test: _StopTest, todo, sets, x, lam) -> tuple[set, int]:
    """The problems `todo` on laws (see solve_qp), all batched.  Writes each
    problem's point into x and its multipliers into lam, which hold x_free
    and 0 on the call; returns the problems held and the rounds after which
    the last unheld one ended (0: none)."""
    (k, n), m, width = x.shape, len(laws.w), laws.width
    w_abs = test.w_abs[0] if len(test.w_abs) == 1 else test.w_abs
    # candidate c: problem owner[c] on the rows masks[c], each problem's sets
    # in order; a problem's walk starts from its last
    masks = (np.asarray(sets, dtype=bool).reshape(-1, k, m) & laws.rows)[:, todo].reshape(-1, m)
    owner = todo.tolist() * (len(masks) // len(todo))
    x_free, held, rounds, unheld = x.copy(), set(), 0, 0
    joining = {}  # problem -> (the row joining, x and multipliers of the walk's point)
    gap = {}  # problem -> (x - x_free)^T E (x - x_free) at its last dual-feasible law
    before = laws.stored  # only laws stored before the call are located

    def relative():  # the multipliers over their scales, and each candidate's least
        z_rel = z / test.multiplier[problems[:, None], work, 0]
        return z_rel, z_rel.min(axis=1).tolist()

    def met(c):  # the screen's slack terms (see below) of candidate c
        if a_min[c] >= laws.floor:
            return True
        p, x_c = owner[c], y[c, :n]
        # each scale is at most 1 + |x| + |V| on unit rows, so this fails
        # (|x| by hypot, which does not overflow where x . x does)
        if a_min[c] < -2 * _KKT_TOL * (1.0 + math.hypot(*x_c.tolist()) + test.v_abs[p].max()):
            return False
        scale = np.maximum(1.0, (w_abs if w_abs.ndim == 2 else w_abs[p]) @ np.abs(x_c)
                           + test.v_abs[p, :, 0])
        return min((s[c] / scale).min(), (s[c] * laws.scale[:, 0]).min() / FEAS_TOL * _KKT_TOL) \
            >= -_KKT_TOL

    def end(p, x_p, lam_p):  # problem p leaves the walk unconverged at this point
        nonlocal unheld
        x[p], lam[p], unheld = x_p, np.maximum(lam_p, 0.0), rounds

    def join(p, c):  # dual-feasible candidate c not held: its most broken row joins
        row, x_c = a_at[c], y[c, :n]
        with np.errstate(over="ignore"):  # inf at a huge target: only the first rises
            d = x_c - x_free[p]
            g = float(d @ laws.e[p] @ d)
        rise, gap[p] = g > gap.get(p, -math.inf), g
        if masks[c, row] or not rise:  # no row to add, or no rise (a repeat in rounding)
            return end(p, x_c, lam_c[c])
        joining[p] = row, x_c, lam_c[c].copy()
        return masks[c] | (np.arange(m) == row)

    while owner:
        rounds += 1
        problems = np.array(owner)
        y, work, count = laws.of(problems, masks)
        y, count = (y @ theta[problems, :, None])[..., 0], count.tolist()
        # x, multipliers, stationarity residual, unit multipliers, unit-row slacks
        lam_y, r_d = y[:, n:n + width], y[:, n + width:2 * n + width]
        z, s = y[:, 2 * n + width:2 * (n + width)], y[:, 2 * (n + width):]
        # the screen: each working row's multiplier and each row's slack, over
        # their scales in the stop test, at least -1e-10, and every row met
        # within FEAS_TOL (a unit-row slack of at least laws.floor meets both);
        # the scales are read only for a multiplier between 0 and test.lowest
        z_rel, d_min = (None, z.min(axis=1).tolist()) if test.bounded else relative()
        a_min = s.min(axis=1).tolist()
        # the stop test's terms the screen leaves, the stationarity residual (the law's)
        # and each working row's min(slack, multiplier), are met if both are at most 1e-10
        top = np.maximum(abs(r_d).max(axis=1), s.max(axis=1, where=masks, initial=0.0))
        unread = ((top <= _KKT_TOL) & test.bounded).tolist()
        first, last = {}, {}  # each problem's first candidate that passes, and its last
        for c, p in enumerate(owner):
            last[p] = c
            if p in first:
                continue
            if z_rel is None and test.lowest <= d_min[c] < 0.0:
                z_rel, d_min = relative()
            if d_min[c] >= -_KKT_TOL and met(c):
                first[p] = c
        for p, c in first.items():  # held if it passes the stop test, else it ends
            rows, z_c = work[c, :count[c]], z[c, :count[c]]
            if unread[c] or test.error(p, y[c, :n], r_d[c], s[c], rows, z_c) <= _KKT_TOL:
                held.add(p)
            else:
                unheld = rounds
            x[p], lam[p, rows] = y[c, :n], np.maximum(lam_y[c, :count[c]], 0.0)
        left = [p for p in last if p not in first]
        located = {} if rounds > 1 or not left else laws.locate(left, theta, test, before)
        if len(located) == len(left):
            owner, masks = left, np.array([located[p] for p in left]).reshape(-1, m)
            continue
        lam_c = np.zeros(masks.shape)  # each candidate's multipliers in row order
        lam_c[np.arange(len(masks))[:, None], work] = lam_y
        a_at = s.argmin(axis=1).tolist()
        # each problem left steps, as Goldfarb & Idnani (1983): a set with a
        # negative multiplier drops those rows; a dual-feasible one adds its
        # most broken row, and the set with it moves the point along the
        # segment to its law until a multiplier reaches 0, whose row leaves
        lawless = (~np.isfinite(y[:, :n + width]).all(axis=1)).tolist()
        new, owner = [], []
        for p in left:
            c = last[p]
            if p in located:
                mask = located[p]
            elif p in joining:
                row, x_p, lam_p = joining.pop(p)
                lam_j, mask = lam_c[c], masks[c].copy()
                if lawless[c]:  # the row depends on the working rows: a dual step
                    mask[row] = False
                    out = _swap(laws, mask, row, lam_p)
                    if out is None:  # the rows cannot all hold
                        end(p, x_p, lam_p)
                        continue
                    mask[row] = True
                elif (mask & (lam_j < 0.0)).any():  # a partial step
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = np.where(mask & (lam_j < 0.0), lam_p / (lam_p - lam_j), np.inf)
                    out = int(t.argmin())
                    x_p = x_p + t[out] * (y[c, :n] - x_p)
                    lam_p = lam_p + t[out] * (lam_j - lam_p)
                    lam_p[out] = 0.0
                else:  # the full step: the set holds the row
                    mask, out = join(p, c), None
                if out is not None:
                    mask[out] = False
                    if out != row:
                        joining[p] = row, x_p, lam_p
            elif lawless[c]:  # a set with no law walks from the empty set
                mask = np.zeros(m, dtype=bool) if masks[c].any() else end(p, x_free[p], lam[p])
            elif (lam_c[c] < 0.0).any():
                mask = masks[c] & (lam_c[c] >= 0.0)
            else:
                mask = join(p, c)
            if mask is not None:
                new.append(mask)
                owner.append(p)
        masks = np.array(new).reshape(-1, m)
    return held, unheld


def _swap(laws: _Laws, rows, added: int, lam) -> int | None:
    """The dual step of row `added`, which depends on the rows `rows` (a mask)
    so that their set with it has no law: the least-squares fit d of its
    unit row by theirs (normal equations; the exact solve at a vertex of n)
    moves the unit multipliers z of theirs by -t d and its own by +t, with t
    the least z / d over d > 1e-9, which zeroes one row's.  Updates lam (in
    row order) and returns that row, or None where no d is positive (the
    rows cannot all hold)."""
    index = np.flatnonzero(rows)
    if not len(index):
        return None
    scale, w_r = laws.scale[index, 0], laws.w[added] / laws.scale[added, 0]
    w_a = laws.w[index] / scale[:, None]
    d = _solve((w_a @ w_a.T)[None], (w_a @ w_r)[None, :, None])[0, :, 0]
    ratio, fit = np.full(len(index), np.inf), d > 1e-9  # NaN d (no fit): no ratio
    ratio[fit] = lam[index[fit]] * scale[fit] / d[fit]
    out = int(ratio.argmin())
    if not ratio[out] < np.inf:
        return None
    lam[index] -= ratio[out] * d / scale
    lam[added] += ratio[out] / laws.scale[added, 0]
    lam[index[out]] = 0.0
    return int(index[out])


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
    """Solve the dense inequality QP by a dual active-set method on cached
    solution laws (see the module notes and _Laws).

    -E^-1 f is the result when it violates no row.  Otherwise a problem tries
    its ``working_sets`` entries (bool masks over the rows, shaped like v;
    none given: the empty set) in one batched product, then the one law its
    stack stored before the call that holds it (none for a plain problem),
    else walks from its last set as Goldfarb & Idnani (1983).  The first
    candidate that passes the screen (multipliers and slacks each at least
    -1e-10 of their scales in the stop test, every finite row met within
    FEAS_TOL) is held if it passes the stop test, with its law's residual,
    and ends unconverged if not; so does a walk whose rows cannot all hold,
    or whose objective does not rise in rounding.  ``lam`` is the held law's
    exact multiplier (one above -1e-10 of its scale reads 0); an unconverged
    problem reports the walk's last point and multipliers (at least 0).
    Rows with infinite bounds or zero W never activate.  A stack (e (k, n, n),
    f (k, n), v (k, m), shared w) is solved per problem, each bit for bit as
    alone, and reports whether each converged (a law held it and it meets
    every finite row within FEAS_TOL), the largest violation and, as
    ``iterations``, the law rounds after which its last unconverged problem
    ended: 0 where a law held every problem, whose rounds depend on the laws
    its stack stored before the call, so that a smoother's log of them does
    not.  A plain problem builds its own _Laws on each call, with theta = [1]
    (P_f = f, P_V = V); its shapes must agree (e (n, n), f (n,), w (m, n),
    v (m,), or a stack, and each working set shaped like v), else
    ValueError.  A smoother's tick problem carries its configuration's
    stack, with its laws cached across ticks and smoothers, and its theta.
    """
    w = qp.w
    if isinstance(qp, _TickQp):
        e, f, v, laws, theta, x, residual = qp.e, qp.f, qp.v, qp.laws, qp.theta, qp.x, qp.residual
    else:
        e, f, v = (m[None] if qp.f.ndim == 1 else m for m in (qp.e, qp.f, qp.v))  # a stack of one
        _check_shapes(qp, working_sets)
        laws, theta = _Laws(e, w, f[..., None], v[..., None], np.isfinite(v)), np.ones((len(v), 1))
        x, residual = _optimum(laws, f, v)
    lam = np.zeros(v.shape)
    rounds, solved = 0, np.ones(len(v), dtype=bool)
    broken = ~(residual <= 1e-12).all(axis=1)
    if broken.any():
        test = _StopTest.of(laws, f[..., None], v[..., None], x[..., None])
        x = x.copy()  # the test's x_free, and a tick problem's optimum, stay
        left = broken.nonzero()[0]
        sets = working_sets if len(working_sets) else (np.zeros(v.shape, dtype=bool),)
        held, rounds = _on_laws(laws, theta, test, left, sets, x, lam)
        solved[left] = [p in held for p in left.tolist()]
        residual = residual.copy()  # a tick problem's residual stays
        residual[left] = (w @ x[left, :, None])[:, :, 0] - v[left]
    violation = _violation(laws, residual)
    solved &= violation <= FEAS_TOL
    if qp.f.ndim == 1:
        x, lam, solved = x[0], lam[0], solved[0]
    return QpSolution(x, lam, rounds, solved, float(violation.max(initial=0.0)))


@dataclass
class SmootherState:
    """Mutable per-instance smoother memory.

    `augmented` is the 18-vector [backward differences of (integrated
    twist, twist); current output twist], `u_prev` the previously applied
    acceleration and `pose` the integrated smoothed pose.  `working_set`
    marks, per axis, the QP rows that ended the last tick with a positive
    multiplier, none on an axis whose solve did not converge; it only speeds
    the next solve, and from a state with none marked (the default) the next
    tick walks from the empty set.  `plan` (not an argument; none until the
    first step) is, per axis, the first n_c - 1 increments the last tick
    planned (the last ends it at rest): an axis whose solve does not
    converge applies the first of this plan shifted one step, with 0
    appended, which meets every row of its tick (see _axis_qp), or 0.
    `augmented` and `u_prev` must be finite: the smoother's laws take
    the rows with a finite bound from the limits alone.  A step writes all
    five at once, after its whole tick is computed.
    """

    augmented: np.ndarray
    u_prev: np.ndarray
    pose: UnitDualQuaternion
    working_set: np.ndarray = field(default_factory=lambda: np.zeros((N_AXES, 0), dtype=bool))
    plan: np.ndarray = field(default_factory=lambda: np.zeros((N_AXES, 0)), init=False,
                             repr=False, compare=False)

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
        self._jerk = np.arange(len(self._shift)) < 2 * cfg.n_c

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
        An axis whose solve did not converge applies the first increment
        of its shifted previous plan (see SmootherState), and the tick
        reports converged False.
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
        qp = _tick_qp(laws, state.augmented, target, state.u_prev)
        x, residual = qp.x, qp.residual
        worst = residual.max()  # NaN where any residual is
        if worst <= 1e-12:  # free: solve_qp's solution, without calling it
            y, iterations, converged, active = x, 0, True, 0
            # 0 when every residual is negative, else solve_qp's reduction (and its signed zero)
            violation = 0.0 if worst < 0.0 else float(_violation(laws, residual).max(initial=0.0))
            working = np.zeros(residual.shape, dtype=bool)
        else:
            guesses = (np.zeros((N_AXES, rows), dtype=bool),)
            if working.any():
                # a plan brakes to rest over its last steps: the jerk rows of that
                # tail keep their steps while the limits it reaches move earlier
                shifted = working[:, self._shift]
                guesses = (working, shifted,
                           np.where(self._jerk, working & shifted, working | shifted))
            sol = solve_qp(qp, working_sets=guesses)
            converged = sol.converged
            if not (converged or np.isfinite(x).all()):
                raise FloatingPointError(f"QP overflows at target twist {target.tolist()}")
            y, iterations, active, violation = (sol.delta_u, sol.iterations, sol.active_count,
                                                sol.max_violation)
            working = (sol.lam > 0.0) & sol.solved[:, None]
            if not converged:  # the shifted previous plan; its last increment ends at rest
                shifted = np.zeros(y.shape)
                if state.plan.size:
                    shifted[:, :-1] = state.plan[:, 1:]
                    shifted[:, -1] = -state.u_prev - state.plan[:, 1:].sum(axis=1)
                y = np.where(sol.solved[:, None], y, shifted)
        du = y[:, 0]

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
        state.augmented, state.u_prev, state.pose, state.working_set, state.plan = (
            augmented, state.u_prev + du, pose, working, y)
        return StepResult(twist, pose, du, iterations, converged, active, violation)
