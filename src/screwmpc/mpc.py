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
with theta = [1].  A problem whose unconstrained optimum breaks a row tries
the laws of its working sets: the set the smoother carried from the last
tick, the same rows one step along the horizon and the two merged, or the
empty set.  A problem they leave locates its region of the explicit MPC
partition (Bemporad, Morari, Dua & Pistikopoulos 2002; Tondel, Johansen &
Bemporad 2003) among the laws its stack stored before the call, on the laws'
own rows: the one law whose multipliers are all at least 0 and whose
unit-row slacks all meet the screen's floor.  Else it walks from its last
set by the dual active-set method of Goldfarb & Idnani (1983) on the laws'
unit multipliers (_walk), one law product per round, the rounds of all
problems batched, the cached laws its factorizations: a set drops its rows
with negative multipliers; at one with none the most broken row joins, and
the point moves along the segment to the joined set's law until a
multiplier reaches 0, whose row leaves.  A joining row that depends on the
working rows (any row joining a vertex of n) makes a set with no law, and a
dual step on its least-squares fit zeroes a working row's multiplier instead
(_swap); with none to zero the rows cannot all hold.  The objective rises
with every row that joins, so no set repeats and every walk ends.
One function gives a candidate its verdict (_verdict): a screen on the stop
test's terms (and every row met within FEAS_TOL), read off its law's
product, its multipliers and slacks on the unit rows, none formed at the
point; then the stop test, which holds the candidate a problem takes or
ends it unconverged.  Each term is measured against the size of the terms
of its own equation at the candidate's point, its own problem's.  A round
is the law product for all its candidates and one reduction, each
candidate's least unit multiplier and least unit-row slack, which decide
the screen of almost every one; a candidate whose law's stationarity
residual and working rows' slacks are all at most _KKT_TOL passes the test
on any size, and a bound on the sizes from |x| rejects most others, so a
candidate forms its sizes only where its verdict depends on them.
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
_CACHED = 2048 * 96 * 6 * 8  # bytes of 2048 default law slots (a measured run met 453 sets)
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
    stop test's rows scaled to unit norm per problem, 0 where a row cannot
    activate (an infinite bound or zero W)) and the problems' solution laws.

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
        elsewhere, so those read 1, as the stop test's scaled bounds
        V_unit do;
    so one product gives a candidate all the screen reads.  A set of more
    than n rows or of dependent rows (|S_ii (S^-1)_ii| above 1e12, or S
    singular) has no candidate: it points at slot 0, the one NaN law (no
    rows, no class), which no screen passes and no location finds.  A law is
    built on first use and kept in one dense store, whose arrays grow by
    doubling, per slot the law (its L laws read as one L (2 (n + min(n, m))
    + m) by p matrix), its rows' mask, its first min(n, m) rows, working
    rows first, how many work and its class: problems whose E^-1, X, P_V
    and finite rows are equal bit for bit are of one class and share their
    laws.  _CACHED bounds the bytes of the slots in use, a guard far above
    what a run meets: past _CACHED // (a slot's bytes) sets the stack drops
    every law, to be rebuilt when used, and warns, once; its arrays keep
    their size, and no slot is ever renumbered.  A law depends on nothing
    else, so smoothers in several threads may share one stack: a lock
    guards its store."""

    def __init__(self, e, w, p_f, p_v, finite):
        self.e, self.w = e, w                      # (k, n, n), (m, n)
        self.finite, self.infinite = finite, ~finite  # (k, m) rows with a finite bound, the rest
        self.e_inv, self.e_abs = np.linalg.inv(e), np.abs(e)
        self.minus_e_inv = -self.e_inv
        self.scale = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)  # (m, 1)
        self.rows = finite & (self.scale[:, 0] > 1e-12)  # (k, m) rows that can activate
        self.w_unit = np.where(self.rows[..., None], w / self.scale, 0.0)  # (k, m, n) scaled rows
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
        self.slot_bytes = self.store[0].nbytes
        self.masks, self.work = np.zeros((1, m), dtype=bool), np.arange(self.width)[None]
        self.count, self.kind = np.zeros(1, dtype=int), np.full(1, -1)
        self.size = 1  # slots in use; the arrays grow by doubling
        self.cache: dict = {}  # (class, rows' mask) -> slot
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
            cap = _CACHED // self.slot_bytes  # the sets whose slots _CACHED holds
            if len(cache) > cap:  # restart cold: the arrays keep their size
                if not self.evicted:
                    import logging  # only here: the import costs every process milliseconds
                    logging.getLogger(__name__).warning(
                        "a QP stack holds more than %d solution laws: it drops them all, "
                        "to be rebuilt when used", cap)
                    self.evicted = True
                self.cache, self.size = {}, 1
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
        laws = np.concatenate([x, lam, r_d, lam * self.scale[rows],  # the unit multipliers
                               self.p_v_unit[problems] - self.w_unit[problems] @ x], axis=1)[lawful]
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

    def locate(self, problems: list, theta, before: int) -> dict:
        """Per problem, the rows of the one law of its class, of the first
        `before` the stack stored, whose multipliers at its theta are at
        least 0 and whose unit-row slacks are at least floor, if one alone
        does (explicit MPC's point location).  It multiplies the multiplier
        rows of the stored slots, and the slack rows of the laws whose
        multipliers pass."""
        n, width = self.x_free.shape[1], self.width
        with self.lock, np.errstate(all="ignore"):  # a law may overflow at a large theta
            count = self.size - (self.stored - before)
            if count <= 1:  # slot 0 is no law
                return {}
            at = theta[problems]
            y = self.store[:count, n:n + width] @ np.ascontiguousarray(at.T)
            # every multiplier at least 0 (NaN: no law), over the rows made the
            # outer axis (a reduction over a short inner axis is slow)
            slot, j = ((np.ascontiguousarray(y.transpose(1, 0, 2)).min(axis=0) >= 0.0)
                       & (self.kind[:count, None] == [self.alike[p] for p in problems])).nonzero()
            # of those, the laws whose slacks meet every unit row
            s = (self.store[slot, 2 * (n + width):] @ at[j, :, None])[..., 0]
            met = s.min(axis=1) >= self.floor
            j = j[met].tolist()
            rows = self.masks[slot[met]]  # a copy: a restart lets later laws reuse the slots
            return {problems[i]: rows[j.index(i)] for i in set(j) if j.count(i) == 1}


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
    return np.maximum.reduce(np.where(laws.finite, residual, 0.0), axis=1, initial=0.0)


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
        return bool(np.count_nonzero(self.solved) == np.size(self.solved))

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


def _verdict(laws: _Laws, p: int, f, v, y, rows, d: float, a: float) -> bool | None:
    """The stop test of a candidate of problem p, whose f and V are f and v:
    y its law at theta, `rows` its working rows, d and a its least unit
    multiplier and least unit-row slack.  None where the screen fails it,
    else whether it is held.  Each term is measured against the size of the
    terms of its own equation at the candidate's point x, each size at least
    1: a unit-row slack against max(1, |W_unit| |x| + |V_unit|), a
    stationarity residual against max(1, |E| |x| + |f|) and a working row's
    unit multiplier against max(1, |W_unit| times those), the stationarity
    rows of the variables its row touches.  The screen asks every
    multiplier and slack to be at least -1e-10 of its size and every row to
    be met within FEAS_TOL; the test holds a screened candidate whose
    stationarity residuals and working rows' min(slack, multiplier) are all
    at most 1e-10 of their sizes.  Each size is at most top/2 = sqrt(n) (1 +
    |E|'s largest row sum |x| + |f|) (a slack's at most 1 + |x| + |V_unit|),
    on 2-norms: a term below -1e-10 top fails on any size, and where top is
    at most 1e300 a term of at least -1e-10 (a residual of at most 1e-10)
    meets the test on any.  Only what d, a and the residuals leave open forms
    the sizes, and only problem p's."""
    n, width, k = len(f), laws.width, len(rows)
    x, r_d = y[:n], y[n + width:2 * n + width]
    z, s = y[2 * n + width:2 * n + width + k], y[2 * (n + width):]
    norm = math.hypot(*x.tolist())  # |x|, which does not overflow where x . x does
    top = 2.0 * math.sqrt(n) * (1.0 + laws.e_rows * norm + math.hypot(*f.tolist()))
    if not d >= -_KKT_TOL * top:  # fails on any size (NaN: no law)
        return None
    bounded = top <= 1e300
    if bounded and d >= -_KKT_TOL and a >= laws.floor:  # the screen passes on any size
        if (all(-_KKT_TOL <= r <= _KKT_TOL for r in r_d.tolist())
                and all(t <= _KKT_TOL for t in s.take(rows).tolist())):
            return True  # and so does the test
    v_unit = np.where(laws.rows[p], v / laws.scale[:, 0], 1.0)
    if not a >= -2.0 * _KKT_TOL * (1.0 + norm + np.abs(v_unit).max()):  # fails on any size
        return None
    w_abs = laws.w_unit_abs[p]
    slack = s / np.maximum(1.0, w_abs @ np.abs(x) + np.abs(v_unit))
    dual = np.maximum(1.0, laws.e_abs[p] @ np.abs(x) + np.abs(f))
    multiplier = z / np.maximum(1.0, w_abs[rows] @ dual)
    if not ((multiplier >= -_KKT_TOL).all() and min(
            slack.min(), (s * laws.scale[:, 0]).min() / FEAS_TOL * _KKT_TOL) >= -_KKT_TOL):
        return None
    return bool((abs(r_d / dual) <= _KKT_TOL).all()
                and (np.minimum(slack[rows], multiplier) <= _KKT_TOL).all())


def _on_laws(laws: _Laws, theta, f, v, todo, sets, x, lam) -> tuple[list, int]:
    """The problems `todo` of the stack whose f and V are f and v on laws
    (see solve_qp and the module notes), all batched, from their working
    sets `sets` (g, len(todo), m; todo[i]'s in order).  Writes each
    problem's point into x and its multipliers into lam, which hold x_free
    and 0 on the call; returns the problems held and the rounds after which
    the last unheld one ended (0: none)."""
    n, m, width = x.shape[1], len(laws.w), laws.width
    # candidate c: problem owner[c] on the rows masks[c], set-major; a
    # problem's walk starts from its last set
    groups, masks = len(sets), (sets & laws.rows.take(todo, 0)).reshape(-1, m)
    owner = np.concatenate([todo] * groups)
    held, rounds, unheld = [], 0, 0
    joining, gap = {}, {}  # the walks' state across rounds (see _walk)
    before = laws.stored  # only laws stored before the call are located
    while len(owner):
        rounds += 1
        y, work, count = laws.of(owner, masks)
        y, count = (y @ theta.take(owner, 0)[:, :, None])[..., 0], count.tolist()
        # rows of y: x, multipliers, stationarity residual, unit multipliers,
        # unit-row slacks.  Each candidate's least unit multiplier and least
        # unit-row slack decide the screen of almost every one (_verdict)
        least = np.minimum.reduceat(y, (2 * n + width, 2 * (n + width)), axis=1)
        size, owned, pick = len(owner) // groups, owner.tolist(), {}
        for c, (d, a) in enumerate(least.tolist()):
            i = c % size
            if i in pick:
                continue
            p, rows = owned[c], work[c, :count[c]]
            verdict = _verdict(laws, p, f[p], v[p], y[c], rows, d, a)
            if verdict is None:
                continue
            pick[i] = c
            if verdict:
                held.append(p)
            else:
                unheld = rounds
            x[p] = y[c, :n]
            lam[p].put(rows, np.maximum(y[c, n:n + len(rows)], 0.0))
        lost = [i for i in range(size) if i not in pick]
        if not lost:
            break
        left = [owned[i] for i in lost]
        located = {} if rounds > 1 else laws.locate(left, theta, before)
        last, groups = [i + (groups - 1) * size for i in lost], 1
        if len(located) == len(left):
            owner, masks = np.array(left), np.array([located[p] for p in left])
            continue
        owner, masks, unheld = _walk(laws, y, work, masks, left, last, located, joining, gap,
                                     x, lam, rounds, unheld)
    return held, unheld


def _walk(laws: _Laws, y, work, masks, left: list, last: list, located: dict, joining: dict,
          gap: dict, x, lam, rounds: int, unheld: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One step of the walk (see the module notes) of each problem left[i]
    from candidate last[i] of round `rounds` (y[c] its law at theta, masks[c]
    and work[c] its rows), on unit multipliers.  `joining` (problem -> the row
    joining, and the point and unit multipliers before it) and `gap` (problem
    -> (x - x_free)^T E (x - x_free) at its last dual-feasible law) carry it
    across rounds.  A problem that ends writes x and lam, and unheld `rounds`."""
    n, m, width = x.shape[1], len(laws.w), laws.width
    z_c = np.zeros(masks.shape)  # each candidate's unit multipliers in row order
    z_c[np.arange(len(masks))[:, None], work] = y[:, 2 * n + width:2 * (n + width)]
    a_at = y[:, 2 * (n + width):].argmin(axis=1).tolist()  # each one's most broken row
    lawless = (~np.isfinite(y[:, :n + width]).all(axis=1)).tolist()
    new, owner = [], []

    def end(p, x_p, z_p):  # problem p leaves the walk unconverged at this point
        nonlocal unheld
        x[p], lam[p], unheld = x_p, np.maximum(z_p / laws.scale[:, 0], 0.0), rounds

    def join(p, c):  # dual-feasible candidate c not held: its most broken row joins
        row, x_c = a_at[c], y[c, :n]
        with np.errstate(over="ignore"):  # inf at a huge target: only the first rises
            d = x_c - x[p]  # x_free: a problem's x is written only as it leaves
            g = float(d @ laws.e[p] @ d)
        rise, gap[p] = g > gap.get(p, -math.inf), g
        if masks[c, row] or not rise:  # no row to add, or no rise (a repeat in rounding)
            return end(p, x_c, z_c[c])
        joining[p] = row, x_c, z_c[c].copy()
        return masks[c] | (np.arange(m) == row)

    for p, c in zip(left, last):
        if p in located:
            mask = located[p]
        elif p in joining:
            row, x_p, z_p = joining.pop(p)
            z_j, mask = z_c[c], masks[c].copy()
            if lawless[c]:  # the row depends on the working rows: a dual step
                out = _swap(laws, mask & (np.arange(m) != row), row, z_p)
                if out is None:  # the rows cannot all hold
                    mask = end(p, x_p, z_p)
            elif (mask & (z_j < 0.0)).any():  # a partial step
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.where(mask & (z_j < 0.0), z_p / (z_p - z_j), np.inf)
                out = int(t.argmin())
                x_p = x_p + t[out] * (y[c, :n] - x_p)
                z_p = z_p + t[out] * (z_j - z_p)
                z_p[out] = 0.0
            else:  # the full step: the set holds the row
                mask, out = join(p, c), None
            if out is not None:
                mask[out] = False
                if out != row:
                    joining[p] = row, x_p, z_p
        elif lawless[c]:  # a set with no law walks from the empty set
            mask = np.zeros(m, dtype=bool) if masks[c].any() else end(p, x[p], lam[p])
        elif (z_c[c] < 0.0).any():
            mask = masks[c] & (z_c[c] >= 0.0)
        else:
            mask = join(p, c)
        if mask is not None:
            new.append(mask)
            owner.append(p)
    return np.array(owner, dtype=int), np.array(new).reshape(-1, m), unheld


def _swap(laws: _Laws, rows, added: int, z) -> int | None:
    """The dual step of row `added`, which depends on the rows `rows` (a mask)
    so that their set with it has no law: the least-squares fit d of its
    unit row by theirs (normal equations; the exact solve at a vertex of n)
    moves their unit multipliers z by -t d and its own by +t, with t the
    least z / d over d > 1e-9, which zeroes one row's.  Updates z (in row
    order) and returns that row, or None where no d is positive (the rows
    cannot all hold)."""
    index = np.flatnonzero(rows)
    if not len(index):
        return None
    w_a, w_r = laws.w[index] / laws.scale[index], laws.w[added] / laws.scale[added, 0]
    d = _solve((w_a @ w_a.T)[None], (w_a @ w_r)[None, :, None])[0, :, 0]
    ratio, fit = np.full(len(index), np.inf), d > 1e-9  # NaN d (no fit): no ratio
    ratio[fit] = z[index[fit]] / d[fit]
    out = int(ratio.argmin())
    if not ratio[out] < np.inf:
        return None
    z[index] -= ratio[out] * d
    z[added] += ratio[out]
    z[index[out]] = 0.0
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
    its ``working_sets`` entries (bool masks over the rows, each shaped like
    v, or one array of them; none given: the empty set) in one batched
    product, then the one law its stack stored before the call that holds
    it (none for a plain problem), else walks from its last set as
    Goldfarb & Idnani (1983).  The first candidate that passes the screen
    (multipliers and slacks each at least -1e-10 of their sizes, every
    finite row met within FEAS_TOL) is held if it passes the stop test (its
    law's stationarity residual and each working row's min(slack,
    multiplier) at most 1e-10 of their sizes), and ends unconverged if not;
    each size is that of the terms of its own equation at the candidate's
    point (_verdict).  So does a walk whose rows cannot all hold, or whose
    objective does not rise in rounding.  ``lam`` is the held law's
    exact multiplier (one above -1e-10 of its size reads 0); an unconverged
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
    (k, m), lam, rounds = v.shape, np.zeros(v.shape), 0
    # the free problems: every residual at most 1e-12 (NaN: not free)
    solved = [r <= 1e-12 for r in np.maximum.reduce(residual, axis=1, initial=-np.inf).tolist()]
    left = [p for p, free in enumerate(solved) if not free]
    if left:
        x = x.copy()  # a tick problem's optimum stays
        sets = (np.asarray(working_sets, dtype=bool).reshape(-1, k, m) if len(working_sets)
                else np.zeros((1, k, m), dtype=bool))
        held, rounds = _on_laws(laws, theta, f, v, np.array(left), sets.take(left, 1), x, lam)
        solved = [free or p in held for p, free in enumerate(solved)]
        # W x - V in one product over the stack: a free problem's x, and so its
        # residual, is the one it came with, bit for bit
        residual = (w @ x[:, :, None])[:, :, 0] - v
    violation = _violation(laws, residual)
    solved = np.array([free and r <= FEAS_TOL for free, r in zip(solved, violation.tolist())])
    if qp.f.ndim == 1:
        x, lam, solved = x[0], lam[0], solved[0]
    return QpSolution(x, lam, rounds, solved, float(np.maximum.reduce(violation, initial=0.0)))


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
            if np.count_nonzero(working):
                # the carried set, its shift and the two merged: a plan brakes to rest
                # over its last steps, so the jerk rows of that tail keep their steps
                # (both must mark them) while the limits it reaches move earlier
                guesses = np.empty((3, N_AXES, rows), dtype=bool)
                guesses[0] = working
                working.take(self._shift, axis=1, out=guesses[1])
                np.greater(guesses[0].view(np.uint8) + guesses[1].view(np.uint8), self._jerk,
                           out=guesses[2])
            else:
                guesses = np.zeros((1, N_AXES, rows), dtype=bool)
            sol = solve_qp(qp, working_sets=guesses)
            converged = sol.converged
            if not (converged or np.isfinite(x).all()):
                raise FloatingPointError(f"QP overflows at target twist {target.tolist()}")
            y, iterations, active, violation = (sol.delta_u, sol.iterations, sol.active_count,
                                                sol.max_violation)
            working = sol.lam > 0.0
            if not converged:  # the shifted previous plan; its last increment ends at rest
                working &= sol.solved[:, None]
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
