import dataclasses
import functools
import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from screwmpc import mpc
from screwmpc.config import load_config
from screwmpc.dualquat import PureDualQuaternion, UnitDualQuaternion, exp
from screwmpc.mpc import (
    _MAX_ITERATIONS,
    AUG_DIM,
    FEAS_TOL,
    N_AXES,
    _Laws,
    _scalar_model,
    _scalar_prediction,
    _StopTest,
    LimitSet,
    MpcConfig,
    QpProblem,
    SmootherState,
    TwistSmoother,
    _tick_qp,
    _TickQp,
    solve_qp,
)

from helpers import (
    build_model,
    build_prediction,
    build_qp,
    build_setpoint,
    prediction_rollout_oracle,
    qp_enumeration_oracle,
    qp_feasible_oracle,
    same_bits,
)

INF6 = np.full(6, np.inf)


@pytest.fixture(autouse=True)
def no_shared_stack():
    """Each test starts with no shared QP stack: a smoother it builds shares
    no law with one an earlier test built."""
    mpc._stack = (None, None)


def limits_of(vel=None, acc=None, jerk=None) -> LimitSet:
    def pair(v):
        if v is None:
            return -INF6, INF6
        v = np.full(6, float(v))
        return -v, v
    vmin, vmax = pair(vel)
    amin, amax = pair(acc)
    jmin, jmax = pair(jerk)
    return LimitSet(vmin, vmax, amin, amax, jmin, jmax)


def axis_slice(qp: QpProblem, axis: int) -> QpProblem:
    """Axis `axis`'s problem inside a dense build_qp: rows 6r + a, columns 6j + a."""
    rows = np.arange(axis, qp.w.shape[0], 6)
    cols = np.arange(axis, qp.w.shape[1], 6)
    return QpProblem(qp.e[np.ix_(cols, cols)], qp.f[cols], qp.w[np.ix_(rows, cols)],
                     qp.v[rows])


def scalar_plant_rollout(T, u_seq):
    """Per-axis oracle: position/velocity chain with the velocity as output."""
    s = w = 0.0
    out = []
    for u in u_seq:
        s = s + T * w + 0.5 * T * T * u
        w = w + T * u
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# model


def test_model_block_structure():
    a, b, c = build_model(1.0)
    np.testing.assert_array_equal(a[:6, 6:12], np.eye(6))  # T*I with T = 1
    np.testing.assert_array_equal(a[:6, :6], np.eye(6))
    np.testing.assert_array_equal(a[6:12, 6:12], np.eye(6))
    np.testing.assert_array_equal(a[12:, 12:], np.eye(6))
    np.testing.assert_array_equal(c, np.hstack([np.zeros((6, 12)), np.eye(6)]))


def test_model_input_blocks():
    T = 0.01
    a, b, c = build_model(T)
    np.testing.assert_allclose(b[:6], 0.5 * T * T * np.eye(6))
    np.testing.assert_allclose(b[6:12], T * np.eye(6))
    # bottom block is C_m B_m: the per-step output increment per unit input
    np.testing.assert_allclose(b[12:], T * np.eye(6))


def test_model_matches_scalar_rollout():
    T = 0.05
    a, b, c = build_model(T)
    rng = np.random.default_rng(50)
    u_seq = rng.normal(size=(5, 6))
    # augmented model consumes input increments from rest
    du_seq = np.diff(np.vstack([np.zeros(6), u_seq]), axis=0)
    state = np.zeros(AUG_DIM)
    for step in range(5):
        state = a @ state + b @ du_seq[step]
        y = c @ state
        for axis in range(6):
            expected = scalar_plant_rollout(T, u_seq[: step + 1, axis])[-1]
            assert y[axis] == pytest.approx(expected, abs=1e-12)


def test_model_rejects_bad_sample_time():
    with pytest.raises(ValueError, match="positive"):
        MpcConfig(sample_time=0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        MpcConfig(sample_time=float("inf"))


# ---------------------------------------------------------------------------
# prediction


def test_prediction_single_step():
    model = build_model(0.01)
    a, b, c = model
    pred = build_prediction(model, 1, 1)
    np.testing.assert_allclose(pred.f, c @ a)
    np.testing.assert_allclose(pred.phi, c @ b)


def test_prediction_causality_zero_block():
    model = build_model(0.01)
    pred = build_prediction(model, 3, 2)
    np.testing.assert_array_equal(pred.phi[:6, 6:12], np.zeros((6, 6)))


def test_prediction_matches_rollout():
    model = build_model(0.02)
    a, b, c = model
    n_p, n_c = 3, 2
    pred = build_prediction(model, n_p, n_c)
    rng = np.random.default_rng(51)
    for _ in range(50):
        state0 = rng.normal(size=AUG_DIM)
        du = rng.normal(size=(n_c, 6))
        predicted = pred.f @ state0 + pred.phi @ du.reshape(-1)
        state = state0.copy()
        outputs = []
        for k in range(n_p):
            u_k = du[k] if k < n_c else np.zeros(6)
            state = a @ state + b @ u_k
            outputs.append(c @ state)
        np.testing.assert_allclose(predicted, np.concatenate(outputs), atol=1e-12)


def test_prediction_shapes():
    model = build_model(0.009)
    pred = build_prediction(model, 50, 10)
    assert pred.f.shape == (300, 18)
    assert pred.phi.shape == (300, 60)


# ---------------------------------------------------------------------------
# QP assembly


def test_qp_unconstrained_zero_state_zero_target():
    cfg = MpcConfig(n_c=3, n_p=5, sample_time=0.01)
    model = build_model(cfg.sample_time)
    pred = build_prediction(model, cfg.n_p, cfg.n_c)
    qp = build_qp(np.zeros(AUG_DIM), np.zeros(6 * cfg.n_p), pred, cfg,
                  LimitSet.unbounded(), np.zeros(6))
    np.testing.assert_array_equal(qp.f, np.zeros(18))
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.delta_u, np.zeros(18), atol=1e-12)
    assert sol.converged


def test_qp_hessian_symmetric_positive_definite():
    rng = np.random.default_rng(52)
    for _ in range(10):
        q = rng.uniform(0.0, 2.0, size=6)
        r = rng.uniform(0.1, 1.0, size=6)
        cfg = MpcConfig(n_c=4, n_p=8, sample_time=0.02, q_weight=q, r_weight=r)
        pred = build_prediction(build_model(cfg.sample_time), cfg.n_p, cfg.n_c)
        qp = build_qp(rng.normal(size=AUG_DIM), build_setpoint(rng.normal(size=6), cfg.n_p),
                      pred, cfg, LimitSet.unbounded(), rng.normal(size=6))
        np.testing.assert_allclose(qp.e, qp.e.T, atol=1e-12)
        assert np.linalg.eigvalsh(qp.e).min() > 0.0


def test_qp_constraint_rows_tiny_instance():
    # n_c = n_p = 1: every group reduces to a +-identity-patterned pair
    cfg = MpcConfig(n_c=1, n_p=1, sample_time=0.1)
    T = cfg.sample_time
    model = build_model(T)
    pred = build_prediction(model, 1, 1)
    limits = LimitSet(-np.full(6, 1.0), np.full(6, 1.0),
                      -np.full(6, 2.0), np.full(6, 2.0),
                      -np.full(6, 30.0), np.full(6, 30.0))
    state = np.zeros(AUG_DIM)
    state[12:] = 0.25  # current twist
    u_prev = np.full(6, 0.5)
    qp = build_qp(state, build_setpoint(np.zeros(6), 1), pred, cfg, limits, u_prev)
    assert qp.w.shape == (36, 6)
    assert qp.v.shape == (36,)
    eye = np.eye(6)
    # jerk rows: -I then +I, bounds T*jerk
    np.testing.assert_array_equal(qp.w[0:6], -eye)
    np.testing.assert_array_equal(qp.w[6:12], eye)
    np.testing.assert_allclose(qp.v[0:6], np.full(6, 30.0 * T))
    np.testing.assert_allclose(qp.v[6:12], np.full(6, 30.0 * T))
    # acceleration rows: summation matrix is I for n_c = 1, offset by u_prev
    np.testing.assert_array_equal(qp.w[12:18], -eye)
    np.testing.assert_array_equal(qp.w[18:24], eye)
    np.testing.assert_allclose(qp.v[12:18], np.full(6, 2.0 + 0.5))
    np.testing.assert_allclose(qp.v[18:24], np.full(6, 2.0 - 0.5))
    # velocity rows: +-Phi = +-(C B) = +-T*I, offset by the free response
    np.testing.assert_allclose(qp.w[24:30], -T * eye)
    np.testing.assert_allclose(qp.w[30:36], T * eye)
    free = pred.f[:6] @ state
    np.testing.assert_allclose(free, np.full(6, 0.25))
    np.testing.assert_allclose(qp.v[24:30], np.full(6, 1.0 + 0.25))
    np.testing.assert_allclose(qp.v[30:36], np.full(6, 1.0 - 0.25))


def draw_tick(data):
    """A smoother configuration, limits and tick state drawn by hypothesis."""
    n_p = data.draw(st.integers(1, 12), label="n_p")
    n_c = data.draw(st.integers(1, min(n_p, 4)), label="n_c")
    cfg = MpcConfig(n_c=n_c, n_p=n_p, sample_time=0.009,
                    q_weight=data.draw(arrays(float, 6, elements=st.floats(0.0, 5.0))),
                    r_weight=data.draw(arrays(float, 6, elements=st.floats(0.01, 5.0))))
    acc = data.draw(st.floats(0.5, 10.0), label="acc")
    limits = limits_of(vel=data.draw(st.none() | st.floats(0.1, 2.0), label="vel"),
                       acc=acc, jerk=data.draw(st.floats(5.0, 100.0), label="jerk"))
    state = data.draw(arrays(float, AUG_DIM, elements=st.floats(-1.0, 1.0)), label="state")
    u_prev = data.draw(arrays(float, 6, elements=st.floats(-acc, acc)), label="u_prev")
    target = data.draw(arrays(float, 6, elements=st.floats(-2.0, 2.0)), label="target")
    return cfg, limits, state, u_prev, target


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tick_qp_is_the_tracking_qp_of_the_rolled_out_model(data):
    # per axis a, the tick's QP against (F, Phi) from stepping the paper's
    # model: E = q_a Phi^T Phi + r_a I and f = -q_a Phi^T (target_a - F s_a)
    # within 1e-12 of their terms' size (and of the smallest normal number,
    # where the terms underflow); W is the jerk, acceleration and velocity
    # rows +-I, +-tril(1) and +-Phi[:n_c], each -min row before its +max row
    cfg, limits, state, u_prev, target = draw_tick(data)
    n_c, tiny = cfg.n_c, np.finfo(float).tiny
    qp = _tick_qp(TwistSmoother(cfg, limits, UnitDualQuaternion.identity())._laws,
                  state, target, u_prev)
    f_roll, phi = prediction_rollout_oracle(cfg.sample_time, cfg.n_p, n_c)
    paired = [np.stack([-rows, rows], axis=1).reshape(-1, n_c)
              for rows in (np.eye(n_c), np.tril(np.ones((n_c, n_c))), phi[:n_c])]
    assert np.array_equal(qp.w, np.vstack(paired))
    for a, (q, r) in enumerate(zip(cfg.q_weight, cfg.r_weight)):
        s_a = state.reshape(3, N_AXES)[:, a]
        e = q * phi.T @ phi + r * np.eye(n_c)
        e_size = q * np.abs(phi).T @ np.abs(phi) + r * np.eye(n_c)
        assert np.all(np.abs(qp.e[a] - e) <= 1e-12 * e_size + tiny)
        gap = target[a] - f_roll @ s_a
        f = -q * phi.T @ gap
        f_size = q * np.abs(phi).T @ (abs(target[a]) + np.abs(f_roll) @ np.abs(s_a))
        assert np.all(np.abs(qp.f[a] - f) <= 1e-12 * f_size + tiny)


def no_law_holds(laws, theta, test, todo, *rest):
    """An injected failure of mpc._on_laws: every problem it gets is left
    to the interior point."""
    return set()


def step_and_dense_qp(cfg, limits, state, u_prev, target):
    """The smoother's step from `state` and the dense build_qp of the same tick."""
    smoother = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    smoother.state = SmootherState(state.copy(), u_prev.copy(), smoother.pose)
    pred = build_prediction(build_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    qp = build_qp(state, build_setpoint(target, cfg.n_p), pred, cfg, limits, u_prev)
    return smoother.step(target), qp


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_smoother_step_solves_build_qp(data):
    # the smoother solves the six axis slices of the public build_qp
    # (rows 6r + a, columns 6j + a), bit for bit, where both reach the
    # interior point: here no law holds a problem
    tick = draw_tick(data)
    with mock.patch.object(mpc, "_on_laws", no_law_holds):
        step, qp = step_and_dense_qp(*tick)
    expected = [solve_qp(axis_slice(qp, a)).delta_u[0] for a in range(6)]
    assert np.array_equal(step.delta_u, expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_axis_step_agrees_with_dense_solve(data):
    # the six per-axis problems are the dense QP split exactly; where both
    # solves converge they land on the same optimum
    step, qp = step_and_dense_qp(*draw_tick(data))
    dense = solve_qp(qp)
    if step.converged and dense.converged:
        np.testing.assert_allclose(step.delta_u, dense.delta_u[:6], rtol=0, atol=1e-7)


@pytest.mark.parametrize("n_p, n_c, q, r, acc, jerk, state, u_prev, target", [
    # a stop on the mean complementarity alone left z ~ mu/s on a near-active
    # row, and the dense solve landed 3.8e-5 away from the per-axis one
    pytest.param(1, 1, (2.5, 3, 0, 0, 0, 0), np.ones(6), 1.0, 5.0, 1.0, 0.0, 0.0,
                 id="near-active-row"),
    # a feasible dense tick drove z/s to 1e19 and the reduced matrix singular
    pytest.param(11, 4, np.full(6, 3.0), (3.5, 1, 1, 1, 1, 1), 2.0, 65.0, 0.75, 0.0, 1.0,
                 id="singular-reduced-matrix"),
    # residuals measured against one scale per problem let the dense solve
    # stop on axis wz's terms and land 1.1e-7 away on the flat axis wx
    pytest.param(1, 1, (0, 0, 3.75, 0, 0, 0), (1 / 64, 2, 1 / 64, 1 / 64, 1 / 64, 1 / 64), 0.75,
                 5.0, 1.0, (0.625, 0, 0, 0, 0, 0), -2.0, id="flat-axis-next-to-steep"),
])
def test_per_axis_step_agrees_with_dense_solve_on_solver_traps(n_p, n_c, q, r, acc, jerk,
                                                              state, u_prev, target):
    cfg = MpcConfig(n_c=n_c, n_p=n_p, sample_time=0.009, q_weight=np.array(q, float),
                    r_weight=np.array(r, float))
    step, qp = step_and_dense_qp(cfg, limits_of(acc=acc, jerk=jerk), np.full(AUG_DIM, state),
                                 np.broadcast_to(np.asarray(u_prev, float), 6).copy(),
                                 np.full(6, target))
    dense = solve_qp(qp)
    assert step.converged and dense.converged
    np.testing.assert_allclose(step.delta_u, dense.delta_u[:6], rtol=0, atol=1e-7)


def shifted_rows(working: np.ndarray, n_c: int) -> np.ndarray:
    """Each axis's rows one step further along the horizon: rows run group x
    step x sign, and the last step keeps its own."""
    rows = working.reshape(N_AXES, 3, n_c, 2)
    return np.concatenate([rows[:, :, 1:], rows[:, :, -1:]], axis=2).reshape(N_AXES, -1)


def scalar_tick_parts(cfg, limits):
    """F_s, q_a Phi_s^T and V at rest of a smoother's per-axis QPs, from the
    public prediction and the limits: rows run group (jerk, acceleration,
    velocity) x step x sign, the -min row before the +max row."""
    pred = build_prediction(build_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    f_s, phi_s = pred.f[::N_AXES, ::N_AXES], pred.phi[::N_AXES, ::N_AXES]
    T = cfg.sample_time
    lo = np.repeat([T * limits.jerk_min, limits.acc_min, limits.vel_min], cfg.n_c, axis=0)
    hi = np.repeat([T * limits.jerk_max, limits.acc_max, limits.vel_max], cfg.n_c, axis=0)
    v_zero = np.stack([-lo, hi], axis=1).reshape(-1, N_AXES).T
    return f_s, cfg.q_weight[:, None, None] * phi_s.T, v_zero


def tick_sizes(cfg, limits, state, target, u_prev):
    """The size of the terms that sum to each entry of a tick's f and V (see
    tick_vectors_oracle), 0 on a row with an infinite bound."""
    f_s, phi_t_q, v_zero = scalar_tick_parts(cfg, limits)
    free = np.abs(f_s) @ np.abs(state.reshape(-1, N_AXES))
    f = (np.abs(phi_t_q) @ (np.abs(target) + free).T[:, :, None])[:, :, 0]
    offset = np.vstack([np.zeros((cfg.n_c, N_AXES)), np.tile(np.abs(u_prev), (cfg.n_c, 1)),
                        free[:cfg.n_c]])
    v = np.where(np.isfinite(v_zero), np.abs(v_zero), 0.0)
    return f, v + np.repeat(offset, 2, axis=0).T


def equality_solve(qp, axis: int, rows, f_size, v_size):
    """Axis `axis`'s QP of a tick with `rows` held as equalities, by the Schur
    complement on the tick's own f and V: x, the multipliers of all rows and
    the slack V - W x (0 on rows with an infinite bound), and beside each the
    size of the terms it sums, from those of f and V, with |S^-1| carrying
    the conditioning."""
    e_inv, w, v = np.linalg.inv(qp.e[axis]), qp.w, qp.v[axis]
    w_a, finite = w[rows], np.isfinite(v)
    x_free = -e_inv @ qp.f[axis]
    g = e_inv @ w_a.T
    schur = w_a @ g
    lam_a = np.linalg.solve(schur, w_a @ x_free - v[rows])
    x = x_free - g @ lam_a
    x_free_size = np.abs(e_inv) @ f_size
    lam, lam_size = np.zeros(len(v)), np.zeros(len(v))
    lam[rows] = lam_a
    lam_size[rows] = np.abs(np.linalg.inv(schur)) @ (
        np.abs(schur) @ np.abs(lam_a) + np.abs(w_a) @ x_free_size + v_size[rows])
    x_size = x_free_size + np.abs(g) @ lam_size[rows]
    slack = np.where(finite, v - w @ x, 0.0)
    slack_size = np.where(finite, v_size + np.abs(w) @ x_size, 0.0)
    return np.concatenate([x, lam, slack]), np.concatenate([x_size, lam_size, slack_size])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_law_is_the_equality_constrained_solve(data):
    # the smoother's law of a set, evaluated at the tick's theta, is x and
    # the set's multipliers (in row order, then 0) of the bare
    # equality-constrained solve on the tick's f and V, and V - W x its
    # slack, within 1e-12 of each term's size, for the set the cold solve
    # ends with and for its shift.  A set of more than n rows or with
    # dependent rows has no candidate: its law is NaN, which no screen passes
    cfg, limits, state, u_prev, target = draw_tick(data)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    qp = _tick_qp(sm._laws, state, target, u_prev)
    laws, n = sm._laws, cfg.n_c
    f_size, v_size = tick_sizes(cfg, limits, state, target, u_prev)
    cold = solve_qp(qp).lam > 0.0
    for working in (cold, shifted_rows(cold, n)):
        for axis in np.flatnonzero(working.any(axis=1)):
            rows = np.flatnonzero(working[axis])
            law = laws.of(np.array([axis]), working[axis][None])[0]
            assert law.shape == (2 * n, 6)
            if np.linalg.matrix_rank(qp.w[rows]) < len(rows):
                assert np.isnan(law).all()
                continue
            expected, size = equality_solve(qp, axis, rows, f_size[axis], v_size[axis])
            x_lam = law @ qp.theta[axis]
            assert np.all(x_lam[n + len(rows):] == 0.0)
            x, lam = x_lam[:n], np.zeros(6 * n)
            lam[rows] = x_lam[n:n + len(rows)]
            slack = np.where(np.isfinite(qp.v[axis]), qp.v[axis] - qp.w @ x, 0.0)
            assert np.all(np.abs(np.concatenate([x, lam, slack]) - expected) <= 1e-12 * size)
    jerk_rows = rows_of(6 * n, range(2 * n))  # every jerk row is finite
    for dependent in (jerk_rows & (np.arange(6 * n) <= n), rows_of(6 * n, [0, 1])):
        assert np.isnan(laws.of(np.arange(N_AXES), np.tile(dependent, (N_AXES, 1)))).all()


def test_dependent_rows_have_no_law_and_no_warning():
    # a tracking weight of 3.1e-291 on axis wx: the Schur complement of these
    # dependent jerk rows solved to inf, and the law's products warned
    q_weight = np.zeros(6)
    q_weight[0] = float.fromhex("0x1.f16416f930652p-966")
    cfg = MpcConfig(n_c=3, n_p=3, q_weight=q_weight, r_weight=np.full(6, 4.5))
    laws = TwistSmoother(cfg, limits_of(acc=1.0, jerk=5.0), UnitDualQuaternion.identity())._laws
    for rows in ([0, 1, 2, 3], [0, 1]):
        assert np.isnan(laws.of(np.arange(N_AXES), np.tile(rows_of(18, rows), (N_AXES, 1)))).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shift=st.booleans())
def test_carried_working_set_gives_the_cold_step(data, shift):
    # a smoother that carries the working set of the tick's cold solve (or
    # that set shifted one step) lands where the cold step does
    cfg, limits, state, u_prev, target = draw_tick(data)
    cold = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    cold.state = SmootherState(state.copy(), u_prev.copy(), cold.pose)
    cold_step = cold.step(target)
    working = cold.state.working_set  # the rows the cold solve ended with lam > 0
    assert working.shape == (N_AXES, 6 * cfg.n_c)
    warm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    warm.state = SmootherState(state.copy(), u_prev.copy(), warm.pose,
                               shifted_rows(working, cfg.n_c) if shift else working)
    warm_step = warm.step(target)
    assert warm_step.converged == cold_step.converged
    np.testing.assert_allclose(warm_step.delta_u, cold_step.delta_u, rtol=0, atol=1e-7)


def test_smoother_carries_the_working_set_between_ticks():
    # from rest nothing is carried: the tick walks from the empty set.  Each
    # tick leaves the rows that ended with a positive multiplier, the next
    # tries them and their shift, and a replaced state walks from the empty
    # set again.  None of these ticks reaches the interior point
    solves, solve = [], mpc.solve_qp

    def recorded(qp, *, working_sets):
        solves.append([np.array(mask) for mask in working_sets])
        return solve(qp, working_sets=working_sets)

    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    assert not sm.state.working_set.any()
    with mock.patch.object(mpc, "solve_qp", recorded):
        first = sm.step(np.full(6, 1.0))
        assert first.converged and first.iterations == 0
        assert sm.state.working_set.sum() == first.active_count > 0
        carried = sm.state.working_set.copy()
        second = sm.step(np.full(6, 1.0))
        assert second.converged and second.iterations == 0 and second.active_count > 0
        sm.state = SmootherState(sm.state.augmented, sm.state.u_prev, sm.pose)
        assert not sm.state.working_set.any()
        third = sm.step(np.full(6, 1.0))
        assert third.converged and third.iterations == 0
    empty = np.zeros((N_AXES, 6 * sm.cfg.n_c), dtype=bool)
    assert [len(sets) for sets in solves] == [1, 2, 1]
    assert same_bits(solves[0][0], empty) and same_bits(solves[2][0], empty)
    assert same_bits(solves[1][0], carried)
    assert same_bits(solves[1][1], shifted_rows(carried, sm.cfg.n_c))


def test_unconverged_axis_carries_no_working_set():
    # the conflicting limits of test_step_bounded_on_conflicting_limits: at a
    # reference of 3 the first three axes' QPs cannot be met from tick 34 on,
    # with z > s on far more than n rows when the interior point stops, while
    # the other three axes, at 0.9, still converge with rows active.  An axis
    # whose solve did not converge leaves no working set; the others keep theirs.
    cfg, limits = MpcConfig(), limits_of(vel=1.0, acc=10.0, jerk=20.0)
    shape = (6, 6 * cfg.n_c)  # per axis: jerk, acceleration and velocity row pairs
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    for tick in range(35):
        res = sm.step(np.array([3.0, 3.0, 3.0, 0.9, 0.9, 0.9]))
        assert res.converged == (tick < 34)
    working = sm.state.working_set
    assert working.shape == shape
    assert not working[:3].any() and working[3:].any()
    assert res.active_count > working.sum() + 3 * cfg.n_c
    # every axis unconverged: the set is empty, and keeps its shape
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    for _ in range(35):
        res = sm.step(np.full(6, 3.0))
    assert not res.converged and res.active_count > 0
    assert sm.state.working_set.shape == shape and not sm.state.working_set.any()


def test_an_axis_left_unsolved_goes_straight_to_the_interior_point():
    # the conflicting limits above: tick 34 leaves the first three axes
    # unsolved, and the next tick's laws would most likely fail on them
    # again, so they skip their sets and walks; the other three still try
    # theirs.  A replaced state marks no axis
    cfg, limits = MpcConfig(), limits_of(vel=1.0, acc=10.0, jerk=20.0)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    target = np.array([3.0, 3.0, 3.0, 0.9, 0.9, 0.9])
    for _ in range(35):
        sm.step(target)
    assert same_bits(sm.state.unsolved, np.arange(N_AXES) < 3)
    tried, on_laws = [], mpc._on_laws

    def recorded(laws, theta, test, todo, *rest):
        tried.extend(todo.tolist())
        return on_laws(laws, theta, test, todo, *rest)

    with mock.patch.object(mpc, "_on_laws", recorded):
        step = sm.step(target)
    assert not step.converged and step.iterations > 0 and min(tried, default=3) >= 3
    sm.state = SmootherState(sm.state.augmented, sm.state.u_prev, sm.pose)
    assert sm.state.unsolved is None


def tick_vectors_oracle(cfg, limits, state, target, u_prev):
    """f and V of a tick from the stacked setpoint and the paired row offsets:
    the jerk rows' offsets are +0 and -0."""
    f_s, phi_t_q, v_zero = scalar_tick_parts(cfg, limits)
    free = f_s @ state.reshape(-1, N_AXES)
    setpoint = build_setpoint(target, cfg.n_p).reshape(-1, N_AXES)
    f = -(phi_t_q @ (setpoint - free).T[:, :, None])[:, :, 0]
    offset = np.vstack([np.zeros((cfg.n_c, N_AXES)), np.tile(u_prev, (cfg.n_c, 1)),
                        free[:cfg.n_c]])
    paired = np.stack([offset, -offset], axis=1).reshape(-1, N_AXES)
    return f, v_zero + paired.T


def assert_steps_are_the_generic_solve(cfg, limits, holds):
    """The checks of test_step_is_the_generic_solve_bit_for_bit on a smoother
    of cfg and limits stepped toward each target of holds for its hold."""
    n_c = cfg.n_c
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    solves = []
    solve = mpc.solve_qp

    def recorded(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    for target, hold in holds:
        for _ in range(hold):
            state, u_prev = sm.state.augmented.copy(), sm.state.u_prev.copy()
            working = sm.state.working_set
            guesses = ((working, shifted_rows(working, n_c)) if working.any()
                       else (np.zeros((N_AXES, 6 * n_c), dtype=bool),))
            qp = _tick_qp(sm._laws, state, target, u_prev)
            f, v = tick_vectors_oracle(cfg, limits, state, target, u_prev)
            f_size, _ = tick_sizes(cfg, limits, state, target, u_prev)
            assert same_bits(qp.v, v)
            assert qp.f.shape == f.shape
            assert np.all(np.abs(qp.f - f) <= 1e-12 * f_size + np.finfo(float).tiny)
            bare = QpProblem(qp.e, qp.f, qp.w, qp.v)
            fresh = _Laws(bare.e, bare.w, bare.f[..., None], bare.v[..., None],
                          np.isfinite(bare.v))
            assert all(np.array_equal(getattr(sm._laws, name), getattr(fresh, name)) for name in
                       ("e", "w", "finite", "e_inv", "e_abs", "scale", "rows", "w_unit",
                        "w_unit_abs"))
            x_free = -fresh.e_inv @ bare.f[:, :, None]
            tick = (bare.f[:, :, None], bare.v[:, :, None], x_free)
            ours, theirs = _StopTest.of(sm._laws, *tick), _StopTest.of(fresh, *tick)
            assert all(np.array_equal(getattr(ours, name), getattr(theirs, name))
                       for name in _StopTest.FIELDS)
            # where no law holds a problem, the interior point solves it as
            # it solves the bare problem cold, bit for bit
            with mock.patch.object(mpc, "_on_laws", no_law_holds):
                ipm = solve_qp(qp, working_sets=guesses)
            cold = solve_qp(bare)
            assert all(same_bits(getattr(ipm, name), getattr(cold, name)) for name in
                       ("delta_u", "lam", "iterations", "solved", "max_violation"))

            expected = solve_qp(bare, working_sets=guesses)
            cold = sm.state.unsolved
            if cold is not None:  # an axis the last tick left unsolved skips its sets
                alone = [solve_qp(QpProblem(bare.e[a], bare.f[a], bare.w, bare.v[a]),
                                  working_sets=() if cold[a] else [g[a] for g in guesses])
                         for a in range(N_AXES)]
                expected = mpc.QpSolution(
                    np.array([one.delta_u for one in alone]), np.array([one.lam for one in alone]),
                    max(one.iterations for one in alone), np.array([one.solved for one in alone]),
                    max(one.max_violation for one in alone))
            # a free tick (no row broken at x_free) forms no QP: its step is
            # the bare solve's, bit for bit
            free = ((bare.w @ x_free)[..., 0] - bare.v <= 1e-12).all()
            before = len(solves)
            with mock.patch.object(mpc, "solve_qp", recorded):
                step = sm.step(target)
            assert len(solves) == before + (not free)
            sol = expected if free else solves[-1]
            assert (step.iterations, step.converged, step.active_count, step.max_violation) == (
                sol.iterations, sol.converged, sol.active_count, sol.max_violation)
            assert same_bits(sol.solved, expected.solved)
            assert sol.iterations == expected.iterations
            assert same_bits(sm.state.working_set, (sol.lam > 0.0) & sol.solved[:, None])
            np.testing.assert_allclose(sol.delta_u, expected.delta_u, rtol=0, atol=1e-9)
            assert sol.max_violation == pytest.approx(expected.max_violation, rel=0, abs=1e-9)
            assert same_bits(step.delta_u, sol.delta_u[:, 0])


def generic_solve_case(data):
    """A configuration, limits and targets with their holds for a smoother:
    QP-active sequences with infinite velocity rows, a zero jerk bound on
    some axes (signed zeros in V) and n_c = 1 included."""
    n_c = data.draw(st.integers(1, 4), label="n_c")
    n_p = data.draw(st.integers(n_c, n_c + 6), label="n_p")
    cfg = MpcConfig(n_c=n_c, n_p=n_p, sample_time=0.009,
                    q_weight=data.draw(arrays(float, 6, elements=st.floats(0.1, 5.0))),
                    r_weight=data.draw(arrays(float, 6, elements=st.floats(0.01, 1.0))))
    vel = data.draw(st.none() | st.floats(0.2, 2.0), label="vel")
    acc = data.draw(st.floats(0.5, 3.0), label="acc")
    jerk = data.draw(st.floats(5.0, 60.0), label="jerk")
    zero_jerk_min = data.draw(arrays(bool, 6), label="zero_jerk_min")
    limits = limits_of(vel=vel, acc=acc, jerk=jerk)
    limits = dataclasses.replace(limits, jerk_min=np.where(zero_jerk_min, 0.0, -jerk))
    holds = data.draw(st.lists(st.tuples(arrays(float, 6, elements=st.floats(-2.0, 2.0)),
                                         st.integers(1, 4)), min_size=1, max_size=4),
                      label="targets")
    return cfg, limits, holds


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_step_is_the_generic_solve_bit_for_bit(data):
    # a tick's V is the paired-offset oracle's bit for bit (signed zeros
    # included) and its f within 1e-12 of its terms' size (and of the
    # smallest normal number, where the terms underflow).  A step solves its
    # tick on the _Laws built once per smoother; the public solve_qp of
    # the same tick as a bare QpProblem, which builds its own on the call,
    # gives the same bits where both reach the interior point.  The step
    # tries the carried and the shifted working set (the empty set where
    # none is carried) and walks from them on the smoother's laws evaluated
    # at its theta, the bare problem on its own laws at theta = [1]: the
    # same verdicts and iterations, and points within 1e-9 of each other (at
    # a degenerate vertex the two may hold different rows, with the same
    # point)
    assert_steps_are_the_generic_solve(*generic_solve_case(data))


def eager_stop_test(*args, _of=_StopTest.of):
    """_StopTest.of with its scales formed at once and read by every
    verdict, as a test that is not bounded reads them."""
    test = _of(*args)
    _ = test.dual, test.multiplier
    test.bounded = False
    return test


def assert_lazy_steps_as_eager(cfg, limits, targets, pair=None):
    """A smoother stepped toward each of targets and its twin stepped with
    eager_stop_test give the same StepResult and SmootherState, bit for bit;
    returns the two (new ones, or those of `pair`)."""
    lazy, eager = pair or [TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
                           for _ in range(2)]
    for target in targets:
        step = lazy.step(target)
        with mock.patch.object(_StopTest, "of", eager_stop_test):
            twin = eager.step(target)
        for name in ("twist", "delta_u", "iterations", "converged", "active_count",
                     "max_violation"):
            assert same_bits(getattr(step, name), getattr(twin, name)), name
        assert same_bits(step.pose.vec8(), twin.pose.vec8())
        for name in ("augmented", "u_prev", "working_set"):
            assert same_bits(getattr(lazy.state, name), getattr(eager.state, name)), name
        assert same_bits(lazy.state.pose.vec8(), eager.state.pose.vec8())
        a, b = lazy.state.unsolved, eager.state.unsolved
        assert (a is None and b is None) or same_bits(a, b)
    return lazy, eager


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lazy_scales_step_as_eager_ones_bit_for_bit(data):
    # the stop test forms its scales on first read and reads them only
    # where a verdict depends on them: a step takes the same verdicts,
    # points and multipliers as one whose test formed them at once
    cfg, limits, holds = generic_solve_case(data)
    assert_lazy_steps_as_eager(cfg, limits, [t for t, hold in holds for _ in range(hold)])


def test_lazy_scales_step_as_eager_ones_on_recorded_walks():
    # smooth-tight seed 1: episode 0 up to tick 37, whose walk takes 21
    # rounds, and episode 1 up to tick 147, the dependent swap of
    # test_a_row_that_depends_on_fewer_than_n_working_rows_swaps_in (26
    # rounds); a walk reads the scales
    limits, rounds, of = limits_of(acc=1.0, jerk=50.0), [], mpc._Laws.of
    with mock.patch.object(mpc._Laws, "of", lambda *args: rounds.append(1) or of(*args)):
        for episode, ticks, walk in ((0, 38, 21), (1, 148, 26)):
            refs = smooth_tight_references([1, episode], ticks)
            pair = assert_lazy_steps_as_eager(MpcConfig(), limits, refs[:-1])
            rounds.clear()
            assert_lazy_steps_as_eager(MpcConfig(), limits, refs[-1:], pair)
            assert len(rounds) == 2 * walk  # the lazy smoother's and its twin's


@pytest.mark.parametrize("limits", [limits_of(acc=1.0, jerk=20.0),
                                    limits_of(vel=1.0, acc=10.0, jerk=20.0)])
@pytest.mark.parametrize("huge", [3e9, 1e100, 1e150])
def test_lazy_scales_step_as_eager_ones_on_large_targets(limits, huge):
    # targets whose ticks end unconverged (the strict xfail on large
    # targets below), with scales up to beyond 1e150, still bounded: walks
    # that reach the interior point
    assert_lazy_steps_as_eager(MpcConfig(), limits,
                               [np.full(6, 0.3), np.full(6, huge), np.full(6, huge)])


def test_step_is_the_generic_solve_at_a_degenerate_vertex():
    # a draw of the test above: on the 7th tick axis vy's carried and
    # shifted sets both fail, at a vertex with du_3 = 0 whose x_3 rounds to
    # -1.7e-17 on the smoother's laws and +2.4e-17 on the bare problem's; a
    # screen and a walk with exact-sign choices took different paths there
    # (one of them to the interior point)
    cfg = MpcConfig(n_c=4, n_p=4, q_weight=np.full(6, 3.84375),
                    r_weight=np.array([1.0, 1.0, 1.0, 1.0, 0.875, 1.0]))
    limits = dataclasses.replace(limits_of(acc=2.0, jerk=33.5), jerk_min=np.zeros(6))
    vy = np.zeros(6)
    vy[4] = 1.0
    assert_steps_are_the_generic_solve(cfg, limits, [(1.625 * vy, 4), (0.84375 * vy, 2),
                                                     (np.full(6, 0.8125), 1)])


def test_step_calls_solve_qp_and_exp_once(monkeypatch):
    # perfbench/tracing.py times the QP and the pose update by wrapping the
    # module-level names mpc.solve_qp and mpc.exp: a tick with a broken row
    # calls solve_qp once and a free tick never, and every tick calls exp
    # once; a step routed around them would read 0 in the per-layer mpc metrics
    counts = dict.fromkeys(("solve_qp", "exp"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(mpc, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mpc, name, counted)
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    # at rest (free), a broken tick walking from the empty set, then one on the carried set
    for tick, (target, solves) in enumerate(((0.0, 0), (1.0, 1), (1.0, 2)), start=1):
        step = sm.step(np.full(6, target))
        assert counts == {"solve_qp": solves, "exp": tick}
        assert (step.active_count > 0) == (tick > 1)
    assert sm.state.working_set.any()


def free_tick_limits(data, cfg, state, u_prev, target) -> LimitSet:
    """Limits under which the tick's optimum x_free breaks no row: each
    group's bounds are its rows' extreme values at x_free (widened to
    bracket zero), some of them exactly, the rest loosened; velocity may be
    unbounded.  x_free does not depend on the limits."""
    laws = TwistSmoother(cfg, LimitSet.unbounded(), UnitDualQuaternion.identity())._laws
    du = _tick_qp(laws, state, target, u_prev).x  # (6, n_c)
    f_mat, phi = _scalar_prediction(_scalar_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    values = {"jerk": du / cfg.sample_time, "acc": u_prev[:, None] + np.cumsum(du, axis=1),
              "vel": (f_mat[:cfg.n_c] @ state.reshape(3, N_AXES)).T + du @ phi[:cfg.n_c].T}
    bounds = {}
    for name, value in values.items():
        fit = data.draw(st.sampled_from(["at", "loose"] + ["unbounded"] * (name == "vel")),
                        label=name)
        lo, hi = np.minimum(value.min(axis=1), 0.0), np.maximum(value.max(axis=1), 0.0)
        hi = np.where(lo == hi, 1.0, hi)
        if fit == "loose":
            widen = data.draw(st.floats(1.0, 3.0), label=f"{name} widened")
            lo, hi = widen * lo, widen * hi
        bounds[name] = (-INF6, INF6) if fit == "unbounded" else (lo, hi)
    return LimitSet(*bounds["vel"], *bounds["acc"], *bounds["jerk"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_free_tick_steps_as_its_solve_qp_bit_for_bit(data):
    # a tick whose optimum breaks no row (some rows at their bound to the
    # last bits) forms no QP, yet its StepResult and the five SmootherState
    # fields it writes are those of solve_qp on the same tick with the
    # step's working-set guesses, followed by the step's state update, bit
    # for bit, whatever working set and unsolved axes it carried in
    n_p = data.draw(st.integers(1, 12), label="n_p")
    n_c = data.draw(st.integers(1, min(n_p, 4)), label="n_c")
    cfg = MpcConfig(n_c=n_c, n_p=n_p, sample_time=0.009,
                    q_weight=data.draw(arrays(float, 6, elements=st.floats(0.0, 5.0))),
                    r_weight=data.draw(arrays(float, 6, elements=st.floats(0.01, 5.0))))
    state = data.draw(arrays(float, AUG_DIM, elements=st.floats(-1.0, 1.0)), label="state")
    u_prev = data.draw(arrays(float, 6, elements=st.floats(-2.0, 2.0)), label="u_prev")
    target = data.draw(arrays(float, 6, elements=st.floats(-2.0, 2.0)), label="target")
    limits = free_tick_limits(data, cfg, state, u_prev, target)
    pose = exp(PureDualQuaternion.from_vec6(data.draw(
        arrays(float, 6, elements=st.floats(-1.0, 1.0)), label="pose")))
    carried = data.draw(st.just(np.zeros((N_AXES, 0), dtype=bool))
                        | arrays(bool, (N_AXES, 6 * n_c)), label="working set")
    unsolved = data.draw(st.none() | arrays(bool, N_AXES), label="unsolved")
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    sm.state = SmootherState(state.copy(), u_prev.copy(), pose, carried.copy())
    sm.state.unsolved = unsolved

    qp = _tick_qp(sm._laws, state, target, u_prev, unsolved)
    assert (qp.residual <= 1e-12).all()
    guesses = ((carried, shifted_rows(carried, n_c)) if carried.any()
               else (np.zeros((N_AXES, 6 * n_c), dtype=bool),))
    sol = solve_qp(qp, working_sets=guesses)
    a, b, _ = _scalar_model(cfg.sample_time)
    du = sol.delta_u[:, 0]
    augmented = (a @ state.reshape(-1, N_AXES) + b @ du[None]).ravel()
    twist = augmented[-N_AXES:]
    moved = (exp(PureDualQuaternion.from_vec6(twist * (0.5 * cfg.sample_time))) * pose).normalized()

    step = sm.step(target)
    assert all(same_bits(x, y) for x, y in (
        (step.twist, twist), (step.pose.vec8(), moved.vec8()), (step.delta_u, du),
        (step.iterations, sol.iterations), (step.converged, sol.converged),
        (step.active_count, sol.active_count), (step.max_violation, sol.max_violation)))
    assert sol.iterations == 0 and sol.converged and sol.active_count == 0
    after = sm.state
    assert same_bits(after.augmented, augmented) and same_bits(after.u_prev, u_prev + du)
    assert same_bits(after.pose.vec8(), moved.vec8())
    assert same_bits(after.working_set, (sol.lam > 0.0) & sol.solved[:, None])
    assert after.unsolved is None


def test_a_free_tick_forms_no_qp(monkeypatch):
    # under the packaged limits the smoother's QP never activates: each tick
    # calls neither solve_qp nor the stop test nor the interior point, and
    # mpc.exp (which perfbench/tracing.py counts) once
    calls = []
    for owner, name in ((mpc, "solve_qp"), (mpc._StopTest, "of"), (mpc, "_interior_point"),
                        (mpc, "exp")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = load_config(None)
    sm = TwistSmoother(cfg.mpc, cfg.limits, UnitDualQuaternion.identity())
    for target in (np.zeros(6), np.full(6, 0.1), np.array([0.3, -0.2, 0.1, 0.05, 0.0, -0.1])):
        calls.clear()
        step = sm.step(target)
        assert calls == ["exp"]
        assert step.converged and step.iterations == 0 and step.active_count == 0
        assert not sm.state.working_set.any() and sm.state.unsolved is None


def counted_scales(monkeypatch) -> list:
    """Patch the stop test's scales to record each one's name as it is formed."""
    formed = []
    for name in ("dual", "multiplier"):
        def counted(test, _name=name, _form=getattr(_StopTest, name).func):
            formed.append(_name)
            return _form(test)
        scale = functools.cached_property(counted)
        scale.__set_name__(_StopTest, name)
        monkeypatch.setattr(_StopTest, name, scale)
    return formed


def test_a_tick_held_in_one_round_forms_no_scales(monkeypatch):
    # smooth-tight seed 1, episode 0: the stop test's stationarity and
    # multiplier scales are formed on first read.  A tick that its carried
    # or shifted set settles in one round forms neither; a tick that walks
    # forms each once, in its one solve_qp call
    formed, rounds, solves = counted_scales(monkeypatch), [], []
    of, solve = mpc._Laws.of, mpc.solve_qp
    monkeypatch.setattr(mpc._Laws, "of", lambda *args: rounds.append(1) or of(*args))
    monkeypatch.setattr(mpc, "solve_qp", lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    held = walked = 0
    for ref in smooth_tight_references([1, 0]):
        for calls in (formed, rounds, solves):
            calls.clear()
        step = sm.step(ref)
        assert step.converged and step.iterations == 0
        if len(rounds) == 1:
            held += 1
            assert formed == []
        elif rounds:
            walked += 1
            assert sorted(formed) == ["dual", "multiplier"] and len(solves) == 1
    assert (held, walked) == (185, 15)


def pose_or_fault(update):
    """vec8 of the pose `update` returns, or the type of the error it raises."""
    try:
        return update().vec8()
    except (ValueError, OverflowError) as err:
        return type(err)


def half_step_twists():
    """Twists whose half-angle is below 1e-8 (exp's first-order branch, up to
    large translations), moderate ones and large finite ones, some of which
    exp or the product cannot keep unit."""
    def twist(angular, linear):
        return st.tuples(arrays(float, 3, elements=angular),
                         arrays(float, 3, elements=linear)).map(np.concatenate)
    return (twist(st.floats(-5e-9, 5e-9), st.floats(-1e16, 1e16))
            | twist(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
            | twist(st.floats(-1e6, 1e6), st.floats(-1e12, 1e12))
            | twist(st.floats(-1e200, 1e200), st.floats(-1e200, 1e200)))


@settings(max_examples=300, deadline=None)
@given(h=half_step_twists(), pose=arrays(float, 6, elements=st.floats(-3.0, 3.0)),
       turns=st.integers(0, 3))
def test_pose_update_is_the_object_algebra_bit_for_bit(h, pose, turns):
    # the step's pose update, the product with the carried pose and the
    # renormalization on floats, is (exp(h) * pose).normalized() bit for
    # bit, and raises where it raises; the carried pose is the exp of a
    # twist, squared and renormalized up to three times
    x = exp(PureDualQuaternion.from_vec6(pose))
    for _ in range(turns):
        x = (x * x).normalized()
    g = PureDualQuaternion.from_vec6(h)
    expected = pose_or_fault(lambda: (exp(g) * x).normalized())
    moved = pose_or_fault(lambda: mpc._moved(exp(g), x))
    if isinstance(expected, type):
        assert moved is expected
    else:
        assert same_bits(moved, expected)


def assert_unmoved_by(fault, error, match, sm, twin, target):
    """`fault` makes sm's step raise `error`; sm's state then holds the bits
    it held before, and its next step toward `target` is its twin's."""
    names = ("augmented", "u_prev", "working_set")
    before = [getattr(sm.state, name).copy() for name in names] + [sm.pose.vec8()]
    with pytest.raises(error, match=match):
        fault()
    after = [getattr(sm.state, name) for name in names] + [sm.pose.vec8()]
    assert all(same_bits(a, b) for a, b in zip(after, before))
    step, twin_step = sm.step(target), twin.step(target)
    for name in ("twist", "delta_u"):
        assert same_bits(getattr(step, name), getattr(twin_step, name)), name
    assert same_bits(step.pose.vec8(), twin_step.pose.vec8())
    assert same_bits(sm.state.working_set, twin.state.working_set)


def test_solve_qp_takes_the_working_sets_by_keyword_only():
    qp = QpProblem(np.eye(2), np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(TypeError):
        solve_qp(qp, np.eye(2))
    assert solve_qp(qp, working_sets=[np.array([True])]).converged


TWO = np.array([-2.0, -1.0])
STACKED_E, STACKED_F = np.tile(np.eye(2), (3, 1, 1)), np.tile(TWO, (3, 1))


@pytest.mark.parametrize("qp, name, expected, given", [
    (QpProblem(np.eye(2), TWO, np.array([[1.0, 0.0]]), np.ones(2)), "v", (1,), (2,)),
    (QpProblem(np.eye(2), STACKED_F, np.eye(2), np.ones((3, 2))), "e", (3, 2, 2), (2, 2)),
    (QpProblem(np.eye(2), TWO, np.eye(2), np.ones(1)), "v", (2,), (1,)),
    (QpProblem(STACKED_E, STACKED_F, np.eye(2), np.ones(2)), "v", (3, 2), (2,)),
    (QpProblem(np.eye(3), TWO, np.eye(2), np.ones(2)), "e", (2, 2), (3, 3)),
], ids=["v-wider-than-w", "flat-e-under-a-stack", "v-narrower-than-w", "flat-v-under-a-stack",
        "e-of-another-n"])
def test_solve_qp_rejects_shapes_that_disagree(qp, name, expected, given):
    # every case has a row x = -E^-1 f breaks, so a solve would reach the
    # interior point: the shapes are checked before it
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape {expected}")) as err:
        solve_qp(qp)
    assert f"got {given}" in str(err.value)


@pytest.mark.parametrize("qp, sets, expected, given", [
    (QpProblem(np.eye(2), TWO, np.eye(2), np.ones(2)),
     [np.array([True, True, False, False])], (2,), (4,)),
    (QpProblem(np.eye(2), TWO, np.eye(2), np.ones(2)),
     [np.array([True, False]), np.array([True, False, True])], (2,), (3,)),
    (QpProblem(STACKED_E, STACKED_F, np.eye(2), np.ones((3, 2))),
     [np.array([True, False])], (3, 2), (2,)),
], ids=["two-sets-in-one-mask", "three-entry-mask", "flat-mask-under-a-stack"])
def test_solve_qp_rejects_working_sets_not_shaped_like_v(qp, sets, expected, given):
    # x = -E^-1 f breaks row 1, so the sets would be tried: a mask twice as
    # wide as v must not be read as two sets, nor a 3-entry one fail in a reshape
    with pytest.raises(ValueError,
                       match=re.escape(f"working set must have shape {expected}")) as err:
        solve_qp(qp, working_sets=sets)
    assert f"got {given}" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_non_finite_target(bad):
    # a non-finite reference fails before the smoother moves: the state, the
    # working set it carries and the next step are those of a smoother that
    # never saw it
    cfg, limits = MpcConfig(), limits_of(acc=1.0, jerk=50.0)
    sm, twin = (TwistSmoother(cfg, limits, UnitDualQuaternion.identity()) for _ in range(2))
    target = np.full(6, 1.0)
    for smoother in (sm, twin):
        smoother.step(target)
    bad_target = target.copy()
    bad_target[4] = bad
    assert_unmoved_by(lambda: sm.step(bad_target), ValueError, "^target twist must be finite",
                      sm, twin, target)
    with pytest.raises(ValueError, match="^target twist must have 6 components"):
        sm.step(np.ones(5))


@pytest.mark.parametrize("width", [4, 59, 61, 120])
def test_step_rejects_a_working_set_of_another_width(width):
    # a carried working set is 0 or 6 n_c rows wide per axis; another width
    # fails before the smoother moves, naming both widths
    cfg, limits = MpcConfig(), limits_of(acc=1.0, jerk=50.0)
    sm, twin = (TwistSmoother(cfg, limits, UnitDualQuaternion.identity()) for _ in range(2))
    target = np.full(6, 1.0)
    for smoother in (sm, twin):
        smoother.step(target)

    def step_on_a_bad_set():
        bad = np.ones((N_AXES, width), dtype=bool)
        with mock.patch.object(sm.state, "working_set", bad):
            try:
                sm.step(target)
            finally:
                assert sm.state.working_set is bad
    assert_unmoved_by(step_on_a_bad_set, ValueError,
                      f"^working set must be 0 or 6 n_c = 60 rows wide per axis, got {width}$",
                      sm, twin, target)


def test_step_that_overflows_leaves_the_state_as_it_was():
    # a finite but huge target overflows one part of the step, whichever part
    # it is, and the step raises FloatingPointError before it writes anything:
    # - 1e300 under acc/jerk bounds overflows the QP into a NaN increment;
    # - 1e300 unbounded gives a finite twist too large for exp;
    # - 1e307 overflows -E^-1 f, and the solve ends unconverged.
    # Warnings are off: an overflow warning raised as an error would stop the
    # step before the overflow reached its result
    bounded = limits_of(acc=1.0, jerk=20.0)
    for limits, huge, match in (
            (bounded, 1e300, r"^smoothed twist is not finite: \[nan"),
            (LimitSet.unbounded(), 1e300, r"^smoothed twist overflows the pose: \[\d"),
            (bounded, 1e307, r"^QP overflows at target twist \[1e\+307, ")):
        sm, twin = (TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
                    for _ in range(2))
        target = np.full(6, 0.3)
        with np.errstate(all="ignore"):
            for smoother in (sm, twin):
                smoother.step(target)
            assert_unmoved_by(lambda: sm.step(np.full(6, huge)), FloatingPointError, match,
                              sm, twin, target)


def test_step_raises_floating_point_error_on_a_nan_increment(monkeypatch):
    # the 5th QP solution's increment turns NaN: the twist is not finite
    cfg, limits = MpcConfig(), limits_of(acc=1.0, jerk=50.0)
    sm, twin = (TwistSmoother(cfg, limits, UnitDualQuaternion.identity()) for _ in range(2))
    target = np.full(6, 1.0)
    for _ in range(4):
        for smoother in (sm, twin):
            smoother.step(target)
    solve = mpc.solve_qp

    def nan_increment():
        with monkeypatch.context() as patch:
            patch.setattr(mpc, "solve_qp", lambda *args, **kwargs: dataclasses.replace(
                solve(*args, **kwargs), delta_u=np.full((N_AXES, cfg.n_c), np.nan)))
            sm.step(target)

    assert_unmoved_by(nan_increment, FloatingPointError, "^smoothed twist is not finite",
                      sm, twin, target)


# track-tight limits (benchmark seed 1, line 1, MPC tick 2): a tick that is
# hard to solve as one dense 60-variable QP (a dual sweep method needed 3600
# sweeps).  Axes wx, wy, wz are at rest.
CAP_TICK_DIFF_S = [7.2900002440457636e-06, 7.2900003082925308e-06, 7.289999999999992e-06]
CAP_TICK_TWIST = [0.0016200000542323919, 0.0016200000685094515, 0.0016199999999999984]
CAP_TICK_U_PREV = [0.18000000602582134, 0.18000000761216128, 0.17999999999999983]
CAP_TICK_TARGET = [0.72325038690381982, 0.78784475549863853, 0.25434806036772606]


def test_step_converges_on_dense_sweep_cap_tick():
    one = np.ones(6)
    limits = LimitSet(-one, one, -10 * one, 10 * one, -20 * one, 20 * one)
    state = np.zeros(AUG_DIM)
    state[3:6] = CAP_TICK_DIFF_S
    state[9:12] = state[15:18] = CAP_TICK_TWIST  # from rest: difference = twist
    u_prev = np.zeros(6)
    u_prev[3:] = CAP_TICK_U_PREV
    target = np.zeros(6)
    target[3:] = CAP_TICK_TARGET
    sm = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
    sm.state = SmootherState(state, u_prev, sm.pose)
    res = sm.step(target)
    assert res.converged
    assert res.iterations <= _MAX_ITERATIONS
    assert res.max_violation <= 1e-6


def test_solver_stack_reports_per_problem_solves():
    rng = np.random.default_rng(58)
    n, m = 3, 5
    w = rng.normal(size=(m, n))
    es, fs, vs = [], [], []
    for _ in range(4):
        a = rng.normal(size=(n, n))
        es.append(a @ a.T + 0.1 * np.eye(n))
        fs.append(rng.normal(size=n))
        vs.append(w @ rng.normal(size=n) + rng.uniform(0.05, 1.0, size=m))
    vs[0] = np.full(m, np.inf)  # one problem with no active row
    stack = solve_qp(QpProblem(np.array(es), np.array(fs), w, np.array(vs)))
    singles = [solve_qp(QpProblem(e, f, w, v)) for e, f, v in zip(es, fs, vs)]
    assert np.array_equal(stack.delta_u, [s.delta_u for s in singles])
    assert np.array_equal(stack.lam, [s.lam for s in singles])
    assert stack.iterations == max(s.iterations for s in singles) > 0
    assert stack.converged == all(s.converged for s in singles)
    assert np.array_equal(stack.solved, [s.converged for s in singles])
    assert stack.active_count == sum(s.active_count for s in singles) > 0
    assert stack.max_violation == max(s.max_violation for s in singles)


def test_limitset_validation():
    with pytest.raises(ValueError, match="min >= max"):
        limits = LimitSet(np.ones(6), -np.ones(6), -INF6, INF6, -INF6, INF6)
    with pytest.raises(ValueError, match="bracket zero"):
        LimitSet(np.full(6, 0.5), np.full(6, 1.0), -INF6, INF6, -INF6, INF6)
    nan6 = np.full(6, np.nan)
    with pytest.raises(ValueError, match="min >= max"):
        LimitSet(-INF6, nan6, -INF6, INF6, -INF6, INF6)
    with pytest.raises(ValueError, match="min >= max"):
        LimitSet(-INF6, INF6, -INF6, INF6, nan6, INF6)
    np.testing.assert_array_equal(LimitSet.unbounded().vel_max, INF6)  # +-inf stay legal


def test_mpcconfig_validation():
    with pytest.raises(ValueError, match="n_c <= n_p"):
        MpcConfig(n_c=5, n_p=3)
    with pytest.raises(ValueError, match="positive"):
        MpcConfig(r_weight=np.zeros(6))
    with pytest.raises(ValueError, match="sample_time must be positive"):
        MpcConfig(sample_time=float("nan"))
    with pytest.raises(ValueError, match="sample_time must be positive and finite"):
        MpcConfig(sample_time=float("inf"))
    with pytest.raises(ValueError, match="q_weight must be nonnegative"):
        MpcConfig(q_weight=np.full(6, np.nan))
    with pytest.raises(ValueError, match="r_weight must be positive"):
        MpcConfig(r_weight=np.full(6, np.nan))


@pytest.mark.parametrize("name, value", [("n_c", 2.0), ("n_p", 50.5), ("n_c", "3")])
def test_mpcconfig_rejects_a_horizon_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        MpcConfig(**{name: value})


def test_mpcconfig_takes_numpy_integer_horizons():
    cfg = MpcConfig(n_c=np.int64(3), n_p=np.int32(5))
    sm = TwistSmoother(cfg, limits_of(acc=1.0), UnitDualQuaternion.identity())
    assert sm.step(np.ones(6)).converged


# ---------------------------------------------------------------------------
# interior-point solver


def test_solver_unconstrained_optimum():
    rng = np.random.default_rng(53)
    a = rng.normal(size=(4, 4))
    e = a @ a.T + 0.5 * np.eye(4)
    f = rng.normal(size=4)
    qp = QpProblem(e, f, np.zeros((0, 4)), np.zeros(0))
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.delta_u, -np.linalg.solve(e, f), atol=1e-10)
    assert sol.converged and sol.active_count == 0


@pytest.mark.parametrize("stack", [True, False])
def test_free_stack_is_the_unconstrained_optimum_bit_for_bit(stack):
    # every problem's -E^-1 f meets every row (one within 1e-12, one row with
    # an infinite bound): the solve returns it with zero multipliers, no
    # iteration and max(0, largest residual on a finite row)
    rng = np.random.default_rng(56)
    k, n, m = 4, 3, 5
    a = rng.normal(size=(k, n, n))
    e = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(n)
    f, w = rng.normal(size=(k, n)), rng.normal(size=(m, n))
    x_free = (-np.linalg.inv(e) @ f[:, :, None])[:, :, 0]
    v = (w @ x_free[:, :, None])[:, :, 0] + rng.uniform(0.1, 1.0, size=(k, m))
    v[0, 1], v[1, 2] = np.inf, (w @ x_free[1])[2] - 5e-13
    if not stack:
        e, f, v, x_free = e[1], f[1], v[1], x_free[1]
    sol = solve_qp(QpProblem(e, f, w, v))
    residual = (w @ x_free[..., None])[..., 0] - v
    assert 0.0 < residual[np.isfinite(v)].max() <= 1e-12
    assert same_bits(sol.delta_u, x_free)
    assert same_bits(sol.lam, np.zeros(v.shape))
    assert sol.iterations == 0 and sol.converged and np.all(sol.solved)
    assert sol.max_violation == max(0.0, residual[np.isfinite(v)].max())


def test_a_broken_problem_still_tries_its_working_sets():
    # of three problems sharing W, only the second's optimum (2, 0) breaks
    # x_1 <= 1: it is solved on its working set's law, built into the laws'
    # cache, as the plain problem solves
    e, w = np.stack([np.eye(2)] * 3), np.eye(2)
    f, v = np.array([[-0.5, 0.1], [-2.0, 0.0], [0.0, 0.5]]), np.ones((3, 2))
    laws = _Laws(e, w, f[..., None], v[..., None], np.isfinite(v))
    mask = np.zeros((3, 2), dtype=bool)
    mask[1, 0] = True
    sol = solve_qp(_TickQp(e, f, w, v, laws, np.ones((3, 1))), working_sets=[mask])
    assert len(laws.cache) == 1
    assert sol.iterations == 0 and sol.converged
    np.testing.assert_array_equal(sol.delta_u[1], [1.0, 0.0])
    np.testing.assert_array_equal(sol.lam, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    plain = solve_qp(QpProblem(e, f, w, v), working_sets=[mask])
    assert all(same_bits(getattr(sol, name), getattr(plain, name))
               for name in ("delta_u", "lam", "solved"))


def test_solver_scalar_clipping():
    qp = QpProblem(np.array([[1.0]]), np.array([-2.0]),
                   np.array([[1.0]]), np.array([0.5]))
    sol = solve_qp(qp)
    assert sol.delta_u[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.active_count == 1


def test_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(54)
    for trial in range(100):
        n = rng.integers(1, 5)
        m = rng.integers(1, 7)
        a = rng.normal(size=(n, n))
        e = a @ a.T + 0.1 * np.eye(n)
        f = rng.normal(size=n)
        w = rng.normal(size=(m, n))
        x_feas = rng.normal(size=n)
        v = w @ x_feas + rng.uniform(0.05, 1.0, size=m)
        sol = solve_qp(QpProblem(e, f, w, v))
        assert sol.converged
        x_ref, obj_ref = qp_enumeration_oracle(e, f, w, v)
        obj = 0.5 * sol.delta_u @ e @ sol.delta_u + f @ sol.delta_u
        assert obj - obj_ref < 1e-6
        assert sol.max_violation < 1e-6


def test_solver_kkt_residuals():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n, m = 4, 6
        a = rng.normal(size=(n, n))
        e = a @ a.T + 0.2 * np.eye(n)
        f = rng.normal(size=n)
        w = rng.normal(size=(m, n))
        v = w @ rng.normal(size=n) + rng.uniform(0.05, 0.5, size=m)
        sol = solve_qp(QpProblem(e, f, w, v))
        x, lam = sol.delta_u, sol.lam
        stationarity = np.linalg.norm(e @ x + f + w.T @ lam)
        assert stationarity < 1e-6
        assert np.all(w @ x - v <= 1e-6)
        assert abs(lam @ (w @ x - v)) < 1e-6


def test_solver_reports_infeasible():
    # x <= -1 and -x <= -2 (x >= 2) cannot both hold
    qp = QpProblem(np.array([[1.0]]), np.array([0.0]),
                   np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]))
    sol = solve_qp(qp)
    assert not sol.feasible
    assert sol.max_violation > 1e-6


def contradicted_qp(seed: int) -> QpProblem:
    """A feasible random QP plus one row that a nonnegative mix of its rows contradicts."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 5), rng.integers(1, 7)
    a = rng.normal(size=(n, n))
    w = rng.normal(size=(m, n))
    v = w @ rng.normal(size=n) + rng.uniform(0.05, 1.0, size=m)
    y = rng.uniform(0.1, 1.0, size=m)  # y^T W x <= y^T V, but the new row asks for more
    return QpProblem(a @ a.T + 0.1 * np.eye(n), rng.normal(size=n), np.vstack([w, -(y @ w)]),
                     np.append(v, -(y @ v) - rng.uniform(1e-3, 1.0)))


@pytest.mark.parametrize("qp", [
    pytest.param(QpProblem(np.array([[1.0]]), np.array([0.0]), np.array([[1.0], [-1.0]]),
                           np.array([-1.0, -2.0])), id="x<=-1,x>=2"),
    *(pytest.param(contradicted_qp(seed), id=f"contradicted-{seed}") for seed in range(20)),
])
def test_solver_stops_on_infeasibility_certificate(qp):
    # the rows cannot all hold: the iteration stops on a Farkas certificate,
    # before its cap, and returns a finite, unconverged result
    sol = solve_qp(qp)
    assert not sol.converged and sol.iterations < _MAX_ITERATIONS
    assert np.all(np.isfinite(sol.delta_u)) and np.all(np.isfinite(sol.lam))
    assert sol.max_violation > 1e-6


@st.composite
def qp_stacks(draw):
    """A stack of QPs sharing W, feasible by construction unless a problem is
    given a row that contradicts one of its finite rows.  Rows come in pairs
    -r x <= -lo, r x <= hi with lo and hi each possibly infinite."""
    k = draw(st.integers(1, 3), label="k")
    n = draw(st.integers(1, 4), label="n")
    pairs = draw(st.integers(1, 4), label="pairs")
    rows = draw(arrays(float, (pairs, n), elements=st.floats(-2.0, 2.0)), label="rows")
    assume(np.all(np.linalg.norm(rows, axis=1) > 0.1))
    a = draw(arrays(float, (k, n, n), elements=st.floats(-2.0, 2.0)), label="a")
    f = draw(arrays(float, (k, n), elements=st.floats(-5.0, 5.0)), label="f")
    x_feasible = draw(arrays(float, (k, n), elements=st.floats(-1.0, 1.0)), label="x")
    centre = x_feasible @ rows.T
    margin = draw(arrays(float, (k, pairs, 2), elements=st.floats(0.0, 1.0)), label="gap")
    infinite = draw(arrays(bool, (k, pairs, 2)), label="infinite")
    bounds = margin + np.stack([-centre, centre], axis=2)
    v = np.where(infinite, np.inf, bounds).reshape(k, -1)
    # row 2i + 1 is r_i x <= hi_i; the extra row -c r_i x <= -c (hi_i + delta) contradicts it
    i = draw(st.integers(0, pairs - 1), label="contradicted pair")
    c = draw(st.floats(0.5, 2.0), label="c")
    delta = draw(st.floats(1e-3, 1.0), label="delta")
    infeasible = draw(arrays(bool, k), label="infeasible") & np.isfinite(v[:, 2 * i + 1])
    v = np.hstack([v, np.where(infeasible, -c * (v[:, 2 * i + 1] + delta), np.inf)[:, None]])
    w = np.vstack([np.stack([-rows, rows], axis=1).reshape(-1, n), -c * rows[i]])
    e = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    return QpProblem(e, f, w, v), infeasible


def ill_conditioned_draws(seed: int = 2):
    """Random QPs (stacks of one) with E eigenvalues 1e-5..1e5, row norms
    1e-3..1e2 and f and V over several decades; many are infeasible."""
    rng = np.random.default_rng(seed)
    while True:
        n, m = rng.integers(2, 8), rng.integers(2, 16)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        e = (q * 10.0 ** rng.uniform(-5, 5, size=n)) @ q.T
        w = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 2, size=(m, 1))
        v = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 2, size=m)
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 3)
        yield QpProblem(0.5 * (e + e.T)[None], f[None], w, v[None])


def ill_conditioned_draw() -> QpProblem:
    """A feasible QP (n=4, m=6, cond(E) 2.8e8, row norms 1e-2..1e2) that an
    absolute stop test kept iterating until E + W^T diag(z/s) W grew entries of
    5.5e11 and, rounding away E's smallest eigenvalue (3.1e-5), turned singular."""
    return next(itertools.islice(ill_conditioned_draws(), 111, None))


# E = 1e-7 I next to z/s = 1e10 on the row (1, 1): the Newton matrix rounds to
# exactly singular; its stack-mate's matrix is regular
SINGULAR_NEWTON_STACK = QpProblem(np.array([1e-7 * np.eye(2), np.eye(2)]), np.full((2, 2), -1.0),
                                  np.array([[1.0, 1.0]]), np.zeros((2, 1)))


@settings(max_examples=150, deadline=None)
@given(stack_and_infeasible=qp_stacks())
@example(stack_and_infeasible=(SINGULAR_NEWTON_STACK, np.array([False, False])))
# x = 0 pinned by two opposite rows: their multipliers can grow in a pair
@example(stack_and_infeasible=(QpProblem(np.array([[[0.1]]]), np.array([[1.0]]),
                                         np.array([[-1.0], [1.0], [-1.0]]),
                                         np.array([[0.0, 0.0, np.inf]])), np.array([False])))
def test_solver_bounded_on_random_stacks(stack_and_infeasible):
    # never raises or warns (warnings are errors), returns finite values within
    # the iteration cap, each problem as if alone; converged problems meet
    # the KKT conditions and infeasible ones are reported
    qp, infeasible = stack_and_infeasible
    stack = solve_qp(qp)
    assert np.all(np.isfinite(stack.delta_u)) and np.all(np.isfinite(stack.lam))
    assert stack.iterations <= _MAX_ITERATIONS
    for p in range(len(qp.f)):
        sol = solve_qp(QpProblem(qp.e[p], qp.f[p], qp.w, qp.v[p]))
        assert np.array_equal(sol.delta_u, stack.delta_u[p])
        assert np.array_equal(sol.lam, stack.lam[p])
        x, lam, finite = sol.delta_u, sol.lam, np.isfinite(qp.v[p])
        residual = (qp.w @ x - qp.v[p])[finite]
        if sol.converged:
            assert np.all(lam >= 0.0)
            assert np.abs(qp.e[p] @ x + qp.f[p] + qp.w.T @ lam).max() <= 1e-6
            assert residual.max(initial=0.0) <= 1e-6
            assert abs(lam[finite] @ residual) <= 1e-6
        if infeasible[p]:
            assert not sol.converged and sol.max_violation > 1e-6


def test_solver_finite_on_ill_conditioned_draw():
    # a feasible, strictly convex problem: no exception, a finite and feasible
    # result, and next to a regular stack-mate each solved as if alone
    qp = ill_conditioned_draw()
    sol = solve_qp(qp)
    assert np.all(np.isfinite(sol.delta_u)) and np.all(np.isfinite(sol.lam))
    assert sol.converged and sol.max_violation <= 1e-6
    mate = QpProblem(np.eye(4), -np.ones(4), qp.w, np.abs(qp.v[0]))
    stack = solve_qp(QpProblem(np.vstack([qp.e, mate.e[None]]), np.vstack([qp.f, mate.f]),
                               qp.w, np.vstack([qp.v, mate.v])))
    assert np.array_equal(stack.delta_u[0], sol.delta_u[0])
    assert np.array_equal(stack.delta_u[1], solve_qp(mate).delta_u)


def test_solver_converged_meets_every_row_on_ill_conditioned_draws():
    # a stop test scaled by the size of the unconstrained optimum passed
    # draws 86, 328, 424, 459, 549 and 571 with a row violated by 1.7e-6 to
    # 5.8e-4; each of them is feasible and now solved within FEAS_TOL
    converged = set()
    for draw, qp in enumerate(itertools.islice(ill_conditioned_draws(), 600)):
        sol = solve_qp(qp)
        assert not sol.converged or sol.max_violation <= FEAS_TOL
        if sol.converged:
            converged.add(draw)
    assert {86, 328, 424, 459, 549, 571} <= converged


def test_solver_stop_test_measures_rows_at_the_iterate():
    # x_free = -E^-1 f = (1e8, 1e8) is 2e11 times the solution (5e-4, 5e-4):
    # a row residual measured against the row's terms at x_free passed at
    # x = (4.02e-4, 4.02e-4), objective -0.80 against the optimum's -1.0
    qp = QpProblem(1e-5 * np.eye(2), np.array([-1000.0, -1000.0]), np.array([[1.0, 1.0]]),
                   np.array([1e-3]))
    sol = solve_qp(qp)
    x = sol.delta_u
    assert sol.converged and sol.max_violation <= FEAS_TOL
    assert 0.5 * x @ qp.e @ x + qp.f @ x == pytest.approx(-1.0, abs=1e-6)
    np.testing.assert_allclose(x, [5e-4, 5e-4], rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# working-set warm start


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: `_interior_point` starts s at "
                   "max(V, 1e-10), so a row that x = 0 meets with equality stalls the step")
def test_solver_converges_from_a_row_met_with_equality_at_the_start():
    # the optimum is x = 0 on the row x_1 + x_2 <= 0, with multiplier 1000;
    # the interior point starts there at s = 1e-10 against z = 1000
    sol = solve_qp(QpProblem(1e-5 * np.eye(2), np.array([-1000.0, -1000.0]),
                             np.array([[1.0, 1.0]]), np.array([0.0])))
    assert sol.converged and sol.iterations < _MAX_ITERATIONS
    assert np.abs(sol.delta_u).max() <= 1e-9
    assert sol.lam[0] == pytest.approx(1000.0, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: `_interior_point` reports converged "
                   "with multipliers far from the solution when two opposite rows pin x near 0")
def test_solver_multipliers_on_opposite_tiny_bound_rows():
    # -x <= 1e-12 and x <= 1e-12 pin x; the optimum x = -1e-12 holds the
    # first row with multiplier 1 - 1e-13, and the second is slack
    sol = solve_qp(QpProblem(np.array([[0.1]]), np.array([1.0]),
                             np.array([[-1.0], [1.0], [-1.0]]), np.array([1e-12, 1e-12, np.inf])))
    assert sol.converged
    np.testing.assert_allclose(sol.lam, [1.0, 0.0, 0.0], rtol=0, atol=1e-6)


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: `_interior_point` ends unconverged on "
                   "every large finite target between about 3e9 and 1e159")
def test_step_converges_on_a_large_finite_target():
    # du = 0 meets every row, so the QP is feasible at any target
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=20.0), UnitDualQuaternion.identity())
    assert sm.step(np.full(6, 0.3)).converged
    assert sm.step(np.full(6, 10 ** 9.5)).converged


def test_step_on_a_huge_target_ends_without_a_warning():
    # a candidate |x| above 1e154 overflowed x . x in the walk's early
    # reject; under filterwarnings = error both huge ticks must end as they
    # end, unconverged at the iteration cap
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=20.0), UnitDualQuaternion.identity())
    assert sm.step(np.full(6, 0.3)).converged
    for _ in range(2):
        res = sm.step(np.full(6, 1e159))
        assert (res.converged, res.iterations) == (False, _MAX_ITERATIONS)


def assert_same_solution(a, b):
    assert np.array_equal(a.delta_u, b.delta_u) and np.array_equal(a.lam, b.lam)
    assert (a.iterations, a.converged, a.max_violation) == (b.iterations, b.converged,
                                                            b.max_violation)


def smoother_axis_qp() -> QpProblem:
    """Axis vx's QP on the first tick from rest toward 1 under vel 10, acc 1,
    jerk 50 (n = 10, m = 60): jerk and acceleration rows are active at the
    optimum, the velocity rows (the last 20) are not."""
    cfg = MpcConfig()
    pred = build_prediction(build_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    return axis_slice(build_qp(np.zeros(AUG_DIM), build_setpoint(np.full(6, 1.0), cfg.n_p), pred,
                               cfg, limits_of(vel=10.0, acc=1.0, jerk=50.0), np.zeros(6)), 3)


def rows_of(m: int, rows) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    mask[list(rows)] = True
    return mask


def bad_working_set(case: str) -> tuple[QpProblem, np.ndarray]:
    if case.startswith("infeasible"):  # its rows cannot all hold, so no guess verifies
        qp = contradicted_qp(int(case.split("-")[1]))
        return qp, solve_qp(qp).lam > 0.0
    if case == "negative-multiplier":
        # x_free = (2, 1): x1 <= 1 is violated and x2 <= 1 + 1e-13 holds with
        # a slack of 1e-13, so holding both gives the second a multiplier of
        # -1e-13, small enough to pass the stop test
        qp = QpProblem(np.eye(2), np.array([-2.0, -1.0]), np.eye(2), np.array([1.0, 1.0 + 1e-13]))
        return qp, rows_of(2, [0, 1])
    qp = smoother_axis_qp()
    n, m = len(qp.f), len(qp.v)
    cold = np.flatnonzero(solve_qp(qp).lam > 0.0)
    if case == "empty":
        return qp, rows_of(m, [])
    if case == "all-rows":
        return qp, rows_of(m, range(m))
    if case == "more-than-n":  # the optimal rows first, then enough others to make n + 1
        others = np.setdiff1d(np.arange(m), cold)[len(cold) - n - 1:]
        assert cold.max() < others.min()
        return qp, rows_of(m, [*cold, *others])
    # an active row and its opposite row of the same pair: -r x <= -lo, r x <= hi
    return qp, rows_of(m, [cold[0], cold[0] ^ 1])


@pytest.mark.parametrize("case", ["empty", "all-rows", "more-than-n", "dependent-rows",
                                  "negative-multiplier", "infeasible-2", "infeasible-8"])
def test_bad_working_set_gives_the_cold_solve(case):
    qp, working = bad_working_set(case)
    cold = solve_qp(qp)
    assert cold.iterations > 0  # the problem has a violated row at -E^-1 f
    for sets in ([working], [working, working]):
        warm = solve_qp(qp, working_sets=sets)
        if case in ("empty", "dependent-rows", "negative-multiplier", "more-than-n"):
            # a walk solves it: from the empty set the rows join one by
            # one; a set of n + 1 or of dependent rows has no law, and of
            # its rows those x_free breaks stay, the optimal ones or the
            # active row of the pair; a multiplier of -1e-13 passes the
            # screen, whose floor is -1e-10 of the multiplier's scale.  No
            # iteration, the cold verdict and the cold point within 1e-9
            assert warm.iterations == 0 and warm.converged == cold.converged
            assert np.all(warm.lam >= 0.0)
            np.testing.assert_allclose(warm.delta_u, cold.delta_u, rtol=0, atol=1e-9)
        else:
            # the rows cannot all hold, or x_free breaks more than n of them:
            # the walk ends on a repeated set and the interior point solves
            # the problem as it would cold
            assert_same_solution(warm, cold)


def test_optimal_working_set_solves_without_iterations():
    qp = smoother_axis_qp()
    cold = solve_qp(qp)
    warm = solve_qp(qp, working_sets=[rows_of(len(qp.v), []), cold.lam > 0.0])
    assert cold.converged and cold.iterations > 0
    assert warm.converged and warm.iterations == 0
    assert np.array_equal(warm.lam > 0.0, cold.lam > 0.0) and np.all(warm.lam >= 0.0)
    np.testing.assert_allclose(warm.delta_u, cold.delta_u, rtol=0, atol=1e-9)
    assert warm.max_violation <= FEAS_TOL
    # lam is the exact multiplier: E x + f + W^T lam = 0
    stationarity = qp.e @ warm.delta_u + qp.f + qp.w.T @ warm.lam
    assert np.abs(stationarity).max() <= 1e-9


def test_repair_solves_a_set_one_row_off():
    # the optimal set (a vertex: n rows) with one row removed, or with a
    # spurious velocity row added (a set of n + 1 rows has no law; the repair
    # keeps its rows x_free breaks): each solves with no iteration, within
    # 1e-9 of the cold solve
    qp = smoother_axis_qp()
    cold = solve_qp(qp)
    optimal, m = cold.lam > 0.0, len(qp.v)
    assert optimal.sum() == len(qp.f)
    off = [optimal & ~rows_of(m, [row]) for row in np.flatnonzero(optimal)]
    off += [optimal | rows_of(m, [row]) for row in range(m - 20, m)]
    for working in off:
        warm = solve_qp(qp, working_sets=[working])
        assert warm.converged and warm.iterations == 0
        np.testing.assert_allclose(warm.delta_u, cold.delta_u, rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_walk_solves_like_the_cold_solve(data):
    # a tick's problems from a random state, each carrying a random set of
    # rows and walking from its shift: every problem a law holds meets its
    # KKT conditions within 1e-9 of their terms' size (and rows within
    # FEAS_TOL), has the verdict of the cold solve and its point within 1e-9
    # of the cold point, on the scale that the cold point meets: the
    # interior point stops once its residuals are 1e-10 of their terms'
    # size (and of 1), which E^-1 amplifies by up to its largest row sum
    cfg, limits, state, u_prev, target = draw_tick(data)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    qp = _tick_qp(sm._laws, state, target, u_prev)
    m = 6 * cfg.n_c
    working = data.draw(arrays(bool, (N_AXES, m), elements=st.booleans()), label="working")
    walks, on_laws = [], mpc._on_laws

    def recorded(laws, theta, test, todo, *rest):
        walks.append(on_laws(laws, theta, test, todo, *rest))
        return walks[-1]

    with mock.patch.object(mpc, "_on_laws", recorded):
        sol = solve_qp(qp, working_sets=[working, shifted_rows(working, cfg.n_c)])
    cold = solve_qp(QpProblem(qp.e, qp.f, qp.w, qp.v))
    assert same_bits(sol.solved, cold.solved)
    finite = np.isfinite(qp.v)
    for p in (walks[0] if walks else []):
        x, lam = sol.delta_u[p], sol.lam[p]
        e, f, w, v = qp.e[p], qp.f[p], qp.w, np.where(finite[p], qp.v[p], 0.0)
        size = np.abs(e) @ np.abs(x) + np.abs(f) + np.abs(w).T @ lam + 1.0
        assert np.all(lam >= 0.0) and np.all(lam[~finite[p]] == 0.0)
        assert np.all(np.abs(e @ x + f + w.T @ lam) <= 1e-9 * size)
        slack = np.where(finite[p], v - w @ x, 0.0)
        assert np.all(slack >= -FEAS_TOL)
        terms = lam * (np.abs(w) @ np.abs(x) + np.abs(v)) + 1.0
        assert np.all(lam * np.abs(slack) <= 1e-9 * terms)
        dual = np.abs(e) @ np.abs(cold.delta_u[p]) + np.abs(f) + np.abs(w).T @ cold.lam[p]
        scale = max(1.0, np.abs(np.linalg.inv(e)).sum(axis=1).max() * max(1.0, dual.max()))
        np.testing.assert_allclose(x, cold.delta_u[p], rtol=0, atol=1e-9 * scale)


def test_a_walk_that_stops_falls_back_to_the_interior_point():
    # a walk that reaches its cap, or a set it had, ends and leaves its
    # problem to the interior point, which solves it as it would cold
    qp = smoother_axis_qp()
    cold = solve_qp(qp)
    empty = rows_of(len(qp.v), [])
    assert cold.iterations > 0 and solve_qp(qp, working_sets=[empty]).iterations == 0
    with mock.patch.object(mpc, "_WALK", 3):  # this walk from the empty set takes more steps
        assert_same_solution(solve_qp(qp, working_sets=[empty]), cold)
    # two equal rows have no law, and x_free breaks both: the repair of the
    # pair is the pair, a set the walk had
    qp = QpProblem(np.eye(1), np.array([-2.0]), np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
    sets, of = [], mpc._Laws.of

    def recorded(laws, problems, masks):
        sets.append(masks.tolist())
        return of(laws, problems, masks)

    with mock.patch.object(mpc._Laws, "of", recorded):
        warm = solve_qp(qp, working_sets=[rows_of(2, [0, 1])])
    assert sets == [[[True, True]]]
    assert_same_solution(warm, solve_qp(qp))
    assert warm.iterations > 0 and warm.converged


def test_a_warm_stack_steps_like_a_cold_one_under_track_tight_limits():
    # the laws cached decide no step: a smoother whose stack holds the laws
    # of another reference sequence steps bit for bit as one on a new stack,
    # under the track-tight limits, whose conflicting rows also send ticks
    # to the interior point
    limits, refs = limits_of(vel=1.0, acc=10.0, jerk=20.0), 3.0 * smooth_tight_references([1, 0])
    cold = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
    cold_steps = [cold.step(ref) for ref in refs]
    assert any(step.iterations > 0 for step in cold_steps)
    mpc._stack = (None, None)
    other = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
    for ref in -2.0 * smooth_tight_references([1, 1]):
        other.step(ref)
    warm = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
    assert warm._laws is other._laws and warm._laws is not cold._laws
    assert_same_steps([warm.step(ref) for ref in refs], cold_steps)


def smooth_tight_references(seed, ticks: int = 200) -> np.ndarray:
    """A piecewise-constant reference: one random axis, sign and level in
    [0.2, 1], held for 20-55 ticks, then the next (the benchmark's
    smooth-tight draw of episode seed[1] under seed[0])."""
    rng = np.random.default_rng(seed)
    refs, k = np.zeros((ticks, 6)), 0
    while k < ticks:
        hold = int(rng.integers(20, 56))
        refs[k:k + hold, rng.integers(6)] = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        k += hold
    return refs


def test_interior_point_ticks_on_a_criterion_6_run(monkeypatch):
    # acc +-1 and jerk +-50 under smooth-tight's reference: the walk holds
    # every tick, the first (from the empty set) and those at reference
    # switches too.  Trying only the carried and the shifted set, 15 of the
    # 200 reached the interior point; with two repairs after them, 6.  A
    # smoother of a configuration no smoother had is built with no law; its
    # stack keeps every law the run builds, each the bytes of x and of its
    # set's multipliers alone (a view of its build batch would keep the
    # whole batch while the stack lives)
    ticks = []
    solve = mpc._interior_point
    monkeypatch.setattr(mpc, "_interior_point", lambda *args: ticks.append(1) or solve(*args))
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    assert not sm._laws.cache
    assert all(sm.step(ref).converged for ref in smooth_tight_references([1, 0]))
    assert not ticks
    assert 0 < len(sm._laws.cache) <= mpc._CACHED and not sm._laws.evicted
    assert all(law == sm._laws.no_law or len(law) == 8 * 6 * (10 + sum(rows))
               for (_, rows), law in sm._laws.cache.items())


def test_a_row_that_depends_on_fewer_than_n_working_rows_swaps_in(monkeypatch):
    # smooth-tight seed 1, episode 1, tick 147: axis vz's walk twice adds a
    # row that depends on nine working rows, so the ten have no law:
    # acceleration row 29 (u_prev + du_0 + ... + du_4) to row 27 (the same
    # to du_3) and jerk row 9 (du_4), then jerk row 7 (du_3) to rows 1, 3, 5
    # and 27.  As a row joining a vertex does, each swaps in for the row
    # whose multiplier a dual step on its least-squares fit zeroes first,
    # and the walk holds the tick on a law; repeating the lawless set sent
    # it to the interior point
    ticks, swaps = [], []
    solve, swap = mpc._interior_point, mpc._swap
    monkeypatch.setattr(mpc, "_interior_point", lambda *args: ticks.append(1) or solve(*args))

    def recorded(laws, new, masks, steps, work, z, z_rel, count=None):
        if count is not None:  # fewer than n working rows: the least-squares fit
            swaps.extend((np.flatnonzero(masks[c]).tolist(), count[p], row) for c, p, row in steps)
        return swap(laws, new, masks, steps, work, z, z_rel, count)

    monkeypatch.setattr(mpc, "_swap", recorded)
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    refs = smooth_tight_references([1, 1], ticks=148)
    assert all(sm.step(ref).converged for ref in refs[:-1])
    swaps.clear()
    step = sm.step(refs[-1])
    assert step.converged and step.iterations == 0 and not ticks
    assert swaps == [([1, 3, 5, 9, 19, 27, 29, 31, 33, 37], 9, 29),
                     ([1, 3, 5, 7, 19, 27, 29, 31, 33, 37], 9, 7)]


def assert_same_steps(steps, expected):
    """Each StepResult of `steps` is its peer's in `expected` bit for bit."""
    for a, b in zip(steps, expected, strict=True):
        assert all(same_bits(getattr(a, name), getattr(b, name)) for name in
                   ("twist", "delta_u", "iterations", "converged", "active_count",
                    "max_violation"))
        assert same_bits(a.pose.vec8(), b.pose.vec8())


def capped_run(limits, refs, cap: int):
    """The steps of a default smoother along refs, from no shared stack, with
    at most `cap` cached laws; the most it held after a step, and the keys
    of the laws each call of _Laws.of built."""
    built, build = [], mpc._Laws._build

    def recorded(laws, problems, masks):
        built.append({(laws.alike[p], mask.tobytes())
                      for p, mask in zip(problems.tolist(), masks)})
        return build(laws, problems, masks)

    mpc._stack = (None, None)
    with mock.patch.object(mpc, "_CACHED", cap), mock.patch.object(mpc._Laws, "_build", recorded):
        sm = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
        steps, held = [], 0
        for ref in refs:
            steps.append(sm.step(ref))
            held = max(held, len(sm._laws.cache))
    return steps, held, built


@pytest.mark.parametrize("limits, scale", [(limits_of(acc=1.0, jerk=50.0), 1.0),
                                           (limits_of(vel=1.0, acc=10.0, jerk=20.0), 3.0)],
                         ids=["smooth-tight", "track-tight"])
def test_evicted_laws_give_the_same_steps(limits, scale, caplog):
    # a cache of 2 laws drops the laws built first and rebuilds them when
    # used: every step is bit for bit the step at the default cap, where no
    # law is dropped, the cache never holds more than 2, and the stack warns
    # once, the first time it drops a law
    refs = scale * smooth_tight_references([1, 0])
    with caplog.at_level("WARNING", logger="screwmpc.mpc"):
        steps, _, built = capped_run(limits, refs, mpc._CACHED)
        assert not caplog.records
        capped, held, rebuilt = capped_run(limits, refs, 2)
    assert held <= 2 < len(set().union(*built)) == sum(map(len, built)) < sum(map(len, rebuilt))
    assert_same_steps(capped, steps)
    assert [r.getMessage() for r in caplog.records] == [
        "a QP stack holds more than 2 solution laws: it drops the oldest, to be rebuilt when used"]


def test_a_warm_stack_steps_like_a_cold_one():
    # a smoother built right after one of the same configuration shares its
    # stack: it starts with the laws the first built and steps bit for bit as
    # the first did
    refs = smooth_tight_references([1, 0])
    cold = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    cold_steps = [cold.step(ref) for ref in refs]
    warm = TwistSmoother(MpcConfig(q_weight=np.ones(6)), limits_of(acc=1.0, jerk=50.0),
                         UnitDualQuaternion.identity())
    assert warm._laws is cold._laws and warm._laws.cache
    assert_same_steps([warm.step(ref) for ref in refs], cold_steps)


def test_a_new_configuration_replaces_the_shared_stack():
    # limits that differ in one bound get a stack of their own, which the
    # next smoother shares; a smoother whose stack was replaced keeps
    # stepping on it, bit for bit as a smoother on a new stack of its
    # configuration
    def smoother(jerk):
        return TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=jerk),
                             UnitDualQuaternion.identity())

    first, other = smoother(50.0), smoother(40.0)
    assert other._laws is not first._laws and mpc._stack[1] is other._laws
    refs = smooth_tight_references([1, 0])
    replaced = [first.step(ref) for ref in refs]
    again = smoother(50.0)
    assert again._laws is not first._laws
    assert_same_steps(replaced, [again.step(ref) for ref in refs])


def test_smoothers_in_three_threads_share_a_stack():
    # three threads (more than the cores of a small machine), each stepping
    # its own smoother over one shared stack that keeps 2 laws, switching
    # threads as often as the interpreter can: every step is the step of the
    # same smoother run alone, and none raises (a cache without its lock
    # loses laws it is about to return)
    refs = [smooth_tight_references([1, episode]) for episode in range(3)]
    limits = limits_of(acc=1.0, jerk=50.0)
    stacks = []

    def run(episode_refs):
        sm = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
        stacks.append(sm._laws)
        return [sm.step(ref) for ref in episode_refs]

    switch = sys.getswitchinterval()
    with mock.patch.object(mpc, "_CACHED", 2):
        alone = [run(episode_refs) for episode_refs in refs]
        mpc._stack, stacks[:] = (None, None), []
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(refs)) as pool:
                futures = [pool.submit(run, episode_refs) for episode_refs in refs]
                together = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(switch)
    assert len(stacks) == 3 and all(laws is stacks[0] for laws in stacks)
    for steps, expected in zip(together, alone, strict=True):
        assert_same_steps(steps, expected)


@pytest.mark.parametrize("seed", [2, 411, 430, 5])
def test_working_set_keeps_every_verdict_on_ill_conditioned_draws(seed):
    # each draw is given the working set of its own cold solve.  An accepted
    # solve takes no iteration; no converged verdict is lost, and every
    # accepted solve meets each row within FEAS_TOL (rounding at |x| ~ 1e8
    # breaks the exact solve on some draws, which the row check rejects)
    accepted = 0
    for draw, qp in enumerate(itertools.islice(ill_conditioned_draws(seed), 600)):
        cold = solve_qp(qp)
        warm = solve_qp(qp, working_sets=[cold.lam > 0.0])
        assert warm.converged or not cold.converged
        if warm.iterations == 0 < cold.iterations:
            accepted += 1
            assert warm.converged and warm.max_violation <= FEAS_TOL
            x_w, x_c = warm.delta_u[0], cold.delta_u[0]
            objective = [0.5 * x @ qp.e[0] @ x + qp.f[0] @ x for x in (x_w, x_c)]
            if cold.converged:
                assert objective[0] - objective[1] <= 1e-7 * max(1.0, abs(objective[1]))
        else:
            assert_same_solution(warm, cold)
    assert accepted >= 250
    if seed == 5:  # draw 149 hits the iteration cap cold; its working set verifies
        qp = next(itertools.islice(ill_conditioned_draws(5), 149, None))
        cold = solve_qp(qp)
        assert not cold.converged and cold.iterations == _MAX_ITERATIONS
        assert solve_qp(qp, working_sets=[cold.lam > 0.0]).converged


# ---------------------------------------------------------------------------
# smoother stepping


def test_step_bounded_on_conflicting_limits():
    # the reference flips sign every `period` ticks.  Every step stays finite
    # and within the iteration cap, only infeasible ticks end unconverged, and
    # since the iteration starts from delta_u = 0, which meets the jerk and
    # acceleration rows, the realized jerk and acceleration stay within
    # their bounds on every tick.
    cases = [
        # conflicting limits (velocity 1, acceleration 10, jerk 20, reference
        # +3 then -3): on ticks 34-56 and 341-407 the velocity rows cannot be
        # met under the braking the jerk rows allow (an LP confirms each), and
        # no working set carried from the tick before may mark one solved
        (1.0, 1.0, 10.0, 20.0, 3.0, 600, 300, [*range(34, 57), *range(341, 408)]),
        # a tracking weight of 1e5 puts E and f near 1e6: every tick is
        # feasible (delta_u = 0 meets every row) and has to converge
        (1e5, None, 1.0, 50.0, 1.0, 400, 100, []),
    ]
    for q_weight, vel, acc, jerk, ref, ticks, period, infeasible in cases:
        cfg = MpcConfig(q_weight=np.full(6, q_weight))
        T = cfg.sample_time
        limits = limits_of(vel=vel, acc=acc, jerk=jerk)
        sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
        pred = build_prediction(build_model(T), cfg.n_p, cfg.n_c)
        prev = prev_acc = np.zeros(6)
        unconverged = []
        for tick in range(ticks):
            target = np.full(6, ref if (tick // period) % 2 == 0 else -ref)
            qp = build_qp(sm.state.augmented, build_setpoint(target, cfg.n_p), pred, cfg,
                          limits, sm.state.u_prev)
            res = sm.step(target)
            assert np.all(np.isfinite(res.twist)) and res.iterations <= _MAX_ITERATIONS
            if res.converged:
                assert res.max_violation <= 1e-6
            else:
                unconverged.append(tick)
                assert not qp_feasible_oracle(qp.w, qp.v)
            acc_fd = (res.twist - prev) / T
            assert np.abs(acc_fd).max() <= acc + 1e-6
            assert np.abs((acc_fd - prev_acc) / T).max() <= jerk + 1e-6
            prev, prev_acc = res.twist, acc_fd
        assert unconverged == infeasible


def test_step_equilibrium():
    sm = TwistSmoother(MpcConfig(), limits_of(vel=1, acc=1, jerk=10),
                       UnitDualQuaternion.identity())
    x0 = sm.pose.vec8()
    for _ in range(5):
        res = sm.step(np.zeros(6))
    np.testing.assert_allclose(res.twist, np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(sm.pose.vec8(), x0, atol=1e-12)


def test_step_converges_to_constant_reference():
    # cheap control makes the double-integrator tracking check sharp
    cfg = MpcConfig(r_weight=np.full(6, 1e-3))
    sm = TwistSmoother(cfg, LimitSet.unbounded(), UnitDualQuaternion.identity())
    ref = np.array([0.2, -0.1, 0.3, 0.4, 0.0, -0.2])
    err = None
    for _ in range(cfg.n_p):
        res = sm.step(ref)
        err = np.abs(res.twist - ref).max()
    assert err < 1e-6


def test_step_saturates_acceleration_bound():
    cfg = MpcConfig()
    T = cfg.sample_time
    bound = 0.5
    sm = TwistSmoother(cfg, limits_of(acc=bound), UnitDualQuaternion.identity())
    ref = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # step beyond what acc allows
    prev = np.zeros(6)
    max_fd = 0.0
    for _ in range(250):
        res = sm.step(ref)
        fd = np.abs((res.twist - prev) / T).max()
        max_fd = max(max_fd, fd)
        prev = res.twist
    assert max_fd <= bound + 1e-6
    assert max_fd == pytest.approx(bound, abs=1e-6)  # saturation, not just respect
    assert np.abs(prev - ref).max() < 1e-4


def test_step_respects_jerk_bound():
    cfg = MpcConfig()
    T = cfg.sample_time
    sm = TwistSmoother(cfg, limits_of(acc=2.0, jerk=40.0),
                       UnitDualQuaternion.identity())
    ref = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    prev = np.zeros(6)
    prev_fd = np.zeros(6)
    max_jerk = 0.0
    for _ in range(300):
        res = sm.step(ref)
        fd = (res.twist - prev) / T
        max_jerk = max(max_jerk, np.abs((fd - prev_fd) / T).max())
        prev, prev_fd = res.twist, fd
    assert max_jerk <= 40.0 + 1e-6


def test_receding_horizon_safety_random_references():
    rng = np.random.default_rng(56)
    cfg = MpcConfig()
    T = cfg.sample_time
    lims = limits_of(vel=0.8, acc=3.0, jerk=80.0)
    sm = TwistSmoother(cfg, lims, UnitDualQuaternion.identity())
    prev = np.zeros(6)
    prev_fd = np.zeros(6)
    ref = np.zeros(6)
    for k in range(200):
        if k % 25 == 0:
            ref = rng.uniform(-1.5, 1.5, size=6)  # frequently beyond the limits
        res = sm.step(ref)
        assert res.converged
        fd = (res.twist - prev) / T
        jerk = (fd - prev_fd) / T
        assert np.all(res.twist <= lims.vel_max + 1e-6)
        assert np.all(res.twist >= lims.vel_min - 1e-6)
        assert np.all(fd <= lims.acc_max + 1e-6)
        assert np.all(fd >= lims.acc_min - 1e-6)
        assert np.all(jerk <= lims.jerk_max + 1e-6)
        assert np.all(jerk >= lims.jerk_min - 1e-6)
        prev, prev_fd = res.twist, fd


def test_pose_stays_unit_over_long_run():
    cfg = MpcConfig(n_c=2, n_p=5, sample_time=0.01)
    sm = TwistSmoother(cfg, LimitSet.unbounded(), UnitDualQuaternion.identity())
    rng = np.random.default_rng(57)
    ref = rng.uniform(-0.5, 0.5, size=6)
    for k in range(10_000):
        if k % 500 == 0:
            ref = rng.uniform(-0.5, 0.5, size=6)
        res = sm.step(ref)
        assert res.converged
    n_p, n_d = sm.pose.norm()
    assert abs(n_p - 1.0) < 1e-9
    assert abs(n_d) < 1e-9


def test_smoother_state_validation():
    with pytest.raises(ValueError, match="18"):
        SmootherState(np.zeros(12), np.zeros(6), UnitDualQuaternion.identity())
    # a NaN bound would read as a row that never activates
    for augmented, u_prev in ((np.full(18, np.nan), np.zeros(6)), (np.zeros(18), [np.inf] * 6)):
        with pytest.raises(ValueError, match="must be finite"):
            SmootherState(augmented, u_prev, UnitDualQuaternion.identity())
