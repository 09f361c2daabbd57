import copy
import dataclasses
import itertools
import re
import sys
import warnings
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
    AUG_DIM,
    FEAS_TOL,
    N_AXES,
    _Laws,
    _optimum,
    _scalar_model,
    _scalar_prediction,
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
    eliminate_terminal,
    failed_solve,
    on_laws_oracle,
    point_sizes,
    prediction_rollout_oracle,
    qp_enumeration_oracle,
    same_bits,
    slacks_at_point,
    stationarity_at_point,
    terminal_elimination,
    verdict_at_point,
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
    np.testing.assert_array_equal(qp.f, np.zeros(12))
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.delta_u, np.zeros(12), atol=1e-12)
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
    # n_c = n_p = 2: the plan ends at zero acceleration, du_1 = -u_prev - y
    # with y = du_0 the one variable per axis, and each group is a
    # +-identity-patterned pair per step, rows 6r + a of axis a's row r
    cfg = MpcConfig(n_c=2, n_p=2, sample_time=0.1)
    T = cfg.sample_time
    model = build_model(T)
    pred = build_prediction(model, 2, 2)
    limits = LimitSet(-np.full(6, 1.0), np.full(6, 1.0),
                      -np.full(6, 2.0), np.full(6, 2.0),
                      -np.full(6, 30.0), np.full(6, 30.0))
    state = np.zeros(AUG_DIM)
    state[12:] = 0.25  # current twist
    u_prev = np.full(6, 0.5)
    qp = build_qp(state, build_setpoint(np.zeros(6), 2), pred, cfg, limits, u_prev)
    assert qp.w.shape == (72, 6)
    assert qp.v.shape == (72,)
    eye = np.eye(6)
    free = pred.f[:12] @ state
    np.testing.assert_allclose(free, np.full(12, 0.25))
    # (W block, V) per row: jerk rows -+du_0 <= T*jerk, then -+du_1 =
    # +-(u_prev + y) <= T*jerk; acceleration rows -+(u_prev + y) <= acc, then
    # the zero rows of u_prev + du_0 + du_1 = 0; velocity rows -+(free_1 + T
    # y) <= vel, then -+(free_2 + 2T y + T du_1) = -+(free_2 - T u_prev + T y)
    expected = [(-eye, 3.0), (eye, 3.0), (eye, 3.0 - 0.5), (-eye, 3.0 + 0.5),
                (-eye, 2.0 + 0.5), (eye, 2.0 - 0.5), (0 * eye, 2.0), (0 * eye, 2.0),
                (-T * eye, 1.0 + 0.25), (T * eye, 1.0 - 0.25),
                (-T * eye, 1.0 + 0.25 - 0.05), (T * eye, 1.0 - 0.25 + 0.05)]
    for r, (block, bound) in enumerate(expected):
        np.testing.assert_allclose(qp.w[6 * r:6 * r + 6], block, rtol=0, atol=1e-15)
        np.testing.assert_allclose(qp.v[6 * r:6 * r + 6], np.full(6, bound), rtol=0, atol=1e-15)


def draw_tick(data):
    """A smoother configuration, limits and tick state drawn by hypothesis."""
    n_p = data.draw(st.integers(2, 12), label="n_p")
    n_c = data.draw(st.integers(2, min(n_p, 4)), label="n_c")
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
    # model: in the n_c increments E = q_a Phi^T Phi + r_a I, f = -q_a Phi^T
    # (target_a - F s_a) and W the jerk, acceleration and velocity rows +-I,
    # +-tril(1) and +-Phi[:n_c], each -min row before its +max row, with the
    # terminal zero acceleration eliminated (eliminate_terminal): E and f
    # within 1e-12 of their terms' size (and of the smallest normal number,
    # where the terms underflow), W exactly
    cfg, limits, state, u_prev, target = draw_tick(data)
    n_c, tiny = cfg.n_c, np.finfo(float).tiny
    qp = _tick_qp(TwistSmoother(cfg, limits, UnitDualQuaternion.identity())._laws,
                  state, target, u_prev)
    f_roll, phi = prediction_rollout_oracle(cfg.sample_time, cfg.n_p, n_c)
    paired = [np.stack([-rows, rows], axis=1).reshape(-1, n_c)
              for rows in (np.eye(n_c), np.tril(np.ones((n_c, n_c))), phi[:n_c])]
    w, m = np.vstack(paired), terminal_elimination(n_c)
    assert np.array_equal(qp.w, w @ m)
    for a, (q, r) in enumerate(zip(cfg.q_weight, cfg.r_weight)):
        s_a = state.reshape(3, N_AXES)[:, a]
        e = q * phi.T @ phi + r * np.eye(n_c)
        e_size = q * np.abs(phi).T @ np.abs(phi) + r * np.eye(n_c)
        gap = target[a] - f_roll @ s_a
        f = -q * phi.T @ gap
        f_size = q * np.abs(phi).T @ (abs(target[a]) + np.abs(f_roll) @ np.abs(s_a))
        e, f, _, _ = eliminate_terminal(e, f, w, np.zeros(len(w)), u_prev[a])
        e_size, f_size = (np.abs(m).T @ e_size @ np.abs(m),
                          np.abs(m).T @ (f_size + e_size[:, -1] * abs(u_prev[a])))
        assert np.all(np.abs(qp.e[a] - e) <= 1e-12 * e_size + tiny)
        assert np.all(np.abs(qp.f[a] - f) <= 1e-12 * f_size + tiny)


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
    # the smoother solves the six axis slices of the public build_qp (rows
    # 6r + a, columns 6j + a): from a state that carries no working set it
    # walks from the empty set, as each slice does, to the same verdict and,
    # where it converges, to the slice's point within 1e-9
    step, qp = step_and_dense_qp(*draw_tick(data))
    expected = [solve_qp(axis_slice(qp, a)) for a in range(6)]
    assert step.converged == all(sol.converged for sol in expected)
    if step.converged:
        np.testing.assert_allclose(step.delta_u, [sol.delta_u[0] for sol in expected],
                                   rtol=0, atol=1e-9)


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
    pytest.param(2, 2, (2.5, 3, 0, 0, 0, 0), np.ones(6), 1.0, 5.0, 1.0, 0.0, 0.0,
                 id="near-active-row"),
    # a feasible dense tick drove z/s to 1e19 and the reduced matrix singular
    pytest.param(11, 4, np.full(6, 3.0), (3.5, 1, 1, 1, 1, 1), 2.0, 65.0, 0.75, 0.0, 1.0,
                 id="singular-reduced-matrix"),
    # residuals measured against one scale per problem let the dense solve
    # stop on axis wz's terms and land 1.1e-7 away on the flat axis wx (a
    # plan from u_prev = 0.625 needs 14 steps at jerk 5 to end at rest, so
    # the horizons are 16)
    pytest.param(16, 16, (0, 0, 3.75, 0, 0, 0), (1 / 64, 2, 1 / 64, 1 / 64, 1 / 64, 1 / 64),
                 0.75, 5.0, 1.0, (0.625, 0, 0, 0, 0, 0), -2.0, id="flat-axis-next-to-steep"),
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


def step_guesses(working: np.ndarray, n_c: int) -> tuple:
    """The working sets a step tries: the carried set, its shift and the two
    merged (the jerk rows both mark, the others either), or the empty set
    where none is carried."""
    if not working.any():
        return (np.zeros((N_AXES, 6 * n_c), dtype=bool),)
    shifted, jerk = shifted_rows(working, n_c), np.arange(6 * n_c) < 2 * n_c
    return working, shifted, np.where(jerk, working & shifted, working | shifted)


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
    v = np.where(np.isfinite(v_zero), np.abs(v_zero), 0.0) + np.repeat(offset, 2, axis=0).T
    # the terminal elimination's u_prev terms (eliminate_terminal), on |E| and |W|
    e, w = (np.abs(form) for form in increment_forms(cfg))
    f = (np.abs(terminal_elimination(cfg.n_c)).T @ (f + e[:, :, -1] * np.abs(u_prev)[:, None])
         [:, :, None])[:, :, 0]
    return f, np.where(np.isfinite(v_zero), v + w[:, -1] * np.abs(u_prev)[:, None], 0.0)


def increment_forms(cfg):
    """Each axis's E, q_a Phi_s^T Phi_s + r_a I, and the shared W, group x
    step x sign (see _axis_qp), in the n_c increments."""
    pred = build_prediction(build_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    n_c, phi_s = cfg.n_c, pred.phi[::N_AXES, ::N_AXES]
    rows = np.vstack([np.eye(n_c), np.tril(np.ones((n_c, n_c))), phi_s[:n_c]])
    return (cfg.q_weight[:, None, None] * phi_s.T @ phi_s + cfg.r_weight[:, None, None]
            * np.eye(n_c)), np.stack([-rows, rows], axis=1).reshape(-1, n_c)


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
    # ends with and for its shift; after them the law holds its stationarity
    # residual map (n rows, see test_residual_map_is_the_point_residual...),
    # its unit multipliers (n rows) and its unit-row slacks (m rows, see
    # test_slack_map_is_the_point_slack...), and it comes with its rows in
    # order and their count.  A set of more than n rows or with dependent
    # rows has no candidate: it shares slot 0, whose law is NaN, which no
    # screen passes
    cfg, limits, state, u_prev, target = draw_tick(data)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    qp = _tick_qp(sm._laws, state, target, u_prev)
    laws, n, m = sm._laws, cfg.n_c - 1, 6 * cfg.n_c
    f_size, v_size = tick_sizes(cfg, limits, state, target, u_prev)
    cold = solve_qp(qp).lam > 0.0
    for working in (cold, shifted_rows(cold, cfg.n_c)):
        for axis in np.flatnonzero(working.any(axis=1)):
            rows = np.flatnonzero(working[axis])
            law, work, count = laws.of(np.array([axis]), working[axis][None])
            law = law[0]
            assert law.shape == (4 * n + m, 6)
            if np.linalg.matrix_rank(qp.w[rows]) < len(rows):
                assert np.isnan(law).all()
                assert laws.cache[laws.alike[axis], working[axis].tobytes()] == 0
                continue
            assert count.tolist() == [len(rows)]
            assert work[0, :len(rows)].tolist() == rows[:n].tolist()  # working rows first
            expected, size = equality_solve(qp, axis, rows, f_size[axis], v_size[axis])
            x_lam = law[:2 * n] @ qp.theta[axis]
            assert np.all(x_lam[n + len(rows):] == 0.0)
            x, lam = x_lam[:n], np.zeros(m)
            lam[rows] = x_lam[n:n + len(rows)]
            slack = np.where(np.isfinite(qp.v[axis]), qp.v[axis] - qp.w @ x, 0.0)
            assert np.all(np.abs(np.concatenate([x, lam, slack]) - expected) <= 1e-12 * size)
    jerk_rows = rows_of(m, range(2 * cfg.n_c))  # every jerk row is finite
    for dependent in (jerk_rows & (np.arange(m) <= n), rows_of(m, [0, 1])):
        assert np.isnan(laws.of(np.arange(N_AXES), np.tile(dependent, (N_AXES, 1)))[0]).all()
        assert {laws.cache[laws.alike[axis], dependent.tobytes()] for axis in range(N_AXES)} == {0}


def test_dependent_rows_have_no_law_and_no_warning():
    # a tracking weight of 3.1e-291 on axis wx: the Schur complement of these
    # dependent jerk rows solved to inf, and the law's products warned
    q_weight = np.zeros(6)
    q_weight[0] = float.fromhex("0x1.f16416f930652p-966")
    cfg = MpcConfig(n_c=3, n_p=3, q_weight=q_weight, r_weight=np.full(6, 4.5))
    laws = TwistSmoother(cfg, limits_of(acc=1.0, jerk=5.0), UnitDualQuaternion.identity())._laws
    for rows in ([0, 1, 2, 3], [0, 1]):
        law, _, _ = laws.of(np.arange(N_AXES), np.tile(rows_of(18, rows), (N_AXES, 1)))
        assert np.isnan(law).all()


def solve_recording_rounds(data):
    """A plain QpProblem stack (theta = [1]) or a smoother tick at random
    theta, solved from the cold solve's working set and a random one,
    recording its law rounds: the solution, theta, the laws, f and v of the
    one _on_laws call (None where every problem was free) and, per round,
    its problems and the laws, rows and counts _Laws.of gave them."""
    if data.draw(st.booleans(), label="tick"):
        cfg, limits, state, u_prev, target = draw_tick(data)
        qp = _tick_qp(TwistSmoother(cfg, limits, UnitDualQuaternion.identity())._laws,
                      state, target, u_prev)
        theta = qp.theta
    else:
        qp, _ = data.draw(qp_stacks(), label="stack")
        theta = np.ones((len(qp.f), 1))
    sets = [solve_qp(QpProblem(qp.e, qp.f, qp.w, qp.v)).lam > 0.0,
            data.draw(arrays(bool, qp.v.shape), label="random set")]
    calls, rounds = [], []
    on_laws, of = mpc._on_laws, mpc._Laws.of

    def recorded_call(laws, theta, f, v, *rest):
        calls.append((laws, f, v))
        return on_laws(laws, theta, f, v, *rest)

    def recorded_round(laws, problems, masks):
        rounds.append((problems.tolist(), of(laws, problems, masks)))
        return rounds[-1][1]

    with mock.patch.object(mpc, "_on_laws", recorded_call), \
            mock.patch.object(mpc._Laws, "of", recorded_round):
        sol = solve_qp(qp, working_sets=data.draw(st.permutations(sets), label="order"))
    return qp, theta, sol, *(calls[0] if calls else (None, None, None)), rounds


def law_terms(laws, law, theta):
    """A law at theta: x, the multipliers (padded), the stationarity
    residual, the unit multipliers (padded) and the unit-row slacks."""
    n, width = laws.x_free.shape[1], laws.width
    y = law @ theta
    return np.split(y, np.cumsum([n, width, n, width]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verdict_is_the_point_verdict_on_random_candidates(data):
    # a candidate of any magnitude (its point and f up to 1e306, so that the
    # bound on its sizes may pass 1e300 and the sizes overflow) whose
    # stationarity residuals, unit multipliers and unit-row slacks are each
    # its size at the point times a number near 0, on either side of 1e-10,
    # or of order 1: _verdict, whose shortcuts read its least unit
    # multiplier and slack, the bound on its sizes and its residuals against
    # 1e-10, gives the verdict formed with every size (verdict_at_point)
    n, m = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 6), label="m")
    w = data.draw(arrays(float, (m, n), elements=st.floats(-10.0, 10.0)), label="w")
    a = data.draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)), label="a")
    e = (a @ a.T + 0.1 * np.eye(n)) * 10.0 ** data.draw(st.integers(-3, 3), label="E scale")
    finite = data.draw(arrays(bool, m), label="finite")
    v = np.where(finite, 10.0 ** data.draw(st.integers(-3, 3), label="|v|") * data.draw(
        arrays(float, m, elements=st.floats(-1.0, 1.0)), label="v"), np.inf)
    laws = _Laws(e[None], w, np.zeros((1, n, 1)), np.where(finite, v, 0.0)[None, :, None],
                 finite[None])
    rows = np.flatnonzero(data.draw(arrays(bool, m), label="rows") & laws.rows[0])[:laws.width]
    x, f = (10.0 ** data.draw(st.sampled_from([0, 3, 8, 150, 299, 306]), label=f"|{name}|")
            * data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)), label=name)
            for name in ("x", "f"))
    near = st.sampled_from([-3e-10, -1.5e-10, -5e-11, 0.0, 5e-11, 1.5e-10]) | st.floats(-1e-8, 1e-8)
    met = near | st.sampled_from([1e-9, 1e-7, 1.0]) | st.floats(-2.0, 2.0)
    with np.errstate(all="ignore"):  # at 1e306 the sizes may overflow, to inf or NaN
        primal, dual, multiplier = point_sizes(laws, 0, f, v, x, rows)
        r_d = dual * data.draw(arrays(float, n, elements=near), label="r_d / size")
        s = primal * data.draw(arrays(float, m, elements=met), label="s / size")
        z = np.zeros(laws.width)
        z[:len(rows)] = multiplier * data.draw(arrays(float, len(rows), elements=met),
                                               label="z / size")
        z_rows = np.zeros(m)
        z_rows[rows] = z[:len(rows)]
        screened, held = verdict_at_point(laws, 0, f, v, x, rows, s, z_rows, r_d)
        y = np.concatenate([x, np.zeros(laws.width), r_d, z, s])
        verdict = mpc._verdict(laws, 0, f, v, y, rows, z.min(), s.min())
    assert verdict == (held if screened else None)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_residual_map_is_the_point_residual_and_keeps_every_verdict(data):
    # on plain QpProblem stacks (theta = [1]) and smoother ticks at random
    # theta, solved from the cold solve's working set and a random one: at
    # every candidate of every round, the law's stationarity residual at
    # theta is E x + f + W_A^T lambda_A formed at its point, within 1e-12 of
    # the size of the terms of both forms; the point oracle's verdict
    # (screen, then held; slacks and multipliers formed at the point) is the
    # same on either residual; a problem whose first candidate the oracle
    # screens leaves the walk in that round, held where the oracle holds it,
    # bit for bit on that candidate's point and multipliers, else
    # unconverged; and a problem no candidate of a round screens walks on or
    # ends unconverged
    qp, theta, sol, laws, f, v, rounds = solve_recording_rounds(data)
    assume(laws is not None)
    tiny, n = np.finfo(float).tiny, laws.x_free.shape[1]
    for i, (problems, (law, work, count)) in enumerate(rounds):
        later = rounds[i + 1][0] if i + 1 < len(rounds) else []
        decided, points = {}, []  # decided: the first candidate the oracle screens, if held
        for c, p in enumerate(problems):
            rows = work[c, :count[c]]
            x, lam, r_map, _, _ = law_terms(laws, law[c], theta[p])
            lam = lam[:count[c]]
            points.append((x, rows, lam))
            if not np.isnan(law[c]).any():
                r_point, size = stationarity_at_point(laws.e[p], qp.f[p], qp.w, x, rows, lam)
                size += (np.abs(laws.e[p]) @ np.abs(law[c, :n]) + np.abs(laws.p_f[p])
                         + np.abs(qp.w[rows]).T @ np.abs(law[c, n:n + count[c]])) @ np.abs(theta[p])
                assert np.all(np.abs(r_map - r_point) <= 1e-12 * size + tiny)
                s, z, _, _ = slacks_at_point(laws, p, v[p], x, rows, lam)
                verdict = verdict_at_point(laws, p, f[p], v[p], x, rows, s, z, r_point)
                assert verdict == verdict_at_point(laws, p, f[p], v[p], x, rows, s, z, r_map)
                if verdict[0] and p not in decided:
                    decided[p] = c if verdict[1] else None
        for p in set(problems):  # a screened problem leaves: held on its point, or unconverged
            if p not in decided:
                assert p in later or not sol.solved[p]
                continue
            assert p not in later and sol.solved[p] == (decided[p] is not None)
            if decided[p] is not None:
                x, rows, lam = points[decided[p]]
                expected = np.zeros(len(qp.w))
                expected[rows] = np.maximum(lam, 0.0)
                assert same_bits(sol.delta_u[p], x) and same_bits(sol.lam[p], expected)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_slack_map_is_the_point_slack_and_keeps_every_verdict(data):
    # on the cases of test_residual_map_is_the_point_residual...: at every
    # candidate of every round, the law's unit-row slacks at theta are V /
    # |W_i| - (W_i / |W_i|) x formed at its point (1 on a row that cannot
    # activate) and its unit multipliers are its multipliers times their
    # rows' norms (0 past its rows), each within 1e-12 of the size of the
    # terms of both forms; and the point oracle's verdict (screen, then
    # held) is the same on the law's slacks and unit multipliers as on
    # those formed at the point
    qp, theta, _, laws, f, v, rounds = solve_recording_rounds(data)
    assume(laws is not None)
    tiny, n, width = np.finfo(float).tiny, laws.x_free.shape[1], laws.width
    for problems, (law, work, count) in rounds:
        for c, p in enumerate(problems):
            if np.isnan(law[c]).any():
                continue
            rows, size = work[c, :count[c]], np.abs(law[c]) @ np.abs(theta[p])
            x, lam, r_d, z_law, s_law = law_terms(laws, law[c], theta[p])
            assert not z_law[count[c]:].any()
            z_map = np.zeros(len(qp.w))
            z_map[rows] = z_law[:count[c]]
            s, z, s_size, z_size = slacks_at_point(laws, p, v[p], x, rows, lam[:count[c]])
            s_size += size[2 * (n + width):] + laws.w_unit_abs[p] @ (
                np.abs(law[c, :n]) @ np.abs(theta[p]))
            z_size[rows] += (size[n:n + count[c]] * laws.scale[rows, 0]
                             + size[2 * n + width:][:count[c]])
            assert np.all(np.abs(s_law - s) <= 1e-12 * s_size + tiny)
            assert np.all(np.abs(z_map - z) <= 1e-12 * z_size + tiny)
            assert (s_law[~laws.rows[p]] == 1.0).all()
            assert (verdict_at_point(laws, p, f[p], v[p], x, rows, s_law, z_map, r_d)
                    == verdict_at_point(laws, p, f[p], v[p], x, rows, s, z, r_d))


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
    # tries them, their shift and the two merged (the jerk rows that both
    # mark, the other rows either marks), and a replaced state walks from the empty
    # set again.  A law holds each of these ticks, which takes no iteration
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
    assert [len(sets) for sets in solves] == [1, 3, 1]
    assert same_bits(solves[0][0], empty) and same_bits(solves[2][0], empty)
    assert all(same_bits(a, b) for a, b in zip(solves[1], step_guesses(carried, sm.cfg.n_c)))


def test_unconverged_axis_carries_no_working_set(monkeypatch):
    # the conflicting limits of test_step_bounded_on_conflicting_limits at a
    # reference of 3 on the first three axes and 0.9 on the others, with
    # each tick's solve made to fail on the first three axes from tick 34
    # on: an axis whose solve did not converge leaves no working set; the
    # others keep theirs, with rows active
    cfg, limits = MpcConfig(), limits_of(vel=1.0, acc=10.0, jerk=20.0)
    shape = (6, 6 * cfg.n_c)  # per axis: jerk, acceleration and velocity row pairs
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    for tick in range(35):
        if tick == 34:
            monkeypatch.setattr(mpc, "solve_qp", failed_solve(solve_qp, np.arange(N_AXES) < 3))
        res = sm.step(np.array([3.0, 3.0, 3.0, 0.9, 0.9, 0.9]))
        assert res.converged == (tick < 34)
    working = sm.state.working_set
    assert working.shape == shape
    assert not working[:3].any() and working[3:].any()
    assert res.active_count > working.sum()
    # every axis unconverged: the set is empty, and keeps its shape
    monkeypatch.setattr(mpc, "solve_qp", failed_solve(solve_qp))
    res = sm.step(np.full(6, 3.0))
    assert not res.converged and res.active_count > 0
    assert sm.state.working_set.shape == shape and not sm.state.working_set.any()


def fallback_increments(state: SmootherState) -> np.ndarray:
    """The first increment of each axis's shifted previous plan: the plan's
    second increment, or, where the plan holds one, its last, which ends the
    plan at zero acceleration."""
    plan = state.plan
    if not plan.size:
        return np.zeros(N_AXES)
    return plan[:, 1] if plan.shape[1] > 1 else -state.u_prev - plan[:, 1:].sum(axis=1)


@pytest.mark.parametrize("n_c", [2, 3, 10])
def test_an_unconverged_tick_applies_the_shifted_previous_plan(n_c, monkeypatch):
    # under the conflicting limits, each solve made to fail on ticks 20-24
    # (in the ramp up, the QP active) and on the first tick: a failed axis
    # applies the first increment of the plan the last tick stored, shifted
    # one step, and keeps the acceleration and jerk bounds; the tick reads
    # unconverged; the plan it stores is that shifted plan, and the next
    # solved tick converges again.  From rest, with no plan, the failed tick
    # applies 0
    cfg, limits = MpcConfig(n_c=n_c), limits_of(vel=1.0, acc=10.0, jerk=20.0)
    T = cfg.sample_time
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    prev = prev_acc = np.zeros(6)
    for tick in range(40):
        failing = tick == 0 or 20 <= tick < 25
        before = copy.copy(sm.state)
        if failing:
            expected = fallback_increments(before)
            with monkeypatch.context() as patch:
                patch.setattr(mpc, "solve_qp", failed_solve(solve_qp))
                res = sm.step(np.full(6, 3.0))
            assert not res.converged and same_bits(res.delta_u, expected)
            assert sm.state.plan.shape == (N_AXES, n_c - 1)
            if tick:
                assert same_bits(sm.state.plan[:, :-1], before.plan[:, 1:])
        else:
            res = sm.step(np.full(6, 3.0))
            assert res.converged
        acc = (res.twist - prev) / T
        assert np.abs(acc).max() <= 10.0 + 1e-6
        assert np.abs((acc - prev_acc) / T).max() <= 20.0 + 1e-6
        assert np.abs(res.twist).max() <= 1.0 + 1e-6
        prev, prev_acc = res.twist, acc


def tick_vectors_oracle(cfg, limits, state, target, u_prev):
    """f and V of a tick from the stacked setpoint and the paired row offsets,
    with the terminal zero acceleration eliminated (eliminate_terminal)."""
    f_s, phi_t_q, v_zero = scalar_tick_parts(cfg, limits)
    free = f_s @ state.reshape(-1, N_AXES)
    setpoint = build_setpoint(target, cfg.n_p).reshape(-1, N_AXES)
    f = -(phi_t_q @ (setpoint - free).T[:, :, None])[:, :, 0]
    offset = np.vstack([np.zeros((cfg.n_c, N_AXES)), np.tile(u_prev, (cfg.n_c, 1)),
                        free[:cfg.n_c]])
    v = v_zero + np.stack([offset, -offset], axis=1).reshape(-1, N_AXES).T
    e, w = increment_forms(cfg)
    reduced = [eliminate_terminal(*forms) for forms in zip(e, f, [w] * N_AXES, v, u_prev)]
    return np.array([r[1] for r in reduced]), np.array([r[3] for r in reduced])


def assert_steps_are_the_generic_solve(cfg, limits, holds):
    """The checks of test_step_is_the_generic_solve_bit_for_bit on a smoother
    of cfg and limits stepped toward each target of holds for its hold."""
    n_c = cfg.n_c
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    solves, found = [], []
    solve, locate = mpc.solve_qp, mpc._Laws.locate

    def recorded(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    def located(*args):
        found.append(locate(*args))
        return found[-1]

    for target, hold in holds:
        for _ in range(hold):
            state, u_prev = sm.state.augmented.copy(), sm.state.u_prev.copy()
            working = sm.state.working_set
            guesses = step_guesses(working, n_c)
            qp = _tick_qp(sm._laws, state, target, u_prev)
            f, v = tick_vectors_oracle(cfg, limits, state, target, u_prev)
            f_size, v_size = tick_sizes(cfg, limits, state, target, u_prev)
            assert qp.f.shape == f.shape and same_bits(np.isinf(qp.v), np.isinf(v))
            assert np.all(np.abs(qp.f - f) <= 1e-12 * f_size + np.finfo(float).tiny)
            finite = np.isfinite(v)
            assert np.all(np.abs(qp.v[finite] - v[finite]) <= 1e-12 * v_size[finite])
            bare = QpProblem(qp.e, qp.f, qp.w, qp.v)
            fresh = _Laws(bare.e, bare.w, bare.f[..., None], bare.v[..., None],
                          np.isfinite(bare.v))
            assert all(np.array_equal(getattr(sm._laws, name), getattr(fresh, name)) for name in
                       ("e", "w", "finite", "e_inv", "e_abs", "e_rows", "scale", "floor", "rows",
                        "w_unit", "w_unit_abs"))
            x_free = -fresh.e_inv @ bare.f[:, :, None]
            # a free tick (no row broken at x_free) forms no QP: its step is
            # the bare solve's, bit for bit
            free = ((bare.w @ x_free)[..., 0] - bare.v <= 1e-12).all()
            before, carried = len(solves), copy.copy(sm.state)
            found.clear()
            with mock.patch.object(mpc, "solve_qp", recorded), \
                    mock.patch.object(mpc._Laws, "locate", located):
                step = sm.step(target)
            assert len(solves) == before + (not free) and len(found) <= 1
            if found and found[0]:  # the bare solve's laws are new: it gets the located sets
                guesses += (guesses[-1].copy(),)
                for axis, rows in found[0].items():
                    guesses[-1][axis] = rows
            expected = solve_qp(bare, working_sets=guesses)
            sol = expected if free else solves[-1]
            assert (step.iterations, step.converged, step.active_count, step.max_violation) == (
                sol.iterations, sol.converged, sol.active_count, sol.max_violation)
            assert same_bits(sol.solved, expected.solved)
            assert sol.iterations == expected.iterations
            assert same_bits(sm.state.working_set, (sol.lam > 0.0) & sol.solved[:, None])
            np.testing.assert_allclose(sol.delta_u, expected.delta_u, rtol=0, atol=1e-9)
            assert sol.max_violation == pytest.approx(expected.max_violation, rel=0, abs=1e-9)
            # an axis whose solve did not converge applies its shifted plan
            assert same_bits(step.delta_u, np.where(sol.solved, sol.delta_u[:, 0],
                                                    fallback_increments(carried)))


def generic_solve_case(data):
    """A configuration, limits and targets with their holds for a smoother:
    QP-active sequences with infinite velocity rows, a zero jerk bound on
    some axes (signed zeros in V) and n_c = 2 included."""
    n_c = data.draw(st.integers(2, 4), label="n_c")
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
    # a tick's f and V are the paired-offset oracle's, with the terminal
    # zero acceleration eliminated, within 1e-12 of their terms' size (f
    # also of the smallest normal number, where the terms underflow), and V
    # infinite on the same rows.  A step solves its tick on the _Laws built
    # once per smoother; the public solve_qp of the same tick as a bare
    # QpProblem builds its own on the call, with the same stop test.  The step
    # tries the carried and the shifted working set (the empty set where
    # none is carried), then a law it locates among those its stack stored
    # before, or walks from them, on the smoother's laws evaluated at its
    # theta; the bare problem, whose laws are new on each call and locate
    # nothing, tries the same sets and the step's located ones, and walks,
    # on its own laws at theta = [1]: the same verdicts and iterations, and
    # points within 1e-9 of each other (at a degenerate vertex the two may
    # hold different rows, with the same point).  A zero jerk bound leaves
    # plans from an acceleration that rounding made positive no way back to
    # rest, and such a tick applies its shifted previous plan
    assert_steps_are_the_generic_solve(*generic_solve_case(data))


def assert_lazy_steps_as_eager(cfg, limits, targets, pair=None):
    """A smoother stepped toward each of targets and its twin stepped with
    its law rounds decided by on_laws_oracle, which forms every size of the
    stop test at every candidate's point, give the same StepResult and
    SmootherState, bit for bit; returns the two (new ones, or those of
    `pair`)."""
    lazy, eager = pair or [TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
                           for _ in range(2)]
    for target in targets:
        step = lazy.step(target)
        with mock.patch.object(mpc, "_on_laws", on_laws_oracle):
            twin = eager.step(target)
        for name in ("twist", "delta_u", "iterations", "converged", "active_count",
                     "max_violation"):
            assert same_bits(getattr(step, name), getattr(twin, name)), name
        assert same_bits(step.pose.vec8(), twin.pose.vec8())
        assert_same_state(lazy.state, eager.state)
    return lazy, eager


def assert_same_state(state: SmootherState, expected: SmootherState) -> None:
    """Every field of state is expected's, bit for bit."""
    for name in ("augmented", "u_prev", "working_set"):
        assert same_bits(getattr(state, name), getattr(expected, name)), name
    assert same_bits(state.pose.vec8(), expected.pose.vec8())
    assert same_bits(state.plan, expected.plan)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lazy_scales_step_as_eager_ones_bit_for_bit(data):
    # the stop test forms a candidate's sizes only where its verdict
    # depends on them (the shortcuts of _verdict): a step takes the same
    # verdicts, points and multipliers as one that forms every size of
    # every candidate
    cfg, limits, holds = generic_solve_case(data)
    assert_lazy_steps_as_eager(cfg, limits, [t for t, hold in holds for _ in range(hold)])


def no_location(*args):
    """An injected failure of _Laws.locate: it finds no law."""
    return {}


def own_stack(cfg, limits) -> TwistSmoother:
    """A smoother on a QP stack that no other smoother shares."""
    mpc._stack = (None, None)
    return TwistSmoother(cfg, limits, UnitDualQuaternion.identity())


def test_lazy_scales_step_as_eager_ones_on_recorded_walks():
    # smooth-tight seed 1: episode 0 up to tick 147, whose walk takes 24
    # rounds, and episode 1 up to tick 147, the swaps of
    # test_a_row_that_depends_on_fewer_than_n_working_rows_swaps_in (24
    # rounds: a joined set with no law takes the round that finds it).  The
    # pair walks with the location patched out; a second pair on the same
    # stack, which holds the laws the walks ended on, locates them in one
    # round more and steps alike
    limits, rounds, of = limits_of(acc=1.0, jerk=50.0), [], mpc._Laws.of
    with mock.patch.object(mpc._Laws, "of", lambda *args: rounds.append(1) or of(*args)):
        for episode, ticks, walk in ((0, 148, 24), (1, 148, 24)):
            refs = smooth_tight_references([1, episode], ticks)
            walked = assert_lazy_steps_as_eager(MpcConfig(), limits, refs[:-1])
            rounds.clear()
            with mock.patch.object(mpc._Laws, "locate", no_location):
                assert_lazy_steps_as_eager(MpcConfig(), limits, refs[-1:], walked)
            assert len(rounds) == 2 * walk  # the lazy smoother's and its twin's
            located = assert_lazy_steps_as_eager(MpcConfig(), limits, refs[:-1])
            rounds.clear()
            assert_lazy_steps_as_eager(MpcConfig(), limits, refs[-1:], located)
            assert len(rounds) == 2 * 2 and located[0]._laws is walked[0]._laws
            assert_same_state(located[0].state, walked[0].state)


@pytest.mark.parametrize("limits", [limits_of(acc=1.0, jerk=20.0),
                                    limits_of(vel=1.0, acc=10.0, jerk=20.0)])
@pytest.mark.parametrize("huge", [3e9, 1e100, 1e150])
def test_lazy_scales_step_as_eager_ones_on_large_targets(limits, huge):
    # targets with scales up to beyond 1e150, still bounded: ticks that
    # converge at 3e9 and end unconverged at 1e100 and 1e150
    assert_lazy_steps_as_eager(MpcConfig(), limits,
                               [np.full(6, 0.3), np.full(6, huge), np.full(6, huge)])


def test_step_is_the_generic_solve_at_a_degenerate_vertex():
    # a draw of the test above: on the 7th tick axis vy's carried and
    # shifted sets both fail, at a vertex with du_3 = 0 whose x_3 rounds to
    # -1.7e-17 on the smoother's laws and +2.4e-17 on the bare problem's; a
    # screen and a walk with exact-sign choices can take different paths there
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
    y = _tick_qp(laws, state, target, u_prev).x  # (6, n_c - 1)
    du = y @ terminal_elimination(cfg.n_c).T - u_prev[:, None] * (np.arange(cfg.n_c) == cfg.n_c - 1)
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
    # step's working-set guesses, followed by the step's state update (the
    # plan it stores is the solution), bit for bit, whatever working set and
    # plan it carried in
    n_p = data.draw(st.integers(2, 12), label="n_p")
    n_c = data.draw(st.integers(2, min(n_p, 4)), label="n_c")
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
    plan = data.draw(arrays(float, (N_AXES, n_c - 1), elements=st.floats(-1.0, 1.0)), label="plan")
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    sm.state = SmootherState(state.copy(), u_prev.copy(), pose, carried.copy())
    sm.state.plan = plan

    qp = _tick_qp(sm._laws, state, target, u_prev)
    assert (qp.residual <= 1e-12).all()
    sol = solve_qp(qp, working_sets=step_guesses(carried, n_c))
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
    assert same_bits(after.plan, sol.delta_u)


def test_a_free_tick_forms_no_qp(monkeypatch):
    # under the packaged limits the smoother's QP never activates: each tick
    # calls neither solve_qp nor the stop test nor a law, and mpc.exp (which
    # perfbench/tracing.py counts) once
    calls = []
    for owner, name in ((mpc, "solve_qp"), (mpc, "_verdict"), (mpc._Laws, "of"),
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
        assert not sm.state.working_set.any()


class ReadCounted(np.ndarray):
    """A view of an array that counts the item reads made through it."""

    def __getitem__(self, key):
        self.reads += 1
        return np.asarray(self)[key]


def recorded_verdicts(monkeypatch) -> list:
    """Patch _verdict to record, per call, its d, whether its a meets the
    floor, its verdict and whether it read its problem's rows that can
    activate (to form its scaled bounds) and its unit rows (to form its
    sizes)."""
    calls, verdict = [], mpc._verdict

    def recorded(laws, *args):
        arrays = laws.rows, laws.w_unit_abs
        laws.rows, laws.w_unit_abs = views = [a.view(ReadCounted) for a in arrays]
        for view in views:
            view.reads = 0
        try:
            out = verdict(laws, *args)
        finally:
            laws.rows, laws.w_unit_abs = arrays
        d, a = args[-2:]
        calls.append((d, a >= laws.floor, out, *(view.reads > 0 for view in views)))
        return out

    monkeypatch.setattr(mpc, "_verdict", recorded)
    return calls


def test_a_tick_held_in_one_round_forms_no_scales(monkeypatch):
    # smooth-tight seed 1, episode 0, on a stack that starts empty: the stop
    # test forms a candidate's scaled bounds and sizes, its own problem's at
    # its point, only where its verdict depends on them (_verdict).  A tick
    # that its carried or shifted set settles in one round forms no size,
    # and most form no scaled bound either (only a slack below the floor
    # reads them, for its early reject); so does a tick that locates a law
    # for each problem those sets leave (in one round more; the location
    # decides no candidate) and a tick that walks
    calls, rounds, solves, located = recorded_verdicts(monkeypatch), [], [], []
    of, solve, locate = mpc._Laws.of, mpc.solve_qp, mpc._Laws.locate

    def recorded(laws, problems, *args):
        before = len(calls)
        found = locate(laws, problems, *args)
        assert len(calls) == before
        located.append(len(found) == len(problems))
        return found

    monkeypatch.setattr(mpc._Laws, "of", lambda *args: rounds.append(1) or of(*args))
    monkeypatch.setattr(mpc._Laws, "locate", recorded)
    monkeypatch.setattr(mpc, "solve_qp", lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    counts = {"one round": [0, 0], "located": [0, 0], "walked": [0, 0]}
    for ref in smooth_tight_references([1, 0]):
        for recorded_calls in (calls, rounds, solves, located):
            recorded_calls.clear()
        step = sm.step(ref)
        assert step.converged and step.iterations == 0
        assert not any(sizes for *_, sizes in calls)
        if rounds:
            assert len(solves) == 1
            kind = ("one round" if len(rounds) == 1 else "located" if located == [True]
                    else "walked")
            assert kind != "located" or len(rounds) == 2
            counts[kind][0] += 1
            counts[kind][1] += not any(bounds for *_, bounds, _ in calls)
    assert counts == {"one round": [177, 164], "located": [12, 9], "walked": [11, 7]}


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
    # every case has a row x = -E^-1 f breaks, so a solve would walk: the
    # shapes are checked before it
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape {expected}")) as err:
        solve_qp(qp)
    assert f"got {given}" in str(err.value)


@pytest.mark.parametrize("qp, given", [
    (QpProblem(np.eye(2), TWO[None, None], np.eye(2), np.ones(2)), "f (1, 1, 2), w (2, 2)"),
    (QpProblem(np.eye(2), TWO, np.ones(2), np.ones(2)), "f (2,), w (2,)"),
    (QpProblem(np.eye(2), TWO, np.eye(2)[None], np.ones(2)), "f (2,), w (1, 2, 2)"),
], ids=["f-3-d", "w-1-d", "w-3-d"])
def test_solve_qp_rejects_f_and_w_of_other_ranks(qp, given):
    # f is neither (n,) nor (k, n), or w is not (m, n): no other shape can
    # be read off them
    with pytest.raises(ValueError, match=re.escape(
            f"QP f must be (n,) or (k, n) and w (m, n), got {given}")):
        solve_qp(qp)


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
    # it is, and the step raises FloatingPointError before it writes anything
    # (under acc/jerk bounds a huge target ends its solve unconverged, and
    # the tick applies its shifted previous plan instead):
    # - 1e300 unbounded gives a finite twist too large for exp;
    # - 1e307 overflows -E^-1 f, and the solve ends unconverged;
    # - 1e12 on the linear axes, unbounded from a rotated pose, gives a twist
    #   exp keeps unit but whose product with the pose leaves the unit set
    #   (<primary, dual> = -2.7e-08, past UNIT_TOL).
    # Warnings are off: an overflow warning raised as an error would stop the
    # step before the overflow reached its result
    bounded, unbounded = limits_of(acc=1.0, jerk=20.0), LimitSet.unbounded()
    rest = UnitDualQuaternion.identity()
    turned = exp(PureDualQuaternion.from_vec6([0.4, -0.3, 0.2, 0.1, 0.2, 0.3]))
    linear = np.array([0.0, 0.0, 0.0, 1e12, 1e12, 1e12])
    for limits, pose, huge, match in (
            (unbounded, rest, np.full(6, 1e300), r"^smoothed twist overflows the pose: \[\d"),
            (bounded, rest, np.full(6, 1e307), r"^QP overflows at target twist \[1e\+307, "),
            (unbounded, turned, linear, r"^smoothed twist overflows the pose: \[\d")):
        sm, twin = (TwistSmoother(MpcConfig(), limits, pose) for _ in range(2))
        target = np.full(6, 0.3)
        with np.errstate(all="ignore"):
            for smoother in (sm, twin):
                smoother.step(target)
            assert_unmoved_by(lambda: sm.step(huge), FloatingPointError, match,
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
    assert res.converged and res.iterations == 0
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
    assert stack.iterations == max(s.iterations for s in singles) == 0
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
    with pytest.raises(ValueError, match="^acc limits must have 6 components$"):
        LimitSet(-INF6, INF6, -np.ones(5), np.ones(5), -INF6, INF6)
    np.testing.assert_array_equal(LimitSet.unbounded().vel_max, INF6)  # +-inf stay legal


def test_mpcconfig_validation():
    with pytest.raises(ValueError, match="n_c <= n_p"):
        MpcConfig(n_c=5, n_p=3)
    for n_c in (0, 1):
        with pytest.raises(ValueError, match="^need 2 <= n_c <= n_p"):
            MpcConfig(n_c=n_c, n_p=3)
    with pytest.raises(ValueError, match="so n_c = 1 leaves no variable$"):
        MpcConfig(n_c=1, n_p=1)
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
    for name in ("q_weight", "r_weight"):
        with pytest.raises(ValueError, match="^q_weight and r_weight must have 6 entries$"):
            MpcConfig(**{name: np.ones(7)})


@pytest.mark.parametrize("name, value", [("n_c", 2.0), ("n_p", 50.5), ("n_c", "3"), ("n_c", True),
                                         ("n_p", True), ("n_c", np.True_), ("n_p", np.False_)])
def test_mpcconfig_rejects_a_horizon_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        MpcConfig(**{name: value})


def test_mpcconfig_takes_numpy_integer_horizons():
    cfg = MpcConfig(n_c=np.int64(3), n_p=np.int32(5))
    sm = TwistSmoother(cfg, limits_of(acc=1.0), UnitDualQuaternion.identity())
    assert sm.step(np.ones(6)).converged


# ---------------------------------------------------------------------------
# dual active-set solver


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
    sol = solve_qp(_TickQp(e, f, w, v, laws, np.ones((3, 1)), *_optimum(laws, f, v)),
                   working_sets=[mask])
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
    # the rows cannot all hold: the walk stops where a joining row depends
    # on the working rows and a dual step on it zeroes no multiplier, and
    # returns a finite, unconverged result after the rounds it took
    sol = solve_qp(qp)
    assert not sol.converged and sol.iterations > 0
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


# E = 1e-7 I next to the row (1, 1), whose law's x cancels -E^-1 f = (1e7,
# 1e7), next to a stack-mate with E = I
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
    # never raises or warns (warnings are errors), returns finite values,
    # each problem as if alone (its rounds too); converged problems meet the
    # KKT conditions and infeasible ones are reported
    qp, infeasible = stack_and_infeasible
    stack = solve_qp(qp)
    assert np.all(np.isfinite(stack.delta_u)) and np.all(np.isfinite(stack.lam))
    rounds = []
    for p in range(len(qp.f)):
        sol = solve_qp(QpProblem(qp.e[p], qp.f[p], qp.w, qp.v[p]))
        rounds.append(sol.iterations)
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
    assert stack.iterations == max(rounds)


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


def test_solve_is_nan_on_a_singular_problem_only():
    # mpc._solve calls LAPACK's solve gufunc without np.linalg.solve's
    # wrapper: a stack with one exactly singular matrix (a zero row) comes
    # back NaN on that problem only, unwarned, and bit for bit
    # np.linalg.solve on the others
    rng = np.random.default_rng(37)
    mat, rhs = rng.normal(size=(4, 5, 5)), rng.normal(size=(4, 5, 3))
    mat[2, 3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = mpc._solve(mat, rhs)
    assert np.isnan(sol[2]).all()
    for p in (0, 1, 3):
        assert same_bits(sol[p], np.linalg.solve(mat[p], rhs[p]))


# ---------------------------------------------------------------------------
# working-set warm start


def test_solver_converges_from_a_row_met_with_equality_at_the_start():
    # the optimum is x = 0 on the row x_1 + x_2 <= 0, with multiplier 1000,
    # where -E^-1 f = (1e8, 1e8): the walk joins the row to the empty set and
    # holds it exactly
    sol = solve_qp(QpProblem(1e-5 * np.eye(2), np.array([-1000.0, -1000.0]),
                             np.array([[1.0, 1.0]]), np.array([0.0])))
    assert sol.converged and sol.iterations == 0
    assert np.abs(sol.delta_u).max() <= 1e-9
    assert sol.lam[0] == pytest.approx(1000.0, rel=1e-6)


def test_solver_multipliers_on_opposite_tiny_bound_rows():
    # -x <= 1e-12 and x <= 1e-12 pin x; the optimum x = -1e-12 holds the
    # first row with multiplier 1 - 1e-13, and the second is slack
    sol = solve_qp(QpProblem(np.array([[0.1]]), np.array([1.0]),
                             np.array([[-1.0], [1.0], [-1.0]]), np.array([1e-12, 1e-12, np.inf])))
    assert sol.converged
    np.testing.assert_allclose(sol.lam, [1.0, 0.0, 0.0], rtol=0, atol=1e-6)


def test_step_converges_on_a_large_finite_target():
    # du = 0 meets every row, so the QP is feasible at any target
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=20.0), UnitDualQuaternion.identity())
    assert sm.step(np.full(6, 0.3)).converged
    assert sm.step(np.full(6, 10 ** 9.5)).converged


def test_step_on_a_huge_target_ends_without_a_warning():
    # a candidate |x| above 1e154 overflowed x . x in the walk's early
    # reject, and the walk's objective overflows there too; under
    # filterwarnings = error both huge ticks must end as they end,
    # unconverged after the rounds they take, on the shifted previous plan
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=20.0), UnitDualQuaternion.identity())
    assert sm.step(np.full(6, 0.3)).converged
    for rounds in (2, 3):
        expected = fallback_increments(sm.state)
        res = sm.step(np.full(6, 1e159))
        assert (res.converged, res.iterations) == (False, rounds)
        assert same_bits(res.delta_u, expected)


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
    # the problem has a violated row at -E^-1 f
    assert (qp.w @ np.linalg.solve(qp.e, -qp.f) > qp.v).any()
    for sets in ([working], [working, working]):
        warm = solve_qp(qp, working_sets=sets)
        if case.startswith("infeasible"):
            # the rows cannot all hold: each walk ends on the certificate
            assert not warm.converged and not cold.converged
            assert warm.max_violation > FEAS_TOL and cold.max_violation > FEAS_TOL
        else:
            # a walk solves it: from the empty set the rows join one by
            # one; a set of n + 1 or of dependent rows has no law, and the
            # walk goes on from the empty set; the set of the optimal rows and
            # the active row of a pair drops its negative multiplier; a
            # multiplier of -1e-13 passes the screen, whose floor is -1e-10
            # of the multiplier's scale.  No iteration, the cold verdict and
            # the cold point within 1e-9
            assert warm.iterations == 0 and warm.converged == cold.converged
            assert np.all(warm.lam >= 0.0)
            np.testing.assert_allclose(warm.delta_u, cold.delta_u, rtol=0, atol=1e-9)


def test_optimal_working_set_solves_without_iterations():
    qp = smoother_axis_qp()
    cold = solve_qp(qp)
    warm = solve_qp(qp, working_sets=[rows_of(len(qp.v), []), cold.lam > 0.0])
    assert cold.converged and cold.iterations == 0
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
    # of the cold point, on the scale that the cold point meets: a held
    # law meets the stop test, whose residuals are 1e-10 of their terms'
    # size (and of 1), which E^-1 amplifies by up to its largest row sum
    cfg, limits, state, u_prev, target = draw_tick(data)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    qp = _tick_qp(sm._laws, state, target, u_prev)
    m = 6 * cfg.n_c
    working = data.draw(arrays(bool, (N_AXES, m), elements=st.booleans()), label="working")
    walks, on_laws = [], mpc._on_laws

    def recorded(*args):
        walks.append(on_laws(*args))
        return walks[-1]

    with mock.patch.object(mpc, "_on_laws", recorded):
        sol = solve_qp(qp, working_sets=[working, shifted_rows(working, cfg.n_c)])
    cold = solve_qp(QpProblem(qp.e, qp.f, qp.w, qp.v))
    assert same_bits(sol.solved, cold.solved)
    finite = np.isfinite(qp.v)
    for p in (walks[0][0] if walks else []):
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


def test_a_set_with_no_law_walks_from_the_empty_set():
    # two equal rows have no law, and x_free breaks both: the walk goes on
    # from the empty set, where the first row joins and holds, and lands
    # bit for bit on the cold walk's point
    qp = QpProblem(np.eye(1), np.array([-2.0]), np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
    sets, of = [], mpc._Laws.of

    def recorded(laws, problems, masks):
        sets.append(masks.tolist())
        return of(laws, problems, masks)

    with mock.patch.object(mpc._Laws, "of", recorded):
        warm = solve_qp(qp, working_sets=[rows_of(2, [0, 1])])
    assert sets == [[[True, True]], [[False, False]], [[True, False]]]
    assert_same_solution(warm, solve_qp(qp))
    assert warm.iterations == 0 and warm.converged and warm.delta_u == 1.0


def test_a_warm_stack_steps_like_a_cold_one_under_track_tight_limits():
    # the laws cached decide no step: a smoother whose stack holds the laws
    # of another reference sequence steps bit for bit as one on a new stack,
    # under the track-tight limits, whose velocity rows are active too
    limits, refs = limits_of(vel=1.0, acc=10.0, jerk=20.0), 3.0 * smooth_tight_references([1, 0])
    cold = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())
    cold_steps = [cold.step(ref) for ref in refs]
    assert all(step.converged for step in cold_steps)
    assert any(step.active_count > 0 for step in cold_steps)
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


def test_the_law_store_on_a_criterion_6_run():
    # acc +-1 and jerk +-50 under smooth-tight's reference: a law holds
    # every tick, the first (from the empty set) and those at reference
    # switches too.  A smoother of a configuration no smoother had is built
    # with no law; its stack keeps every law the run builds in one dense
    # store: per slot the law, its x map, its multiplier map and its
    # stationarity residual map of n x p floats each (n = n_c - 1 = 9), its
    # unit multiplier map (n x p) and its unit-row slack map (m x p, m =
    # 6 n_c = 60), its rows' mask, its rows in order (working rows first; n
    # of them) and their count, and its class.  The store owns its arrays (a
    # law that viewed its build batch would keep the whole batch while the
    # stack lives), which grow by doubling, so they hold fewer than twice
    # the slots in use.  Every set with no law points at slot 0, whose maps
    # are all NaN and which has no rows and no class; every other slot is
    # one set's, and no law is NaN
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    laws = sm._laws
    assert not laws.cache and laws.size == 1
    assert all(sm.step(ref).converged for ref in smooth_tight_references([1, 0]))
    count = laws.size
    lawful = sorted(slot for slot in laws.cache.values() if slot)
    assert lawful == list(range(1, count)) and 0 in laws.cache.values()
    # _CACHED bounds the bytes of the slots in use: 2048 of these 96-row slots
    assert laws.slot_bytes == 8 * 96 * 6 and mpc._CACHED // laws.slot_bytes == 2048
    assert len(laws.cache) <= 2048 and not laws.evicted and laws.stored == count - 1
    stores = (laws.store, laws.masks, laws.work, laws.count, laws.kind)
    capacity = len(laws.store)
    assert all(store.base is None and len(store) == capacity for store in stores)
    assert count <= capacity < 2 * count
    assert laws.store.shape[1:] == (9 + 9 + 9 + 9 + 60, 6)
    assert sum(store.nbytes for store in stores) == capacity * (8 * 96 * 6 + 60 + 8 * 9 + 8 + 8)
    assert np.isnan(laws.store[0]).all() and not laws.masks[0].any()
    assert laws.count[0] == 0 and laws.kind[0] == -1
    for (kind, rows), slot in laws.cache.items():
        if not slot:
            continue
        assert laws.kind[slot] == kind and laws.masks[slot].tobytes() == rows
        working = np.flatnonzero(laws.masks[slot])
        assert laws.count[slot] == len(working)
        assert laws.work[slot, :len(working)].tolist() == working[:9].tolist()
        assert not np.isnan(laws.store[slot]).any()
        lam, z = laws.store[slot, 9:18], laws.store[slot, 27:36]
        assert not lam[len(working):].any() and not z[len(working):].any()  # 0 past the set's


def test_a_row_that_depends_on_fewer_than_n_working_rows_swaps_in(monkeypatch):
    # smooth-tight seed 1, episode 1, tick 147: the walks of axes wx and vz
    # add rows that depend on the working rows, so the joined sets have no
    # law: acceleration row 31 (u_prev + du_0 + ... + du_5) joins eight
    # working rows, among them acceleration row 27 (u_prev + du_0 + ... +
    # du_3) and jerk rows 9 and 11 (du_4 and du_5), and most others join a
    # vertex of nine.  Each takes a dual step on its least-squares fit,
    # which zeroes the multiplier of one working row, and that row leaves;
    # the walk holds the tick on a law.  The episode stored that law before
    # the tick: the walk runs with the location patched out, and a smoother
    # on the same stack locates the law, with no swap, and steps alike
    swaps, swap = [], mpc._swap

    def recorded(laws, rows, added, lam):
        swaps.append((np.flatnonzero(rows).tolist(), added))
        out = swap(laws, rows, added, lam)
        swaps[-1] += (out,)
        return out

    monkeypatch.setattr(mpc, "_swap", recorded)
    sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    refs = smooth_tight_references([1, 1], ticks=148)
    assert all(sm.step(ref).converged for ref in refs[:-1])
    swaps.clear()
    with mock.patch.object(mpc._Laws, "locate", no_location):
        step = sm.step(refs[-1])
    assert step.converged and step.iterations == 0
    assert swaps == SWAPS_AT_TICK_147
    twin = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0), UnitDualQuaternion.identity())
    assert twin._laws is sm._laws
    for ref in refs[:-1]:
        twin.step(ref)
    swaps.clear()
    assert_same_steps([twin.step(refs[-1])], [step])
    assert not swaps


# (the rows of the set a row joined, that row, and the row its dual step zeroed)
SWAPS_AT_TICK_147 = [
    ([1, 3, 5, 9, 11, 13, 27, 35], 14, 13), ([0, 2, 6, 8, 10, 15, 24, 34], 30, 10),
    ([1, 3, 5, 9, 11, 14, 27, 35], 31, 11), ([0, 2, 6, 8, 15, 24, 30, 34], 11, 8),
    ([1, 3, 5, 9, 14, 18, 27, 31, 35], 29, 9), ([0, 2, 6, 11, 15, 19, 24, 30, 34], 26, 6),
    ([1, 3, 5, 14, 18, 27, 29, 31, 35], 7, 27), ([0, 2, 11, 15, 19, 24, 26, 30, 34], 28, 11),
    ([1, 3, 5, 7, 14, 18, 29, 31, 35], 33, 14), ([0, 2, 15, 19, 24, 26, 28, 30, 34], 32, 15),
    ([1, 3, 5, 7, 18, 29, 31, 33, 35], 16, 35), ([0, 2, 19, 24, 26, 28, 30, 32, 34], 17, 34)]


def assert_same_steps(steps, expected):
    """Each StepResult of `steps` is its peer's in `expected` bit for bit."""
    for a, b in zip(steps, expected, strict=True):
        assert all(same_bits(getattr(a, name), getattr(b, name)) for name in
                   ("twist", "delta_u", "iterations", "converged", "active_count",
                    "max_violation"))
        assert same_bits(a.pose.vec8(), b.pose.vec8())


DEFAULT_SLOT = 8 * 96 * 6  # the bytes of a law slot of MpcConfig() (n_c = 10)


def capped_run(limits, refs, cap: int):
    """The steps of a default smoother along refs, from no shared stack, with
    at most `cap` cached laws (_CACHED the bytes of `cap` slots); the most it
    held after a step, and the keys of the laws each call of _Laws.of built."""
    built, build = [], mpc._Laws._build

    def recorded(laws, problems, masks):
        built.append({(laws.alike[p], mask.tobytes())
                      for p, mask in zip(problems.tolist(), masks)})
        return build(laws, problems, masks)

    mpc._stack = (None, None)
    with mock.patch.object(mpc, "_CACHED", cap * DEFAULT_SLOT), \
            mock.patch.object(mpc._Laws, "_build", recorded):
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
    # a cache of 2 laws drops them all once it holds more, and rebuilds them
    # when used: every step is bit for bit the step at the default cap, where
    # no law is dropped, the cache never holds more than 2, and the stack
    # warns once, the first time it drops the laws
    refs = scale * smooth_tight_references([1, 0])
    with caplog.at_level("WARNING", logger="screwmpc.mpc"):
        steps, _, built = capped_run(limits, refs, mpc._CACHED // DEFAULT_SLOT)
        assert not caplog.records
        capped, held, rebuilt = capped_run(limits, refs, 2)
    assert held <= 2 < len(set().union(*built)) == sum(map(len, built)) < sum(map(len, rebuilt))
    assert_same_steps(capped, steps)
    assert [r.getMessage() for r in caplog.records] == [
        "a QP stack holds more than 2 solution laws: it drops them all, to be rebuilt when used"]


def test_the_law_store_keeps_its_bytes_at_a_long_horizon():
    # n_c = 47: a slot holds 2 (46 + 46) + 282 = 466 rows of 6 floats, so
    # the bytes of 2048 default slots hold 421 of them.  References that
    # switch between +-3 every 5 ticks meet more sets than that: the laws
    # kept never pass _CACHED bytes, and every step is bit for bit the step
    # of a stack that drops no law
    cfg, limits = MpcConfig(n_c=47, n_p=47), limits_of(acc=1.0, jerk=50.0)
    rng = np.random.default_rng(0)
    refs = np.repeat(rng.choice([3.0, -3.0], (20, 6)), 5, axis=0)
    runs = []
    for cached in (mpc._CACHED, 10 ** 12):
        sm = own_stack(cfg, limits)
        with mock.patch.object(mpc, "_CACHED", cached):
            steps, kept = [], []
            for ref in refs:
                steps.append(sm.step(ref))
                kept.append((sm._laws.size - 1) * sm._laws.slot_bytes)
        runs.append((steps, max(kept), sm._laws.evicted))
    (capped, kept, evicted), (uncapped, grown, dropped) = runs
    assert mpc._CACHED // (8 * 466 * 6) == 421
    assert evicted and kept <= mpc._CACHED < grown and not dropped
    assert_same_steps(capped, uncapped)


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


def assert_filled_stack_steps_as_own(cfg, limits, targets) -> int:
    """A smoother on a stack that another smoother filled along the same
    targets and one on a stack that no other shares, stepped from the same
    state toward each target: the same verdicts and iterations, the same
    bits where they hold the same rows, and points within 1e-9 where, at a
    degenerate vertex, they hold different ones; returns how many laws the
    first located."""
    filler = own_stack(cfg, limits)
    for target in targets:
        filler.step(target)
    warm, alone = TwistSmoother(cfg, limits, UnitDualQuaternion.identity()), own_stack(cfg, limits)
    assert warm._laws is filler._laws is not alone._laws
    found, locate = [], mpc._Laws.locate
    for target in targets:
        alone.state = copy.copy(warm.state)
        with mock.patch.object(mpc._Laws, "locate",
                               lambda *args: found.append(locate(*args)) or found[-1]):
            step = warm.step(target)
        expected = alone.step(target)
        assert (step.iterations, step.converged) == (expected.iterations, expected.converged)
        if same_bits(warm.state.working_set, alone.state.working_set):
            assert_same_steps([step], [expected])
            assert_same_state(warm.state, alone.state)
        else:
            np.testing.assert_allclose(step.delta_u, expected.delta_u, rtol=0, atol=1e-9)
    return sum(map(len, found))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_filled_stack_steps_as_one_of_its_own(data):
    # the laws a stack holds decide no step: a smoother locates the laws
    # another smoother's walks ended on, and one on a stack of its own
    # walks to them (assert_filled_stack_steps_as_own)
    cfg, limits, holds = generic_solve_case(data)
    assert_filled_stack_steps_as_own(cfg, limits, [t for t, hold in holds for _ in range(hold)])


def test_a_filled_stack_steps_as_one_of_its_own_with_rows_per_axis():
    # velocity bounds on three axes only: the axes' QPs differ in the rows
    # that can activate, and the location meets each problem's own rows
    vel = np.where(np.arange(6) % 2 == 0, 1.0, np.inf)
    limits = dataclasses.replace(limits_of(acc=10.0, jerk=20.0), vel_min=-vel, vel_max=vel)
    refs = 3.0 * smooth_tight_references([1, 0])
    mpc._stack = (None, None)
    rows = TwistSmoother(MpcConfig(), limits, UnitDualQuaternion.identity())._laws.rows
    assert not (rows == rows[0]).all()
    assert assert_filled_stack_steps_as_own(MpcConfig(), limits, refs) > 0


def test_a_located_law_was_stored_before_the_call_and_alone_passed(monkeypatch):
    # smooth-tight seed 1, episodes 0 and 1 on one stack: a law the location
    # finds was stored before its solve_qp call, and of the laws of its
    # problem's class stored before, it alone has every multiplier at least
    # 0 and a slack of at least laws.floor on every unit row (formed at its
    # point from the scaled bounds), each law evaluated on its own; a problem
    # with none or several locates nothing
    locate, located = mpc._Laws.locate, []

    def checked(laws, problems, theta, before):
        count = laws.size - (laws.stored - before)  # the slots stored before
        stored = [key for key, slot in laws.cache.items() if 0 < slot < count]
        found = locate(laws, problems, theta, before)
        n = laws.x_free.shape[1]
        for p in problems:
            passed = []
            v = np.where(laws.rows[p], laws.p_v[p] @ theta[p] / laws.scale[:, 0], 1.0)
            for kind, rows in stored:
                y = laws.of(np.array([p]), np.frombuffer(rows, dtype=bool)[None])[0][0] @ theta[p]
                if (kind == laws.alike[p] and (y[n:n + laws.width] >= 0.0).all()
                        and (v - laws.w_unit[p] @ y[:n]).min() >= laws.floor):
                    passed.append(rows)
            assert passed == [found[p].tobytes()] if p in found else len(passed) != 1
        located.append(len(found))
        return found

    monkeypatch.setattr(mpc._Laws, "locate", checked)
    for episode in (0, 1):
        sm = TwistSmoother(MpcConfig(), limits_of(acc=1.0, jerk=50.0),
                           UnitDualQuaternion.identity())
        assert all(sm.step(ref).converged for ref in smooth_tight_references([1, episode]))
    assert sum(located) > 0 and 0 in located


@st.composite
def stacks_with_sets(draw):
    """A stack of qp_stacks() and up to two working sets shaped like its v."""
    qp, _ = draw(qp_stacks())
    return qp, draw(st.lists(arrays(bool, qp.v.shape), max_size=2), label="working sets")


# rows 2 and 3 (the first axis, with 2.7e-297 on the others) join a set that
# they depend on: a fit of 0 < d <= 1e-9 whose ratio overflowed in _swap
SWAP_OVERFLOW_STACK = QpProblem(0.1 * np.eye(3)[None], np.zeros((1, 3)), np.array(
    [[-0.0, -1.0, 2.0], [0.0, 1.0, -2.0], [-1.0, -2.7e-297, -2.7e-297], [1.0, 2.7e-297, 2.7e-297],
     [-0.0, -1.0, 2.0]]), np.array([[1.0, -1.0, -1.0, 1.0, -0.0]]))


@settings(max_examples=100, deadline=None)
@given(stack_and_sets=stacks_with_sets())
@example(stack_and_sets=(SWAP_OVERFLOW_STACK, []))
def test_plain_solve_locates_nothing_on_random_stacks(stack_and_sets):
    # a plain QpProblem builds its laws on each call, so none was stored
    # before the call: solve_qp locates none, and gives the same bits with
    # the location patched out
    qp, sets = stack_and_sets
    found, locate = [], mpc._Laws.locate
    with mock.patch.object(mpc._Laws, "locate",
                           lambda *args: found.append(locate(*args)) or found[-1]):
        sol = solve_qp(qp, working_sets=sets)
    assert not any(found)
    with mock.patch.object(mpc._Laws, "locate", no_location):
        expected = solve_qp(qp, working_sets=sets)
    assert all(same_bits(getattr(sol, name), getattr(expected, name))
               for name in ("delta_u", "lam", "iterations", "solved", "max_violation"))


def test_a_row_alone_whose_law_overflows_ends_the_walk_unconverged():
    # E = 1e300 I: the one row's multiplier, (1e9 + 2) / 2e-300, overflows,
    # so the set of that row alone reads as one with no law.  The walk
    # joined it from the empty set: its dual step has no working row to
    # fit (_swap's empty-set guard), and the problem ends unconverged at
    # x_free, with no numeric warning
    swaps, swap = [], mpc._swap
    qp = QpProblem(1e300 * np.eye(2), np.array([-1e300, -1e300]), np.array([[1.0, 1.0]]),
                   np.array([-1e9]))
    with mock.patch.object(mpc, "_swap", lambda *args: swaps.append(
            (args[1].tolist(), args[2])) or swap(*args)):
        sol = solve_qp(qp)
    assert swaps == [([False], 0)]
    assert not sol.converged and sol.iterations == 2
    assert sol.delta_u.tolist() == [1.0, 1.0] and sol.lam.tolist() == [0.0]


def test_swap_forms_its_ratio_only_over_positive_fits():
    # row 2, (1, 1e-300), depends on the working rows 0 and 1 (the unit
    # axes): its fit d = (1, 1e-300) zeroes row 0's multiplier, gives row 2
    # the step 1 and leaves row 1's 1e10, with no numeric warning: no ratio
    # is formed over d <= 1e-9, where 1e10 / 1e-300 overflows
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-300]])
    laws = _Laws(np.eye(2)[None], w, np.zeros((1, 2, 1)), np.ones((1, 3, 1)),
                 np.ones((1, 3), dtype=bool))
    lam = np.array([1.0, 1e10, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mpc._swap(laws, np.array([True, True, False]), 2, lam) == 0
    assert lam.tolist() == [0.0, 1e10, 1.0]


@st.composite
def planted_stacks(draw):
    """A stack of QPs sharing W whose problems each hold a planted working
    set A: its point x* (scaled by 1, 1e3 or 1e6) and multipliers are drawn,
    and f and V fit them, so that A's law reads them back; the other rows'
    unit slacks are drawn too.  A multiplier or a slack may lie just below
    0, between -1e-10 times the bound on its sizes (or the hypot bound) and
    -1e-10, and at 1e6 the law's residual and working rows' slacks pass
    1e-10 in rounding.  A
    slack of 0 leaves a row active with a zero multiplier, so that A with
    that row passes as A does.  The working sets, in a drawn order: A, A
    less a row, A with a row, the empty set, a random set."""
    k, n = draw(st.integers(1, 3), label="k"), draw(st.integers(1, 4), label="n")
    m = draw(st.integers(n, n + 4), label="m")
    w = draw(arrays(float, (m, n), elements=st.floats(-2.0, 2.0)), label="w")
    assume(np.all(np.linalg.norm(w, axis=1) > 0.1))
    a = draw(arrays(float, (k, n, n), elements=st.floats(-2.0, 2.0)), label="a")
    e = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    size = draw(arrays(float, (k, 1), elements=st.sampled_from([1.0, 1e3, 1e6])), label="size")
    x = size * draw(arrays(float, (k, n), elements=st.floats(-1.0, 1.0)), label="x*")
    count = draw(st.integers(0, n), label="|A|")
    order = draw(st.permutations(range(m)), label="rows")
    planted = rows_of(m, order[:count])
    assume(not count or np.linalg.matrix_rank(w[planted]) == count)
    near = st.floats(-12.0, -8.0).map(lambda t: -(10.0 ** t))  # just below 0
    value = st.floats(0.1, 2.0) | near | st.just(0.0)
    lam = np.where(planted, draw(arrays(float, (k, m), elements=value), label="lambda"), 0.0)
    slack = draw(arrays(float, (k, m), elements=value), label="slack")
    norm = np.linalg.norm(w, axis=1)
    v = x @ w.T + np.where(planted, 0.0, slack * norm)
    f = -(e @ x[..., None])[..., 0] - (size * lam) @ w
    sets = [planted, planted & (np.arange(m) != order[0]) if count else planted,
            planted | rows_of(m, order[count:count + 1]), np.zeros(m, dtype=bool),
            draw(arrays(bool, m), label="random set")]
    sets = [np.tile(mask, (k, 1)) for mask in draw(st.permutations(sets), label="order")]
    return QpProblem(e, f, w, v), sets


def assert_round_is_the_oracle(qp, sets, laws_of=None):
    """solve_qp of qp from the working sets `sets` gives the bits it gives
    with each law round decided candidate by candidate (on_laws_oracle),
    each solve on laws of its own (from laws_of, else the plain problem's)."""
    solves = []
    for on_laws in (on_laws_oracle, mpc._on_laws):
        tick = qp if laws_of is None else _tick_qp(laws_of(), *qp)
        with mock.patch.object(mpc, "_on_laws", on_laws):
            solves.append(solve_qp(tick, working_sets=sets))
    expected, sol = solves
    for name in ("delta_u", "lam", "solved", "iterations", "max_violation"):
        assert same_bits(getattr(sol, name), getattr(expected, name)), name


@settings(max_examples=150, deadline=None)
@given(case=planted_stacks())
def test_batched_round_is_the_per_candidate_oracle_bit_for_bit(case):
    # on planted stacks (see planted_stacks) the batched round holds the
    # problems the per-candidate loop holds, at its points and multipliers,
    # bit for bit, in the same rounds; and a law's padded multipliers are
    # +0 at theta, bit for bit, so the round may write them where the law
    # has no row (lam is +0 there)
    qp, sets = case
    rounds, of = [], mpc._Laws.of

    def recorded(laws, problems, masks):
        rounds.append((laws, of(laws, problems, masks)))
        return rounds[-1][1]

    with mock.patch.object(mpc._Laws, "of", recorded):
        assert_round_is_the_oracle(qp, sets)
    for laws, (law, _, count) in rounds:
        for c in range(len(law)):
            lam = law_terms(laws, law[c], np.ones(1))[1][count[c]:]
            assert np.isnan(law[c]).all() or same_bits(lam, np.zeros(len(lam)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_round_is_the_per_candidate_oracle_on_ticks(data):
    # smoother ticks at random theta from the cold solve's set, a random set
    # and its shift, each solve on a stack of its own: the batched round's
    # bits are the per-candidate loop's
    cfg, limits, state, u_prev, target = draw_tick(data)
    model = _scalar_prediction(_scalar_model(cfg.sample_time), cfg.n_p, cfg.n_c)
    qp = _tick_qp(mpc._axis_qp(*model, cfg, limits), state, target, u_prev)
    working = data.draw(arrays(bool, qp.v.shape), label="working")
    sets = [solve_qp(QpProblem(qp.e, qp.f, qp.w, qp.v)).lam > 0.0, working,
            shifted_rows(working, cfg.n_c)]
    assert_round_is_the_oracle((state, target, u_prev), data.draw(st.permutations(sets)),
                               lambda: mpc._axis_qp(*model, cfg, limits))


def test_planted_stacks_reach_every_branch_the_arrays_leave(monkeypatch):
    # over 300 planted stacks (derandomized), the round forms the sizes of a
    # candidate whose least multiplier lies between -1e-10 times the bound
    # and -1e-10, passes a least slack below the floor on its sizes (above
    # the hypot bound) and fails one, and runs the full stop test on a
    # screened candidate whose residuals the hold on 1e-10 leaves
    calls, reached = recorded_verdicts(monkeypatch), set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=planted_stacks())
    def solve(case):
        solve_qp(case[0], working_sets=case[1])

    solve()
    for d, floor, verdict, _, sizes in calls:
        if sizes and d < -1e-10:
            reached.add("multiplier")
        elif sizes and not floor:
            reached.add(f"slack {verdict is not None}")
        elif sizes and verdict is not None:
            reached.add("stop test")
    assert reached == {"multiplier", "slack True", "slack False", "stop test"}


@pytest.mark.parametrize("first", [0, 1])
def test_the_first_of_two_passing_sets_is_held(first):
    # x_free = (1, 1) breaks x_0 <= 0, x_1 <= 0 and x_0 + x_1 <= 0, which all
    # hold at x = 0: the sets {0, 1} (multipliers 1, 1) and {0, 2}
    # (multipliers 0, 1) both pass the screen, and the one earlier in the
    # working sets is held, bit for bit as that set alone gives it
    qp = QpProblem(np.eye(2), np.array([-1.0, -1.0]),
                   np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3))
    passing = [rows_of(3, [0, 1]), rows_of(3, [0, 2])]
    sets = [passing[first], passing[1 - first], rows_of(3, [])]
    sol, alone = solve_qp(qp, working_sets=sets), solve_qp(qp, working_sets=passing[first:][:1])
    assert sol.converged and sol.iterations == 0
    assert same_bits(sol.delta_u, alone.delta_u) and same_bits(sol.lam, alone.lam)
    assert sol.lam.tolist() == ([1.0, 1.0, 0.0] if first == 0 else [0.0, 0.0, 1.0])
    assert_round_is_the_oracle(qp, sets)


def test_a_law_residual_above_1e_10_is_left_to_the_stop_test():
    # a taken candidate is held without forming its sizes only where its
    # law's stationarity residual and working rows' slacks are all at most
    # 1e-10.  Here (a draw with E's eigenvalues 4.3e-13 and 0.59) the law of
    # the one row has residual (6.6e-10, 4.4e-10), 2.5e-10 and 2.6e-10 of
    # the terms at its point, max(1, |E| |x| + |f|) = (2.6, 1.7), and its
    # slack 2.7e-11 meets the floor: the stop test fails it, so the problem
    # ends unconverged in the round that tried the law, at its point and
    # with its multiplier, as the per-candidate oracle decides
    e = np.array([[0.41004355105921464, 0.2740856409116749],
                  [0.2740856409116749, 0.18320721874582305]])
    f, v = np.array([0.49533904403351714, -0.2733683562723095]), np.array([-1.2319165930936304])
    w = np.array([[-0.04859694550208832, 0.24791250594130776]])
    qp, row = QpProblem(e, f, w, v), rows_of(1, [0])
    laws = _Laws(e[None], w, f[None, :, None], v[None, :, None], np.ones((1, 1), dtype=bool))
    x, lam, r_d, z, s = law_terms(laws, laws.of(np.array([0]), row[None])[0][0], np.ones(1))
    assert 1e-10 < np.abs(r_d).max() <= 1e-6 and laws.floor <= s.item() <= 1e-10 and z.item() > 0
    assert verdict_at_point(laws, 0, f, v, x, np.array([0]), s, z, r_d) == (True, False)
    sol = solve_qp(qp, working_sets=[row])
    assert not sol.converged and sol.iterations == 1
    assert same_bits(sol.delta_u, x) and same_bits(sol.lam, np.maximum(lam, 0.0))
    assert_round_is_the_oracle(qp, [row])


def test_a_working_slack_above_1e_10_is_left_to_the_stop_test():
    # the hold's other half: E = 1, f = -1 and the row x <= 1e-8, and a
    # candidate at x = 0 that holds the row with multiplier 1: its
    # stationarity residual is 0, but its working row's slack is 1e-8, 1e-8
    # of its size 1, so the hold on 1e-10 leaves it and the stop test fails
    # it, as the point verdict does
    f, v = np.array([-1.0]), np.array([1e-8])
    laws = _Laws(np.eye(1)[None], np.eye(1), f[None, :, None], v[None, :, None],
                 np.ones((1, 1), dtype=bool))
    x, lam, r_d, z, s = np.zeros(1), np.ones(1), np.zeros(1), np.ones(1), v.copy()
    rows = np.array([0])
    assert verdict_at_point(laws, 0, f, v, x, rows, s, z, r_d) == (True, False)
    y = np.concatenate([x, lam, r_d, z, s])
    assert mpc._verdict(laws, 0, f, v, y, rows, z.min(), s.min()) is False


def ill_conditioned_problem(seed: int, draw: int) -> QpProblem:
    """Draw `draw` of ill_conditioned_draws(seed) as a plain QpProblem."""
    qp = next(itertools.islice(ill_conditioned_draws(seed), draw, None))
    return QpProblem(qp.e[0], qp.f[0], qp.w, qp.v[0])


@pytest.mark.parametrize("qp", [
    pytest.param(QpProblem(np.array([[2.0, 0.3], [0.3, 1.0]]), np.zeros(2),
                           np.array([[1.0, 0.7]]), np.array([-1e8])), id="far-from-x-free"),
    pytest.param(ill_conditioned_problem(411, 107), id="ill-conditioned-411-107"),
    pytest.param(ill_conditioned_problem(411, 273), id="ill-conditioned-411-273"),
])
def test_a_solution_is_held_on_the_terms_at_its_point(qp):
    # the stop test measures each residual against the terms of its
    # equation at the candidate's point, not at x_free.  In the first case
    # f = 0, so x_free = 0, and the one row's bound lies 1e8 away: the law
    # of that row holds the solution, about -(5.1e7, 7.1e7), with a
    # stationarity residual of 1.5e-8 in rounding against terms of about
    # 1e8 at the point (and of 1 at x_free).  The two draws of seed 411
    # ended unconverged, at violations of 1.4e-11 and 1.0e-13, under terms
    # taken at x_free.  Each converges and meets the KKT conditions at its
    # point: stationarity within 1e-9 of its terms' size, each row within
    # FEAS_TOL, multipliers at least 0 and complementarity within 1e-9 of
    # its terms
    sol = solve_qp(qp)
    assert sol.converged
    e, f, w, v, x, lam = qp.e, qp.f, qp.w, qp.v, sol.delta_u, sol.lam
    size = np.abs(e) @ np.abs(x) + np.abs(f) + np.abs(w).T @ lam + 1.0
    assert np.all(np.abs(e @ x + f + w.T @ lam) <= 1e-9 * size)
    slack = v - w @ x
    assert np.all(slack >= -FEAS_TOL) and np.all(lam >= 0.0)
    assert np.all(lam * np.abs(slack) <= 1e-9 * (lam * (np.abs(w) @ np.abs(x) + np.abs(v)) + 1.0))


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
    with mock.patch.object(mpc, "_CACHED", 2 * DEFAULT_SLOT):
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
    # each draw is given the working set of its own cold solve: no
    # converged verdict is lost, and a converged warm solve meets each row
    # within FEAS_TOL at an objective within 1e-7 of the cold one's
    converged = 0
    for draw, qp in enumerate(itertools.islice(ill_conditioned_draws(seed), 600)):
        cold = solve_qp(qp)
        warm = solve_qp(qp, working_sets=[cold.lam > 0.0])
        assert warm.converged or not cold.converged
        if warm.converged:
            converged += 1
            assert warm.max_violation <= FEAS_TOL
            objective = [0.5 * x @ qp.e[0] @ x + qp.f[0] @ x for x in (warm.delta_u[0],
                                                                    cold.delta_u[0])]
            if cold.converged:
                assert abs(objective[0] - objective[1]) <= 1e-7 * max(1.0, abs(objective[1]))
    assert converged >= 350  # 360 to 376 of the 600 draws of these seeds


# ---------------------------------------------------------------------------
# smoother stepping


def test_step_bounded_on_conflicting_limits():
    # the reference flips sign every `period` ticks.  Every plan ends at
    # zero acceleration, so the shifted previous plan meets every row of the
    # next tick: from rest every tick is feasible and converges, and the
    # realized twist, acceleration and jerk stay within their bounds on
    # every tick.
    cases = [
        # conflicting limits (velocity 1, acceleration 10, jerk 20, reference
        # +3 then -3): a plan free to end accelerating leaves ticks (34-56
        # and 341-407) whose velocity rows the jerk rows cannot brake for
        (1.0, 1.0, 10.0, 20.0, 3.0, 600, 300),
        # a tracking weight of 1e5 puts E and f near 1e6
        (1e5, None, 1.0, 50.0, 1.0, 400, 100),
    ]
    for q_weight, vel, acc, jerk, ref, ticks, period in cases:
        cfg = MpcConfig(q_weight=np.full(6, q_weight))
        T = cfg.sample_time
        limits = limits_of(vel=vel, acc=acc, jerk=jerk)
        sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
        prev = prev_acc = np.zeros(6)
        unconverged = []
        for tick in range(ticks):
            target = np.full(6, ref if (tick // period) % 2 == 0 else -ref)
            res = sm.step(target)
            assert np.all(np.isfinite(res.twist))
            if res.converged:
                assert res.max_violation <= 1e-6
            else:
                unconverged.append(tick)
            acc_fd = (res.twist - prev) / T
            assert np.abs(res.twist).max() <= (vel or np.inf) + 1e-6
            assert np.abs(acc_fd).max() <= acc + 1e-6
            assert np.abs((acc_fd - prev_acc) / T).max() <= jerk + 1e-6
            prev, prev_acc = res.twist, acc_fd
        assert unconverged == []


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_tick_from_rest_converges_within_its_bounds(data):
    # finite acceleration and jerk bounds, velocity bounds finite or not,
    # 2 <= n_c <= n_p <= 60 and a piecewise-constant reference (the
    # conflicting limits' +-3 among its levels): from rest every plan ends
    # at zero acceleration, so every tick's rows can all hold.  Every tick
    # converges (no fallback), and the smoothed velocity, acceleration and
    # jerk stay within their bounds and FEAS_TOL
    n_p = data.draw(st.integers(2, 60), label="n_p")
    n_c = data.draw(st.integers(2, n_p), label="n_c")
    cfg = MpcConfig(n_c=n_c, n_p=n_p,
                    q_weight=data.draw(arrays(float, 6, elements=st.floats(0.1, 5.0))),
                    r_weight=data.draw(arrays(float, 6, elements=st.floats(0.01, 1.0))))
    vel = data.draw(st.none() | st.floats(0.2, 2.0), label="vel")
    acc = data.draw(st.floats(0.5, 20.0), label="acc")
    jerk = data.draw(st.floats(5.0, 100.0), label="jerk")
    level = st.sampled_from([3.0, -3.0]) | st.floats(-3.0, 3.0)
    holds = data.draw(st.lists(st.tuples(arrays(float, 6, elements=level), st.integers(1, 30)),
                               min_size=1, max_size=4), label="references")
    sm = TwistSmoother(cfg, limits_of(vel=vel, acc=acc, jerk=jerk), UnitDualQuaternion.identity())
    T, prev, prev_acc = cfg.sample_time, np.zeros(6), np.zeros(6)
    for target, hold in holds:
        for _ in range(hold):
            res = sm.step(target)
            assert res.converged
            realized = (res.twist - prev) / T
            assert np.abs(res.twist).max() <= (vel or np.inf) + FEAS_TOL
            assert np.abs(realized).max() <= acc + FEAS_TOL
            assert np.abs((realized - prev_acc) / T).max() <= jerk + FEAS_TOL
            prev, prev_acc = res.twist, realized


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 22: every plan ends at zero acceleration at step n_c")
def test_a_long_reference_reaches_more_acceleration_than_the_terminal_rest_allows():
    # ROADMAP item 22: under the track-tight limits (vel 1, acc 10, jerk
    # 20, default horizons) from rest toward vx = 0.9 for 150 ticks, the
    # velocity bound leaves room, so the applied acceleration should pass
    # (n_c - 1) T J_max = 1.62, what a plan that must end at rest after
    # n_c - 1 more increments of at most T J_max can reach.  It reads
    # 1.6200000000000043: the terminal rest caps it
    cfg, limits = MpcConfig(), limits_of(vel=1.0, acc=10.0, jerk=20.0)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    twists = [np.zeros(6)] + [sm.step([0.0, 0.0, 0.0, 0.9, 0.0, 0.0]).twist for _ in range(150)]
    acc = np.abs(np.diff(twists, axis=0)).max() / cfg.sample_time
    assert acc > (cfg.n_c - 1) * cfg.sample_time * limits.jerk_max.max() + FEAS_TOL


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
    with pytest.raises(ValueError, match="^u_prev must have 6 components$"):
        SmootherState(np.zeros(18), np.zeros(5), UnitDualQuaternion.identity())
    # a NaN bound would read as a row that never activates
    for augmented, u_prev in ((np.full(18, np.nan), np.zeros(6)), (np.zeros(18), [np.inf] * 6)):
        with pytest.raises(ValueError, match="must be finite"):
            SmootherState(augmented, u_prev, UnitDualQuaternion.identity())
