import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from screwmpc.dualquat import UnitDualQuaternion
from screwmpc.mpc import (
    _MAX_ITERATIONS,
    AUG_DIM,
    LimitSet,
    MpcConfig,
    QpProblem,
    SmootherState,
    TwistSmoother,
    build_model,
    build_prediction,
    build_qp,
    build_setpoint,
    solve_qp,
)

from helpers import qp_enumeration_oracle, qp_feasible_oracle

INF6 = np.full(6, np.inf)


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
        build_model(0.0)


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


def _unlike_axes(m: np.ndarray, coupled: bool) -> np.ndarray:
    """A copy of the lifted `m` that couples axes 0 and 1 or gives axis 1 its own entry."""
    m = m.copy()
    if coupled:
        m[0, 1] += 1.0
    else:
        m[1, 1] += 1.0
    return m


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_prediction_rejects_model_not_lifted_per_axis(which, coupled):
    model = list(build_model(0.009))
    model[which] = _unlike_axes(model[which], coupled)
    with pytest.raises(ValueError, match="act on each axis alike"):
        build_prediction(tuple(model), 3, 2)


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("which", ["f", "phi"])
def test_qp_rejects_prediction_not_lifted_per_axis(which, coupled):
    pred = build_prediction(build_model(0.009), 3, 2)
    bad = dataclasses.replace(pred, **{which: _unlike_axes(getattr(pred, which), coupled)})
    with pytest.raises(ValueError, match="act on each axis alike"):
        build_qp(np.zeros(AUG_DIM), build_setpoint(np.zeros(6), 3), bad,
                 MpcConfig(n_c=2, n_p=3), limits_of(), np.zeros(6))


def test_prediction_shapes():
    model = build_model(0.009)
    pred = build_prediction(model, 50, 10)
    assert pred.f.shape == (300, 18)
    assert pred.phi.shape == (300, 60)


# ---------------------------------------------------------------------------
# setpoint


def test_setpoint_zero():
    np.testing.assert_array_equal(build_setpoint(np.zeros(6), 4), np.zeros(24))


def test_setpoint_replicates():
    t = np.arange(6.0)
    np.testing.assert_array_equal(build_setpoint(t, 2), np.concatenate([t, t]))


def test_setpoint_norm():
    t = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    n_p = 7
    assert np.linalg.norm(build_setpoint(t, n_p)) == pytest.approx(
        np.sqrt(n_p) * np.linalg.norm(t))


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
        qp = build_qp(rng.normal(size=AUG_DIM), rng.normal(size=6 * cfg.n_p),
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
    # (rows 6r + a, columns 6j + a), bit for bit
    step, qp = step_and_dense_qp(*draw_tick(data))
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


@pytest.mark.parametrize("n_p, n_c, q, r, acc, jerk, state, target", [
    # a stop on the mean complementarity alone left z ~ mu/s on a near-active
    # row, and the dense solve landed 3.8e-5 away from the per-axis one
    pytest.param(1, 1, (2.5, 3, 0, 0, 0, 0), np.ones(6), 1.0, 5.0, 1.0, 0.0,
                 id="near-active-row"),
    # a feasible dense tick drove z/s to 1e19 and the reduced matrix singular
    pytest.param(11, 4, np.full(6, 3.0), (3.5, 1, 1, 1, 1, 1), 2.0, 65.0, 0.75, 1.0,
                 id="singular-reduced-matrix"),
])
def test_per_axis_step_agrees_with_dense_solve_on_solver_traps(n_p, n_c, q, r, acc, jerk,
                                                              state, target):
    cfg = MpcConfig(n_c=n_c, n_p=n_p, sample_time=0.009, q_weight=np.array(q, float),
                    r_weight=np.array(r, float))
    step, qp = step_and_dense_qp(cfg, limits_of(acc=acc, jerk=jerk), np.full(AUG_DIM, state),
                                 np.zeros(6), np.full(6, target))
    dense = solve_qp(qp)
    assert step.converged and dense.converged
    np.testing.assert_allclose(step.delta_u, dense.delta_u[:6], rtol=0, atol=1e-7)


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
    with pytest.raises(ValueError, match="q_weight must be nonnegative"):
        MpcConfig(q_weight=np.full(6, np.nan))
    with pytest.raises(ValueError, match="r_weight must be positive"):
        MpcConfig(r_weight=np.full(6, np.nan))


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


@settings(max_examples=150, deadline=None)
@given(stack_and_infeasible=qp_stacks())
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


# ---------------------------------------------------------------------------
# smoother stepping


def test_step_bounded_on_conflicting_limits():
    # conflicting limits (velocity 1, acceleration 10, jerk 20, reference
    # +3 then -3): from tick 34 some ticks' velocity rows cannot be met
    # under the braking the jerk rows allow.  Every step stays finite and
    # within the iteration cap, only infeasible ticks end unconverged, and
    # since the iteration starts from delta_u = 0, which meets the jerk and
    # acceleration rows, the realized jerk and acceleration stay within
    # their bounds on every tick.
    cfg = MpcConfig()
    T = cfg.sample_time
    one = np.ones(6)
    limits = LimitSet(-one, one, -10 * one, 10 * one, -20 * one, 20 * one)
    sm = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    pred = build_prediction(build_model(T), cfg.n_p, cfg.n_c)
    prev = prev_acc = np.zeros(6)
    unconverged = []
    for tick in range(600):
        target = np.full(6, 3.0 if tick < 300 else -3.0)
        qp = build_qp(sm.state.augmented, build_setpoint(target, cfg.n_p), pred, cfg, limits,
                      sm.state.u_prev)
        res = sm.step(target)
        assert np.all(np.isfinite(res.twist)) and res.iterations <= _MAX_ITERATIONS
        if res.converged:
            assert res.max_violation <= 1e-6
        else:
            unconverged.append(tick)
            assert not qp_feasible_oracle(qp.w, qp.v)
        acc = (res.twist - prev) / T
        assert np.abs(acc).max() <= 10.0 + 1e-6
        assert np.abs((acc - prev_acc) / T).max() <= 20.0 + 1e-6
        prev, prev_acc = res.twist, acc
    assert unconverged[0] == 34


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
