"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted, so a red test is a failed criterion.
"""

import math
import time

import numpy as np
import pytest

from screwmpc.cli import main
from screwmpc.config import load_config
from screwmpc.dualquat import (
    DualQuaternion,
    PureDualQuaternion,
    UnitDualQuaternion,
    adjoint,
    exp,
    hamilton_minus8,
    log,
)
from screwmpc.kinematics import (
    forward_kinematics,
    inner_control,
    load_robot_model,
    packaged_model_path,
    pose_error,
    pose_jacobian,
)
from screwmpc.mpc import (
    AUG_DIM,
    LimitSet,
    MpcConfig,
    QpProblem,
    TwistSmoother,
    solve_qp,
)
from screwmpc.screwpath import sclerp, write_keypoints
from screwmpc.simulate import read_trajectory_csv, verify_trajectory

from helpers import (
    adjoint_matrix_oracle,
    build_model,
    build_prediction,
    hamilton_plus8_oracle,
    qp_enumeration_oracle,
    random_pose_vec8,
    random_pure_vec6,
)

INF6 = np.full(6, np.inf)


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {description}")


def random_pose(rng) -> UnitDualQuaternion:
    return UnitDualQuaternion.from_vec8(random_pose_vec8(rng))


def sign_aligned_error(a, b) -> float:
    va, vb = a.vec8(), b.vec8()
    if va @ vb < 0:
        vb = -vb
    return float(np.abs(va - vb).max())


def test_criterion_1_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_roundtrip = 0.0
    for _ in range(1000):
        g = PureDualQuaternion.from_vec6(random_pure_vec6(rng, (math.pi - 0.1) / 2))
        worst_roundtrip = max(worst_roundtrip,
                              np.abs(log(exp(g)).vec6() - g.vec6()).max())
    assert worst_roundtrip < 1e-9

    worst_hamilton = 0.0
    for _ in range(100):
        a = DualQuaternion.from_vec8(rng.normal(size=8))
        h = DualQuaternion.from_vec8(rng.normal(size=8))
        resid = np.abs((a * h).vec8() - hamilton_minus8(h) @ a.vec8()).max()
        worst_hamilton = max(worst_hamilton, resid)
        # independent oracle: left operator from basis products
        resid_oracle = np.abs((a * h).vec8()
                              - hamilton_plus8_oracle(a.vec8()) @ h.vec8()).max()
        worst_hamilton = max(worst_hamilton, resid_oracle)
    assert worst_hamilton < 1e-12

    worst_adjoint = 0.0
    for _ in range(200):
        x = random_pose(rng)
        xi = PureDualQuaternion.from_vec6(rng.normal(size=6))
        expected = adjoint_matrix_oracle(x.vec8()) @ xi.vec6()
        worst_adjoint = max(worst_adjoint,
                            np.abs(adjoint(x, xi).vec6() - expected).max())
    assert worst_adjoint < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"algebra suite (roundtrip {worst_roundtrip:.2e}, hamilton "
              f"{worst_hamilton:.2e}, adjoint {worst_adjoint:.2e}, {elapsed:.2f}s)")


def test_criterion_2_sclerp_left_invariance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        z, a, b = (random_pose(rng) for _ in range(3))
        tau = rng.uniform()
        worst = max(worst, sign_aligned_error(z * sclerp(a, b, tau),
                                              sclerp(z * a, z * b, tau)))
    assert worst < 1e-9
    report(2, f"ScLERP left invariance over 500 draws (max error {worst:.2e})")


def test_criterion_3_constant_screw_axis():
    rng = np.random.default_rng(103)
    checked = 0
    worst = 0.0
    while checked < 100:
        a, b = random_pose(rng), random_pose(rng)
        if a.primary.dot(b.primary) < 0:
            b = UnitDualQuaternion(-b.primary, -b.dual)
        full = log(a.inverse() * b).vec6()
        norm_full = np.linalg.norm(full)
        if norm_full < 1e-6:
            continue
        tau1, tau2 = sorted(rng.uniform(size=2))
        if tau2 - tau1 < 1e-2:
            continue
        x1, x2 = sclerp(a, b, tau1), sclerp(a, b, tau2)
        seg = log(x1.inverse() * x2).vec6()
        worst = max(worst, np.abs(seg / np.linalg.norm(seg)
                                  - full / norm_full).max())
        checked += 1
    assert worst < 1e-9
    report(3, f"constant screw axis over 100 segments (max residual {worst:.2e})")


def test_criterion_4_prediction_equivalence():
    rng = np.random.default_rng(104)
    model = build_model(0.02)
    a, b, c = model
    worst = 0.0
    for _ in range(50):
        n_p = int(rng.integers(1, 11))
        n_c = int(rng.integers(1, n_p + 1))
        pred = build_prediction(model, n_p, n_c)
        state0 = rng.normal(size=AUG_DIM)
        du = rng.normal(size=(n_c, 6))
        condensed = pred.f @ state0 + pred.phi @ du.reshape(-1)
        state = state0.copy()
        rolled = []
        for k in range(n_p):
            u_k = du[k] if k < n_c else np.zeros(6)
            state = a @ state + b @ u_k
            rolled.append(c @ state)
        worst = max(worst, np.abs(condensed - np.concatenate(rolled)).max())
    assert worst < 1e-12
    report(4, f"prediction matrices match model rollout (max error {worst:.2e})")


def test_criterion_5_qp_vs_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_gap = worst_kkt = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        e = a @ a.T + 0.1 * np.eye(n)
        f = rng.normal(size=n)
        w = rng.normal(size=(m, n))
        v = w @ rng.normal(size=n) + rng.uniform(0.05, 1.0, size=m)
        sol = solve_qp(QpProblem(e, f, w, v))
        assert sol.converged
        _, obj_ref = qp_enumeration_oracle(e, f, w, v)
        obj = 0.5 * sol.delta_u @ e @ sol.delta_u + f @ sol.delta_u
        worst_gap = max(worst_gap, obj - obj_ref)
        x, lam = sol.delta_u, sol.lam
        kkt = max(np.linalg.norm(e @ x + f + w.T @ lam),
                  float(max((w @ x - v).max(), 0.0)),
                  abs(lam @ (w @ x - v)))
        worst_kkt = max(worst_kkt, kkt)
    elapsed = time.perf_counter() - start
    assert worst_gap < 1e-6
    assert worst_kkt < 1e-6
    assert elapsed < 10.0
    report(5, f"interior point vs active-set enumeration on 200 instances "
              f"(gap {worst_gap:.2e}, kkt {worst_kkt:.2e}, {elapsed:.2f}s)")


def test_criterion_6_constraint_enforcement_and_delay():
    cfg = MpcConfig()
    T = cfg.sample_time
    acc_bound, jerk_bound = 1.0, 50.0
    limits = LimitSet(-INF6, INF6,
                      -np.full(6, acc_bound), np.full(6, acc_bound),
                      -np.full(6, jerk_bound), np.full(6, jerk_bound))
    smoother = TwistSmoother(cfg, limits, UnitDualQuaternion.identity())
    # step that would need ~111 m/s^2 instantaneous acceleration
    ref = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    prev = np.zeros(6)
    prev_fd = np.zeros(6)
    max_acc = max_jerk = 0.0
    reach_tick = None
    for tick in range(400):
        res = smoother.step(ref)
        fd = (res.twist - prev) / T
        max_acc = max(max_acc, np.abs(fd).max())
        max_jerk = max(max_jerk, np.abs((fd - prev_fd) / T).max())
        prev, prev_fd = res.twist, fd
        if reach_tick is None and res.twist[3] >= 0.9:
            reach_tick = tick
    assert max_acc <= acc_bound + 1e-6
    assert max_jerk <= jerk_bound + 1e-6
    assert reach_tick is not None and reach_tick > 10  # output lags the step
    assert np.abs(prev - ref).max() < 1e-3
    report(6, f"bounds held (acc {max_acc:.6f} <= {acc_bound}, jerk "
              f"{max_jerk:.4f} <= {jerk_bound}), output delayed {reach_tick} ticks")


def test_criterion_7_closed_loop_regulation():
    model = load_robot_model(packaged_model_path())
    cfg = load_config(None)
    x_d = forward_kinematics(model, cfg.q0)
    gain = cfg.gain_matrix
    dt = 1e-3
    max_steps = 5000  # five simulated seconds
    rng = np.random.default_rng(107)
    slowest = 0
    for trial in range(20):
        q = cfg.q0 + rng.normal(scale=0.08, size=7)
        errs = [np.linalg.norm(pose_error(x_d, forward_kinematics(model, q)).vec8())]
        for step in range(max_steps):
            cmd = inner_control(model, q, x_d, gain)
            q = q + dt * cmd.qdot
            errs.append(np.linalg.norm(
                pose_error(x_d, forward_kinematics(model, q)).vec8()))
            if errs[-1] < 1e-3:
                break
        assert errs[-1] < 1e-3, f"trial {trial} did not reach tolerance"
        assert all(errs[k + 1] <= errs[k] + 1e-12 for k in range(1, len(errs) - 1)), \
            f"trial {trial} not monotone"
        slowest = max(slowest, len(errs) - 1)
    report(7, f"20 perturbed starts regulated to 1e-3 (slowest {slowest} ms)")


def test_criterion_8_jacobian_finite_differences():
    model = load_robot_model(packaged_model_path())
    rng = np.random.default_rng(108)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(model.q_min, model.q_max)
        jac = pose_jacobian(model, q)
        for j in range(7):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            col = (forward_kinematics(model, qp).vec8()
                   - forward_kinematics(model, qm).vec8()) / (2 * h)
            worst = max(worst, np.abs(jac[:, j] - col).max())
    assert worst < 1e-5
    report(8, f"analytic vs central-difference jacobian at 100 configurations "
              f"(max error {worst:.2e})")


def test_criterion_9_end_to_end(tmp_path):
    start = time.perf_counter()
    model = load_robot_model(packaged_model_path())
    cfg0 = load_config(None)
    k1 = forward_kinematics(model, cfg0.q0)
    k2 = exp(PureDualQuaternion.from_vec6([0, 0, 0.1, 0.03, 0, -0.03])) * k1
    k3 = exp(PureDualQuaternion.from_vec6([0.08, -0.06, 0, 0, 0.04, 0.02])) * k2
    write_keypoints(tmp_path / "kp.txt", [k1, k2, k3])
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("keypoints = kp.txt\nsamples_per_segment = 35\n"
                        "max_duration_s = 8\n")

    assert main(["plan", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 0
    logs = []
    for rep in range(3):
        out = tmp_path / f"out{rep}"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        logs.append((out / "trajectory.csv").read_bytes())
    assert logs[0] == logs[1] == logs[2]

    assert main(["verify", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out0")]) == 0
    columns, rows = read_trajectory_csv(tmp_path / "out0" / "trajectory.csv")
    terminal_error = rows[-1, columns.index("err_goal")]
    assert terminal_error <= 1e-3
    report_obj = verify_trajectory(columns, rows, load_config(cfg_file).limits)
    assert report_obj.ok

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, f"plan/simulate/verify pipeline, terminal error "
              f"{terminal_error:.2e}, 3 byte-identical logs, {elapsed:.1f}s")
