import dataclasses
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwmpc import kinematics, mpc, simulate
from screwmpc.cli import _random_keypoints, main
from screwmpc.config import RunConfig, load_config, parse_config_text
from screwmpc.dualquat import PureDualQuaternion, UnitDualQuaternion, exp, log
from screwmpc.kinematics import (
    forward_kinematics,
    inner_control,
    load_robot_model,
    packaged_model_path,
    pose_error,
)
from screwmpc.mpc import LimitSet, MpcConfig
from screwmpc.screwpath import (
    PATH_CSV_HEADER,
    TWIST_CSV_HEADER,
    generate_path,
    load_keypoints,
    reference_twists,
    write_keypoints,
    write_path_csv,
    write_twists_csv,
)
from screwmpc.simulate import (
    LOG_COLUMNS,
    SimulationResult,
    read_trajectory_csv,
    run_closed_loop,
    verify_trajectory,
    write_trajectory_csv,
)

import reference_runs
from helpers import (
    chain_product_oracle,
    failed_solve,
    pose_jacobian_oracle,
    pose_rotation_translation,
)
from reference_runs import DATA, TRACK_TIGHT

AXES = ("wx", "wy", "wz", "vx", "vy", "vz")


@pytest.fixture(scope="module")
def panda():
    return load_robot_model(packaged_model_path())


@pytest.fixture(scope="module")
def ready_pose(panda):
    cfg = load_config(None)
    return forward_kinematics(panda, cfg.q0)


def write_cfg(tmp_path, body: str):
    f = tmp_path / "run.cfg"
    f.write_text(body)
    return f


def translated(pose, dxyz):
    return exp(PureDualQuaternion.from_vec6([0, 0, 0, *np.asarray(dxyz) / 2.0])) * pose


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_load():
    cfg = load_config(None)
    assert cfg.n_c == 10
    assert cfg.n_p == 50
    assert cfg.sample_time_s == pytest.approx(0.009)
    assert cfg.inner_rate_hz == pytest.approx(1000.0)
    assert cfg.inner_ticks_per_mpc == 9
    np.testing.assert_allclose(cfg.limits.vel_max, [2.5, 2.5, 2.5, 1.7, 1.7, 1.7])
    np.testing.assert_allclose(cfg.limits.jerk_max[3:], [6500.0] * 3)


def test_run_config_takes_its_defaults_only_from_default_cfg():
    text = resources.files("screwmpc").joinpath("data/default.cfg").read_text()
    keys = {key.split(".")[0] for key in parse_config_text(text)}
    fields = {f.name: f for f in dataclasses.fields(RunConfig) if f.init}
    with_default = {name for name, f in fields.items()
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING}
    assert keys == fields.keys() - {"keypoints", "robot_model"}
    assert with_default == {"keypoints", "robot_model"}
    # MpcConfig keeps defaults of its own for direct callers; they must
    # repeat default.cfg's
    packaged, own = load_config(None).mpc, MpcConfig()
    for f in dataclasses.fields(MpcConfig):
        np.testing.assert_array_equal(getattr(own, f.name), getattr(packaged, f.name),
                                      err_msg=f.name)


def test_config_override(tmp_path):
    f = write_cfg(tmp_path, "n_c = 4\nstop_tol = 0.01\nq_weight = 2 2 2 1 1 1\n")
    cfg = load_config(f)
    assert cfg.n_c == 4
    assert cfg.stop_tol == pytest.approx(0.01)
    np.testing.assert_array_equal(cfg.q_weight, [2, 2, 2, 1, 1, 1])
    assert cfg.n_p == 50  # untouched default


def test_config_relative_paths(tmp_path):
    f = write_cfg(tmp_path, "keypoints = kp.txt\n")
    cfg = load_config(f)
    assert cfg.keypoints == tmp_path / "kp.txt"


@pytest.mark.parametrize("line, match", [
    ("bogus_key = 1", "unknown key"),
    ("n_c 10", "expected 'key = value'"),
    ("q_weight = 1 2 3", "needs 6 values"),
    ("n_p = abc", ":1:"),
])
def test_config_errors(line, match):
    with pytest.raises(ValueError, match=match):
        parse_config_text(line, source="<test>")


def test_config_rejects_a_key_given_twice(tmp_path, capsys):
    # the second value must not silently win: the error names both lines
    f = write_cfg(tmp_path, "gain = 10\n# a comment\n\nn_c = 4\ngain = 0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{f}:5: gain given twice, first on line 1")):
        load_config(f)
    assert main(["simulate", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {f}:5: gain given twice")


@pytest.mark.parametrize("line", ["keypoints =", "gain = \t ", "q_weight ="],
                         ids=["path", "blank-scalar", "list"])
def test_config_rejects_a_key_with_no_value(tmp_path, line):
    # an empty path would resolve to the file's own directory and fail only
    # when read, with no line number
    f = write_cfg(tmp_path, "n_c = 4\n" + line + "\n")
    key = line.partition("=")[0].strip()
    with pytest.raises(ValueError, match=re.escape(f"{f}:2: {key} has no value")):
        load_config(f)


def test_config_rate_contract_validation(tmp_path):
    f = write_cfg(tmp_path, "inner_rate_hz = 50\n")
    with pytest.raises(ValueError, match="at least as fast"):
        load_config(f)


@pytest.mark.parametrize("rate", ["1500", "inf", "nan"])
def test_config_rejects_inner_rate_not_dividing_mpc_tick(tmp_path, capsys, rate):
    f = write_cfg(tmp_path, f"inner_rate_hz = {rate}\n")
    with pytest.raises(ValueError, match=rf"{rate}(\.0)? Hz.*sample_time_s = 0\.009 s"):
        load_config(f)
    assert main(["simulate", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert "whole inner ticks" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-0.009", "nan", "inf"])
def test_config_rejects_nonpositive_sample_time(tmp_path, value):
    f = write_cfg(tmp_path, f"sample_time_s = {value}\n")
    with pytest.raises(ValueError, match="sample_time_s must be positive"):
        load_config(f)


@pytest.mark.parametrize("rate, ticks", [(1000, 9), (2000, 18)])
def test_config_accepts_inner_rate_dividing_mpc_tick(tmp_path, rate, ticks):
    cfg = load_config(write_cfg(tmp_path, f"inner_rate_hz = {rate}\n"))
    assert cfg.inner_ticks_per_mpc == ticks


@pytest.mark.parametrize("value", ["0", "-5", "inf", "nan"])
def test_config_rejects_bad_gain(tmp_path, capsys, value):
    f = write_cfg(tmp_path, f"gain = {value}\n")
    with pytest.raises(ValueError, match="gain must be positive and finite"):
        load_config(f)
    assert main(["simulate", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert "gain" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["stop_tol", "max_duration_s"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_config_rejects_nonpositive_run_bounds(tmp_path, capsys, key, value):
    # an infinite max_duration_s would overflow the tick count, an infinite
    # stop_tol would end every run as soon as the reference does
    f = write_cfg(tmp_path, f"{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"{f}: {key} must be positive")):
        load_config(f)
    assert main(["simulate", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {f}: {key} must be positive")


@pytest.mark.parametrize("line, match", [
    ("n_c = 0", "n_c <= n_p"),
    ("n_c = 1", "n_c = 1 leaves no variable"),
    ("n_c = 60", "n_c <= n_p"),
    ("q_weight = 1 1 1 -1 1 1", "q_weight must be nonnegative"),
    ("r_weight = 0 1 1 1 1 1", "r_weight must be positive"),
    ("q_weight = 1 1 1 nan 1 1", "q_weight must be nonnegative"),
    ("r_weight = 1 1 nan 1 1 1", "r_weight must be positive"),
    ("q_weight = inf 1 1 1 1 1", "q_weight must be nonnegative and finite"),
    ("r_weight = 1 1 1 1 1 inf", "r_weight must be positive and finite"),
    ("limits.vel.min = 1 1 1 1 1 1", "vel limits must bracket zero"),
    ("samples_per_segment = 0", "samples_per_segment must be >= 1"),
])
def test_config_rejects_bad_mpc_settings_at_load(tmp_path, capsys, line, match):
    # plan never builds a smoother, so the check has to happen at load
    f = write_cfg(tmp_path, line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{f}: ") + ".*" + match):
        load_config(f)
    assert main(["plan", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert f"error: {f}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "path.csv").exists()


@pytest.mark.parametrize("name, record, load", [
    ("run.cfg", "gain = fast", load_config),
    ("bad.model", "joint z 1 0 0 0 0 0 0 x -1 1 2",
     lambda f: load_robot_model(f, expected_dof=None)),
    ("kp.txt", "1 0 0 0 0 0 0 x", load_keypoints),
], ids=["config", "model", "keypoints"])
def test_input_files_share_one_record_format(tmp_path, name, record, load):
    f = tmp_path / name
    f.write_text("# comment\n\n" + record + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{f}:3: non-numeric field")):
        load(f)


# ---------------------------------------------------------------------------
# plan


def test_plan_constant_keypoints(tmp_path, ready_pose):
    write_keypoints(tmp_path / "kp.txt", [ready_pose, ready_pose])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 10\n")
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    path_lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert len(path_lines) == 1 + 11
    twist_lines = (tmp_path / "out" / "twists.csv").read_text().splitlines()
    for line in twist_lines[1:]:
        vals = [float(tok) for tok in line.split(",")[1:]]
        assert np.abs(vals).max() < 1e-9


def test_plan_translation_endpoint(tmp_path, ready_pose):
    goal = translated(ready_pose, [1.0, 0.0, 0.0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 100\n")
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert len(lines) == 1 + 101
    last = [float(tok) for tok in lines[-1].split(",")[3:]]
    _, trans = pose_rotation_translation(last)
    start = ready_pose.translation()
    np.testing.assert_allclose(trans - start, [1.0, 0.0, 0.0], atol=1e-9)


def test_plan_three_keypoints_row_count(tmp_path, ready_pose):
    k2 = translated(ready_pose, [0.05, 0, 0])
    k3 = translated(k2, [0, 0.05, 0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, k2, k3])
    m = 17
    cfg = write_cfg(tmp_path, f"keypoints = kp.txt\nsamples_per_segment = {m}\n")
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert len(lines) == 1 + (2 * m + 1)


def test_plan_malformed_keypoints(tmp_path, capsys):
    (tmp_path / "kp.txt").write_text("1 0 0 0 0 0 0 0\n1 2 nope\n")
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\n")
    rc = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "kp.txt:2" in err


def test_plan_random_keypoints_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "samples_per_segment = 5\n")
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        assert main(["plan", "--config", str(cfg), "--out", str(out),
                     "--random", "3", "--seed", "7"]) == 0
    a = (tmp_path / "out0" / "path.csv").read_bytes()
    b = (tmp_path / "out1" / "path.csv").read_bytes()
    assert a == b
    assert (tmp_path / "out0" / "keypoints.txt").exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("with_keypoint_file", [False, True])
def test_random_count_below_two_is_rejected(tmp_path, capsys, ready_pose,
                                            command, with_keypoint_file):
    body = ""
    if with_keypoint_file:
        write_keypoints(tmp_path / "kp.txt", [ready_pose, ready_pose])
        body = "keypoints = kp.txt\n"
    cfg = write_cfg(tmp_path, body)
    for count in ("0", "-3"):
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--random", count]) == 1
        assert "--random needs at least 2 keypoints" in capsys.readouterr().err
        assert not (out / "path.csv").exists()
        assert not (out / "trajectory.csv").exists()


def test_plan_determinism(tmp_path, ready_pose):
    goal = translated(ready_pose, [0.1, -0.05, 0.02])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\n")
    for rep in range(2):
        assert main(["plan", "--config", str(cfg),
                     "--out", str(tmp_path / f"o{rep}")]) == 0
    assert ((tmp_path / "o0" / "path.csv").read_bytes()
            == (tmp_path / "o1" / "path.csv").read_bytes())
    assert ((tmp_path / "o0" / "twists.csv").read_bytes()
            == (tmp_path / "o1" / "twists.csv").read_bytes())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_start_at_goal(tmp_path, ready_pose):
    write_keypoints(tmp_path / "kp.txt", [ready_pose, ready_pose])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 20\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _, rows = read_trajectory_csv(tmp_path / "out" / "trajectory.csv")
    assert rows.shape[0] <= 2


def test_simulate_short_translation_reaches_goal(tmp_path, panda, ready_pose):
    goal = translated(ready_pose, [0.08, 0.0, -0.05])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg_file = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 30\n"
                                   "max_duration_s = 6\n")
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 0
    columns, rows = read_trajectory_csv(tmp_path / "out" / "trajectory.csv")
    err_goal = rows[-1, columns.index("err_goal")]
    assert err_goal <= 1e-3
    t = rows[:, columns.index("t")]
    assert np.all(np.diff(t) > 0)
    np.testing.assert_allclose(np.diff(t), 0.009, atol=1e-12)


def test_simulate_rate_contract(tmp_path, panda, ready_pose):
    goal = translated(ready_pose, [0.03, 0, 0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = load_config(write_cfg(
        tmp_path, "keypoints = kp.txt\nsamples_per_segment = 10\nmax_duration_s = 3\n"))
    from screwmpc.screwpath import load_keypoints
    result = run_closed_loop(cfg, panda, load_keypoints(cfg.keypoints))
    assert result.inner_ticks_per_mpc == round(0.009 / 0.001) == 9
    assert result.columns == list(LOG_COLUMNS)


def test_simulate_constrained_run_delays_but_respects_limits(tmp_path, panda, ready_pose):
    # aggressive path + tight acceleration limits: the output must lag the
    # reference and the logged violation flags must stay zero
    goal = translated(ready_pose, [0.25, 0.0, 0.0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg_file = write_cfg(tmp_path, "\n".join([
        "keypoints = kp.txt",
        "samples_per_segment = 20",   # 0.18 s ramp: needs acc ~ 7.7 m/s^2
        "limits.acc.min = -25 -25 -25 -1 -1 -1",
        "limits.acc.max = 25 25 25 1 1 1",
        "max_duration_s = 8",
    ]) + "\n")
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 0
    columns, rows = read_trajectory_csv(tmp_path / "out" / "trajectory.csv")
    for flag in ("viol_vel", "viol_acc", "viol_jerk"):
        assert np.all(rows[:, columns.index(flag)] == 0.0)
    ref_vx = rows[:, columns.index("ref_vx")]
    out_vx = rows[:, columns.index("twist_vx")]
    # delay: when the reference peaks, the output is still far below it
    k = int(np.argmax(ref_vx))
    assert out_vx[k] < 0.6 * ref_vx[k]
    assert rows[-1, columns.index("err_goal")] <= 1e-3
    # realized acceleration saturates the tightened bound
    acc_vx = rows[:, columns.index("acc_vx")]
    assert acc_vx.max() <= 1.0 + 1e-6
    assert acc_vx.max() > 0.9


def test_simulate_log_derived_columns_agree_with_verify(panda, ready_pose, monkeypatch):
    # a 1.5 rad turn about the tool z axis under vel 1, acc 10, jerk 20.
    # The smoother keeps every bound, so the log is edited by hand: each
    # smoothed twist the loop logs is scaled by 1.5, and the log carries
    # non-zero flags
    goal = ready_pose * exp(PureDualQuaternion.from_vec6([0, 0, 0.75, 0, 0, 0]))
    one = np.ones(6)
    limits = LimitSet(-one, one, -10 * one, 10 * one, -20 * one, 20 * one)
    cfg = dataclasses.replace(load_config(None), samples_per_segment=50, limits=limits)
    step = mpc.TwistSmoother.step
    monkeypatch.setattr(mpc.TwistSmoother, "step", lambda sm, target: dataclasses.replace(
        step(sm, target), twist=1.5 * sm.twist))
    result = run_closed_loop(cfg, panda, [ready_pose, goal])
    rows, col = result.rows, result.columns.index
    T = cfg.sample_time_s

    def cols(prefix):
        return rows[:, [col(f"{prefix}_{a}") for a in AXES]]

    # acceleration and jerk are differenced from rest at the MPC sample time
    twist = cols("twist")
    acc = np.diff(twist, axis=0, prepend=np.zeros((1, 6))) / T
    jerk = np.diff(acc, axis=0, prepend=np.zeros((1, 6))) / T
    assert np.array_equal(cols("acc"), acc)
    assert np.array_equal(cols("jerk"), jerk)

    # the flags mark the rows verify counts: velocity on every record,
    # acceleration from the second and jerk from the third
    flags = {name: rows[:, col(f"viol_{name}")] for name in ("vel", "acc", "jerk")}
    assert flags["vel"].sum() > 0
    report = verify_trajectory(result.columns, rows, limits)
    assert report.vel_violations == flags["vel"].sum()
    assert report.acc_violations == flags["acc"][1:].sum()
    assert report.jerk_violations == flags["jerk"][2:].sum()
    slack = 1e-6
    for name, values, lo, hi in (("vel", twist, -one, one), ("acc", acc, -10 * one, 10 * one),
                                 ("jerk", jerk, -20 * one, 20 * one)):
        over = np.any((values > hi + slack) | (values < lo - slack), axis=1)
        assert np.array_equal(flags[name], over.astype(float))

    assert result.singular_ticks == rows[:, col("singular")].sum()
    assert result.qp_failures == np.count_nonzero(rows[:, col("qp_converged")] == 0)


@pytest.mark.parametrize("tight, failing", [
    pytest.param(False, False, id="packaged-limits"),
    # the QP is active: every tick is solved on laws, of the working set
    # carried from the tick before, of a located law or of a walk from them
    pytest.param(True, False, id="track-tight-limits"),
    # every solve made to fail: each QP-active tick applies the first
    # increment of its shifted previous plan and reads unconverged
    pytest.param(True, True, id="track-tight-limits-no-walk"),
])
def test_simulate_determinism(tmp_path, ready_pose, tight, failing, monkeypatch):
    if failing:
        monkeypatch.setattr(mpc, "solve_qp", failed_solve(mpc.solve_qp))
    goal = translated(ready_pose, [0.05, 0.02, 0.0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    body = "keypoints = kp.txt\nsamples_per_segment = 15\nmax_duration_s = 4\n"
    if tight:  # the track-tight run's limit lines, on this test's own path and run length
        body += "".join(line for line in TRACK_TIGHT.read_text().splitlines(keepends=True)
                        if line.startswith("limits."))
    cfg = write_cfg(tmp_path, body)
    logs = []
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        logs.append((out / "trajectory.csv").read_bytes())
    assert logs[0] == logs[1]
    if tight:
        columns, rows = read_trajectory_csv(tmp_path / "out0" / "trajectory.csv")
        iters, active = rows[:, columns.index("qp_iters")], rows[:, columns.index("qp_active")]
        converged = rows[:, columns.index("qp_converged")]
        assert np.any(active > 0) and not iters.any()
        assert np.array_equal(converged == 0, (active > 0) & failing)


@pytest.mark.parametrize("joints", [6, 8])
def test_closed_loop_rejects_q0_of_another_joint_count(panda, ready_pose, joints):
    cfg = dataclasses.replace(load_config(None), q0=np.zeros(joints))
    with pytest.raises(ValueError, match=f"joint vector has {joints} entries but the model "
                                         "has 7 joints"):
        run_closed_loop(cfg, panda, [ready_pose] * 2)


def test_closed_loop_rejects_a_model_of_another_joint_count(tmp_path, ready_pose):
    lines = [line for line in packaged_model_path().read_text().splitlines()
             if line.startswith("joint")][:6]
    f = tmp_path / "six.model"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^simulator expects a 7-joint model, got 6$"):
        run_closed_loop(load_config(None), load_robot_model(f, expected_dof=None),
                        [ready_pose] * 2)


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_a_run_without_keypoints_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_cfg(tmp_path, "")), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: no keypoint file configured "
                                       "(set 'keypoints' or use --random)\n")
    assert not out.exists()


def test_simulate_rejects_start_outside_joint_limits(tmp_path, capsys, panda):
    cfg = load_config(write_cfg(tmp_path, "q0 = 0 0 0 -2 9 1.5 0.7\n"))
    with pytest.raises(ValueError, match=r"q0 is outside the joint limits: joint 5 at 9 "):
        run_closed_loop(cfg, panda, [forward_kinematics(panda, np.clip(
            cfg.q0, panda.q_min, panda.q_max))] * 2)
    f = write_cfg(tmp_path, "q0 = 9 9 9 9 9 9 9\n")
    assert main(["simulate", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "joint 1 at 9 " in err and "joint 7 at 9 " in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, seed", [
    pytest.param(None, 7, id="default"),
    pytest.param(TRACK_TIGHT, 1, id="qp-active"),
])
def test_closed_loop_replays_on_the_public_kinematics(panda, config, seed):
    # the loop carries each inner tick's pose and Jacobian to the next; a plain
    # loop over the public functions, each making its own chain pass, gives
    # the same joints, poses and errors bit for bit
    cfg = load_config(config)
    keypoints = _random_keypoints(panda, cfg.q0, 4, seed)
    result = run_closed_loop(cfg, panda, keypoints)
    goal = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s).samples[-1].pose
    cols = [f"q{j}" for j in range(1, 8)] + [f"xeff_h{j}" for j in range(1, 9)]
    cols = [result.columns.index(name) for name in cols + ["err_track", "err_goal"]]
    x_d_at = result.columns.index("xd_h1")
    q = np.array(cfg.q0, dtype=float)
    for row in result.rows:
        x_d = UnitDualQuaternion.from_vec8(row[x_d_at:x_d_at + 8])
        for _ in range(result.inner_ticks_per_mpc):
            qd = panda.scale_velocity(inner_control(panda, q, x_d, cfg.gain_matrix).qdot)
            q = panda.clamp_position(q + cfg.inner_dt * qd)
        x_eff = forward_kinematics(panda, q)
        errors = [np.linalg.norm(pose_error(x_ref, x_eff).vec8()) for x_ref in (x_d, goal)]
        assert np.array_equal(row[cols], [*q, *x_eff.vec8(), *errors])
    if config is not None:
        assert result.rows[:, result.columns.index("qp_active")].any()


@pytest.mark.parametrize("name", list(reference_runs.RUNS))
def test_closed_loop_matches_the_recorded_runs(panda, name):
    # a refactor keeps what the runs recorded in data/reference_runs.json do:
    # the record count, stop reason and flag-column sums exactly, and q, x_eff
    # and twist of every tenth record within 1e-9 (see reference_runs.py)
    recorded = json.loads(reference_runs.REFERENCE.read_text())
    assert recorded["every"] == reference_runs.EVERY
    assert recorded["columns"] == reference_runs.SAMPLED
    expected = recorded["runs"][name]
    got = reference_runs.summarize(reference_runs.run(name, panda))
    for key in ("records", "reason", "sums"):
        assert got[key] == expected[key], key
    np.testing.assert_allclose(got["rows"], expected["rows"], rtol=0.0, atol=1e-9)


def test_closed_loop_makes_one_chain_pass_per_inner_tick(panda, ready_pose, monkeypatch):
    # the one function that walks the chain runs once at the start pose (the
    # inner loop's construction) and once per inner tick, and the law's 8x8
    # inverse kernel once per inner tick (with 6 or more joints every tick
    # forms M^-1 before its certificate); the loop reaches both only through
    # the kinematics module
    calls, inverses = [], []
    chain_pass, inverse = kinematics._pose_and_jacobian, kinematics._inv
    monkeypatch.setattr(kinematics, "_pose_and_jacobian",
                        lambda *args: calls.append(1) or chain_pass(*args))
    monkeypatch.setattr(kinematics, "_inv",
                        lambda *args, **kwargs: inverses.append(1) or inverse(*args, **kwargs))
    assert not hasattr(simulate, "_pose_and_jacobian")
    cfg = load_config(None)
    result = run_closed_loop(cfg, panda, [ready_pose, translated(ready_pose, [0.05, 0.0, 0.0])])
    assert len(calls) == result.n_records * result.inner_ticks_per_mpc + 1
    assert len(inverses) == result.n_records * result.inner_ticks_per_mpc
    assert result.inner_ticks_per_mpc == 9 and result.n_records > 10


HELD_X_D = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 21 and the FOUND line on the flange's 1 kHz bounds: "
           "x_d is held over the inner ticks of an MPC tick")


def track_tight_line(i, mark=HELD_X_D):
    return pytest.param(TRACK_TIGHT, DATA / f"track_tight_line{i}.txt",
                        marks=mark, id=f"track-tight-line-{i}")


@pytest.mark.parametrize("config, keypoints", [
    *(track_tight_line(i) for i in range(3)),
    track_tight_line(3, pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP items 21 and 18 and the FOUND line on the flange's 1 kHz bounds: "
               "x_d is held over the inner ticks of an MPC tick, and scale_velocity "
               "shrinks qdot on this line")),
    *(track_tight_line(i) for i in range(4, 7)),
    *(pytest.param(None, seed, marks=HELD_X_D, id=f"random-4-seed-{seed}") for seed in (7, 1, 2)),
])
def test_a_run_keeps_its_bounds_at_the_inner_rate(panda, monkeypatch, config, keypoints):
    # ROADMAP items 20 and 21: perfbench's track-tight lines 0-6 under seed
    # 1, and `simulate --random 4` at seeds 7, 1 and 2 under the packaged
    # config. The flange's twist at the inner rate, 2 log(x_k x_(k-1)^*) /
    # dt from x_eff after each chain pass, differenced once and twice, keeps
    # the acceleration and jerk bounds within 1e-6. It reads 3.87 and 2126
    # times them on line 0, 2.69 and 1460 on line 1, 2.44 and 1330 on line
    # 2, 4.02 and 2210 on line 3, 3.49 and 1910 on line 4, 3.12 and 1700 on
    # line 5, 3.57 and 1960 on line 6, and 2.80 and 6.11, 3.17 and 6.86, and
    # 2.28 and 4.81 on seeds 7, 1 and 2: the inner loop holds x_d over the 9
    # inner ticks of an MPC tick. Item 21's ramp prototype still broke line
    # 3's jerk bound 18.3 times over, where scale_velocity shrinks qdot
    # (item 18)
    poses, chain_pass = [], kinematics._pose_and_jacobian

    def recorded(*args):
        x_eff8, jac = chain_pass(*args)
        poses.append(UnitDualQuaternion.from_vec8(x_eff8))
        return x_eff8, jac

    monkeypatch.setattr(kinematics, "_pose_and_jacobian", recorded)
    cfg = load_config(config)
    keypoints = (_random_keypoints(panda, cfg.q0, 4, keypoints) if isinstance(keypoints, int)
                 else load_keypoints(keypoints))
    result = run_closed_loop(cfg, panda, keypoints)
    assert len(poses) == result.n_records * result.inner_ticks_per_mpc + 1
    dt, lim = cfg.inner_dt, cfg.limits
    twist = np.array([2.0 * log(b * a.conjugate()).vec6() / dt for a, b in zip(poses, poses[1:])])
    acc = np.diff(twist, axis=0) / dt
    jerk = np.diff(acc, axis=0) / dt
    assert (acc <= lim.acc_max + 1e-6).all() and (acc >= lim.acc_min - 1e-6).all()
    assert (jerk <= lim.jerk_max + 1e-6).all() and (jerk >= lim.jerk_min - 1e-6).all()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18 and the FOUND line on --random 4 seeds 3 and 20: "
                          "the inner law stops a joint at its limit and cannot go round it")
@pytest.mark.parametrize("seed", [3, 20])
def test_a_run_reaches_its_goal(panda, seed):
    # ROADMAP items 20 and 18: `simulate --random 4` at seeds 3 and 20 under
    # the packaged config settles on its last keypoint. Both run to
    # max_duration_s (1112 ticks), joint 2 (seed 3) or joint 4 (seed 20)
    # pinned at its lower limit, 0.063 and 0.057 from the goal against a
    # stop_tol of 0.001
    cfg = load_config(DATA / f"random4_seed{seed}.cfg")
    result = run_closed_loop(cfg, panda, load_keypoints(cfg.keypoints))
    assert result.reason == "tolerance"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13 and the FOUND line on degenerate locations: "
                          "_Laws.locate takes a law only where one alone passes")
def test_a_warm_stack_writes_the_cold_bytes(panda):
    # ROADMAP items 20, 26 and 13: a configuration that
    # test_the_whole_cascade_keeps_its_promise drew. A second run on the
    # stack its first run filled writes the first run's bytes. It differs
    # from record 41 on, by up to 1.02e-12 (twist_vx 0.13757442611074738
    # against 0.1375744261107473): two jerk rows of the vx problem hold at
    # one point, and the warm stack stores a law for each, so it locates
    # neither and walks to the other row
    cfg = load_config(DATA / "warm_stack_degenerate.cfg")
    keypoints = load_keypoints(cfg.keypoints)
    mpc._stack = (None, None)
    cold, warm = (run_closed_loop(cfg, panda, keypoints).rows for _ in range(2))
    assert cold.tobytes() == warm.tobytes()



SPATIAL_TWIST = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 8 and the FOUND line on the velocity the limits name: "
           "the smoother bounds the spatial twist (omega, pdot + p x omega)")


@SPATIAL_TWIST
def test_the_smoothed_pose_keeps_the_velocity_bound(ready_pose):
    # ROADMAP items 20 and 8: the packaged limits are the end-effector's.
    # One smoother under them, from the ready pose toward (0, 2.5, 0, 1.7,
    # 0, 0) for 200 ticks, keeps every twist component within its bound,
    # but the end-effector velocity differenced from the smoothed poses'
    # translations keeps the 1.7 m/s within 1e-6. It reads 3.25 m/s along
    # x and z: the twist's linear part is pdot + p x omega
    cfg = load_config(None)
    smoother = mpc.TwistSmoother(cfg.mpc, cfg.limits, ready_pose)
    steps = [smoother.step([0.0, 2.5, 0.0, 1.7, 0.0, 0.0]) for _ in range(200)]
    twist = np.array([step.twist for step in steps])
    assert (twist <= cfg.limits.vel_max + 1e-6).all() and (twist >= cfg.limits.vel_min - 1e-6).all()
    p = np.array([ready_pose.translation()] + [step.pose.translation() for step in steps])
    speed = np.abs(np.diff(p, axis=0)).max(axis=0) / cfg.sample_time_s
    assert (speed <= cfg.limits.vel_max[3:] + 1e-6).all()


@SPATIAL_TWIST
def test_translating_the_keypoints_translates_the_smoothed_poses(ready_pose):
    # ROADMAP items 20 and 8: the ready pose turned 0.6 rad about the base z
    # axis, smoothed along its reference twists under the packaged limits,
    # and the same keypoints moved 2 m along x: the second run's smoothed
    # poses are the first's moved 2 m along x, within 1e-12. They differ by
    # up to 0.188 in a pose coefficient. The first run's linear twist is 0;
    # the moved run's is 2 m x omega, up to 2.75 m/s along y, so its vy rows
    # bind on 50 of its 51 ticks. Moved 0.5 m, no row binds, and the equal
    # weights on every axis keep the two runs within 7.5e-16
    cfg = load_config(None)
    turn = exp(PureDualQuaternion.from_vec6([0.0, 0.0, 0.3, 0.0, 0.0, 0.0]))
    keypoints = [ready_pose, turn * ready_pose]

    def smoothed(keypoints):
        mpc._stack = (None, None)
        path = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s)
        smoother = mpc.TwistSmoother(cfg.mpc, cfg.limits, keypoints[0])
        return [smoother.step(xi.vec6()).pose for xi in reference_twists(path)]

    moved = smoothed([translated(pose, [2.0, 0.0, 0.0]) for pose in keypoints])
    expected = [translated(pose, [2.0, 0.0, 0.0]) for pose in smoothed(keypoints)]
    assert max(np.abs(a.vec8() - b.vec8()).max() for a, b in zip(moved, expected)) <= 1e-12

_LIMITS = st.one_of(st.floats(-1.0, 1.0).map(lambda e: [e] * 6),
                    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))


@st.composite
def cascade_runs(draw):
    """A configuration and a `--random 4` seed: limits per group over a few
    decades, equal on every axis or set per axis, horizons, weights and the
    path's sampling, on a short run."""
    vel, acc, jerk = (10.0 ** (mid + span * np.array(draw(_LIMITS)))
                      for mid, span in ((0.0, 1.0), (0.75, 1.25), (2.0, 2.0)))
    n_c = draw(st.integers(2, 20))
    n_p = draw(st.integers(n_c, 80))
    q, r = (10.0 ** np.array(draw(st.lists(st.floats(lo, hi), min_size=6, max_size=6)))
            for lo, hi in ((-2.0, 2.0), (-3.0, 1.0)))
    cfg = dataclasses.replace(load_config(None), limits=LimitSet(-vel, vel, -acc, acc, -jerk, jerk),
                              n_c=n_c, n_p=n_p, q_weight=q, r_weight=r,
                              samples_per_segment=draw(st.integers(5, 60)), max_duration_s=0.5)
    return cfg, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=15, deadline=None)
@given(cascade_runs())
def test_the_whole_cascade_keeps_its_promise(panda, tmp_path_factory, run):
    # ROADMAP item 26: the smoothed bounds hold, two runs on fresh QP stacks
    # write the same bytes, x_d and x_eff stay unit, and the reference
    # twists integrate back to the path's samples. A run on a warm stack may
    # write other bytes: test_a_warm_stack_writes_the_cold_bytes
    cfg, seed = run
    keypoints = _random_keypoints(panda, cfg.q0, 4, seed)
    logs = [tmp_path_factory.getbasetemp() / f"cascade-{i}.csv" for i in range(2)]
    for log_path in logs:
        mpc._stack = (None, None)
        result = run_closed_loop(cfg, panda, keypoints)
        write_trajectory_csv(log_path, result)
    assert verify_trajectory(result.columns, result.rows, cfg.limits).ok
    assert logs[0].read_bytes() == logs[1].read_bytes()
    for pose in ("xd", "xeff"):
        h = result.rows[:, [result.columns.index(f"{pose}_h{j}") for j in range(1, 9)]]
        assert np.abs(np.einsum("ij,ij->i", h[:, :4], h[:, :4]) - 1.0).max() <= 1e-12
        assert np.abs(np.einsum("ij,ij->i", h[:, :4], h[:, 4:])).max() <= 1e-12
    path = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s)
    twists = reference_twists(path)
    poses = path.poses()
    for k in range(1, len(poses)):
        step = exp(twists[k] * (0.5 * cfg.sample_time_s)) * poses[k - 1]
        assert np.abs(step.vec8() - poses[k].vec8()).max() <= 1e-12


def test_closed_loop_rejects_a_chain_off_unit(panda, ready_pose):
    model = load_robot_model(packaged_model_path())
    model.__dict__["_chain"] = tuple(  # the cached chain-pass table, scaled
        (index, table * (1.0 + 1e-6)) for index, table in model._chain)
    keypoints = [ready_pose, translated(ready_pose, [0.05, 0.0, 0.0])]
    with pytest.raises(ValueError, match="not a unit dual quaternion"):
        run_closed_loop(load_config(None), model, keypoints)


@pytest.mark.parametrize("site, fault, error, match", [
    # a NaN rate at inner tick 50 (MPC tick 5): the next chain pass fails its
    # unit check, which the inner ticks raise as NaN with the tick's time
    ("_control_law", lambda clean, args: clean(*args)._replace(qdot=np.full(7, math.nan)),
     FloatingPointError, r"^NaN in simulation state at t = 0\.045000 s$"),
    # a finite pose off unit at the unit check of chain pass 50 (the start
    # pose's is the first) is still rejected as such
    ("_check_unit", lambda clean, args: clean(*(x * (1.0 + 1e-6) for x in args)),
     ValueError, "^not a unit dual quaternion: "),
], ids=["nan-rate", "finite-pose-off-unit"])
def test_closed_loop_fault_at_an_inner_tick(panda, ready_pose, monkeypatch, site, fault,
                                            error, match):
    calls = []
    clean = getattr(kinematics, site)

    def faulty(*args):
        calls.append(1)
        return fault(clean, args) if len(calls) == 50 else clean(*args)

    monkeypatch.setattr(kinematics, site, faulty)
    keypoints = [ready_pose, translated(ready_pose, [0.05, 0.0, 0.0])]
    with pytest.raises(error, match=match):
        run_closed_loop(load_config(None), panda, keypoints)
    assert len(calls) == 50


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_closed_loop_rejects_a_non_finite_reference(panda, ready_pose, monkeypatch, bad):
    # the gap servo's log turns non-finite on its third call, after the
    # reference series: the loop stops with that tick's time
    cfg = load_config(None)
    keypoints = [ready_pose, translated(ready_pose, [0.05, 0.0, 0.0])]
    series = len(reference_twists(generate_path(keypoints, cfg.samples_per_segment,
                                                cfg.sample_time_s)))
    calls = []
    clean = simulate.log

    def faulty(g):
        calls.append(1)
        return PureDualQuaternion.from_vec6(np.full(6, bad)) if len(calls) == 3 else clean(g)

    monkeypatch.setattr(simulate, "log", faulty)
    at = f"{(series + 2) * cfg.sample_time_s:.6f}"
    with pytest.raises(FloatingPointError, match=rf"^non-finite reference twist at t = {at} s$"):
        run_closed_loop(cfg, panda, keypoints)
    assert len(calls) == 3


def test_closed_loop_stops_on_a_nan_smoothed_twist(panda, ready_pose, monkeypatch):
    # the 5th tick's unconstrained optimum turns NaN (the run's QP never
    # activates, so the step applies it as its increment): the smoother's
    # step raises FloatingPointError, which the loop re-raises with the
    # tick's time
    calls = []
    clean = mpc._tick_qp

    def faulty(*args):
        calls.append(1)
        qp = clean(*args)
        if len(calls) < 5:
            return qp
        return mpc._TickQp(qp.e, qp.f, qp.w, qp.v, qp.laws, qp.theta, qp.x * math.nan,
                           qp.residual)

    monkeypatch.setattr(mpc, "_tick_qp", faulty)
    keypoints = [ready_pose, translated(ready_pose, [0.05, 0.0, 0.0])]
    with pytest.raises(FloatingPointError,
                       match=r"^smoothed twist is not finite: \[.*\] at t = 0\.036000 s$"):
        run_closed_loop(load_config(None), panda, keypoints)
    assert len(calls) == 5


def test_closed_loop_agrees_with_the_textbook_chain_pass(panda, monkeypatch):
    # the table product against the plain chain product and the product-rule
    # Jacobian, in the whole loop: every log column within 1e-9
    cfg = load_config(None)
    keypoints = _random_keypoints(panda, cfg.q0, 2, 7)
    table = run_closed_loop(cfg, panda, keypoints)
    monkeypatch.setattr(kinematics, "_pose_and_jacobian", lambda model, q: (
        chain_product_oracle(model, q).vec8(), pose_jacobian_oracle(model, q)))
    textbook = run_closed_loop(cfg, panda, keypoints)
    assert textbook.columns == table.columns and textbook.rows.shape == table.rows.shape
    np.testing.assert_allclose(table.rows, textbook.rows, rtol=0.0, atol=1e-9)
    for name in ("qp_active", "qp_converged", "singular"):
        at = table.columns.index(name)
        assert np.array_equal(table.rows[:, at], textbook.rows[:, at])
    assert table.n_records > 50


_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 1e300, 0.1, -1.0 / 3.0,
            2.0 ** 53 + 2.0, 123456789.125, 1.0, -7.0]


def _write_trajectory(path, poses):
    rows = np.array([_NUMBERS, _NUMBERS[::-1]])
    columns = [f"c{i}" for i in range(len(_NUMBERS))]
    write_trajectory_csv(path, SimulationResult(columns, rows, "tolerance", 0.0, 9, 0, 0))
    return ",".join(columns), ",", rows.tolist()


def _write_path(path, poses):
    discrete = generate_path(poses, 4, 0.009)
    write_path_csv(path, discrete)
    return PATH_CSV_HEADER, ",", [[s.index, s.segment, s.tau, *s.pose.vec8()]
                                  for s in discrete.samples]


def _write_twists(path, poses):
    twists = reference_twists(generate_path(poses, 4, 0.009))
    write_twists_csv(path, twists)
    return TWIST_CSV_HEADER, ",", [[i, *xi.vec6()] for i, xi in enumerate(twists)]


def _write_keypoints(path, poses):
    write_keypoints(path, poses)
    return "# keypoints: h1 ... h8 (vec8 pose coefficients)", " ", [k.vec8() for k in poses]


def _write_no_keypoints(path, poses):
    return _write_keypoints(path, [])  # the header alone


@pytest.mark.parametrize("name, write", [("trajectory.csv", _write_trajectory),
                                         ("path.csv", _write_path),
                                         ("twists.csv", _write_twists),
                                         ("keypoints.txt", _write_keypoints),
                                         ("keypoints.txt", _write_no_keypoints)],
                         ids=["trajectory.csv", "path.csv", "twists.csv", "keypoints.txt",
                              "no-keypoints"])
def test_log_records_keep_the_number_format(tmp_path, ready_pose, name, write):
    # one %-format per record writes what formatting each number alone wrote,
    # and every number reads back bit for bit
    path = tmp_path / name
    turned = exp(PureDualQuaternion.from_vec6([0.3, -0.2, 0.1, 0.05, 0.0, -0.02])) * ready_pose
    header, sep, rows = write(path, [ready_pose, turned, translated(turned, [0.0, 0.1, 0.0])])
    text = path.read_text()
    assert text == "\n".join([header] + [sep.join(f"{x:.17g}" for x in r) for r in rows]) + "\n"
    back = np.array([[float(x) for x in line.split(sep)] for line in text.splitlines()[1:]])
    assert np.array_equal(back, rows, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(rows))
    if name == "trajectory.csv":
        assert "nan,inf,-inf,-0,0,4.9406564584124654e-324," in text
        assert np.array_equal(read_trajectory_csv(path)[1], back, equal_nan=True)


# ---------------------------------------------------------------------------
# verify


def _synthetic_log(tmp_path, twist_rows, dt=0.009):
    lines = [",".join(LOG_COLUMNS)]
    n_cols = len(LOG_COLUMNS)
    twist_at = LOG_COLUMNS.index("twist_wx")
    for i, tw in enumerate(twist_rows):
        row = [0.0] * n_cols
        row[0] = i * dt
        row[twist_at: twist_at + 6] = list(tw)
        lines.append(",".join(f"{x:.17g}" for x in row))
    f = tmp_path / "log.csv"
    f.write_text("\n".join(lines) + "\n")
    return f


@pytest.mark.parametrize("text, match", [("", "empty log file"),
                                         ("t,twist_wx\n", "log has no records")])
def test_log_reader_rejects_a_log_without_records(tmp_path, text, match):
    f = tmp_path / "log.csv"
    f.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{f}: {match}") + "$"):
        read_trajectory_csv(f)


def test_verify_rejects_a_time_column_that_does_not_increase(tmp_path):
    columns, rows = read_trajectory_csv(_synthetic_log(tmp_path, np.zeros((10, 6))))
    rows[5, columns.index("t")] = rows[4, columns.index("t")]
    with pytest.raises(ValueError, match="^log time column is not strictly increasing$"):
        verify_trajectory(columns, rows, load_config(None).limits)


def test_verify_all_zero_log(tmp_path):
    f = _synthetic_log(tmp_path, np.zeros((10, 6)))
    columns, rows = read_trajectory_csv(f)
    report = verify_trajectory(columns, rows, load_config(None).limits)
    assert report.ok
    np.testing.assert_array_equal(report.max_vel, np.zeros(6))
    np.testing.assert_array_equal(report.max_acc, np.zeros(6))
    np.testing.assert_array_equal(report.max_jerk, np.zeros(6))
    assert main(["verify", "--log", str(f)]) == 0


def test_verify_detects_injected_violation(tmp_path):
    twists = np.zeros((10, 6))
    twists[5, 3] = 3.0  # vx beyond the 1.7 m/s default bound
    f = _synthetic_log(tmp_path, twists)
    columns, rows = read_trajectory_csv(f)
    report = verify_trajectory(columns, rows, load_config(None).limits)
    assert report.vel_violations == 1
    assert not report.ok
    assert main(["verify", "--log", str(f)]) == 2


def test_verify_counts_acc_and_jerk(tmp_path):
    dt = 0.009
    twists = np.zeros((10, 6))
    twists[5:, 1] = 0.2  # jump of 0.2 rad/s in one tick: acc 22, jerk ~2469
    f = _synthetic_log(tmp_path, twists, dt=dt)
    columns, rows = read_trajectory_csv(f)
    cfg = load_config(None)
    report = verify_trajectory(columns, rows, cfg.limits)
    assert report.max_acc[1] == pytest.approx(0.2 / dt)
    assert report.acc_violations == 0  # 22.2 < 25 rad/s^2 bound
    tight = parse_config_text("limits.acc.min = -1 -1 -1 -1 -1 -1\n"
                              "limits.acc.max = 1 1 1 1 1 1\n")
    limits = LimitSet(tight["limits.acc.min"], tight["limits.acc.max"],
                      tight["limits.acc.min"], tight["limits.acc.max"],
                      cfg.limits.jerk_min, cfg.limits.jerk_max)
    report = verify_trajectory(columns, rows, limits)
    assert report.acc_violations == 1


def test_verify_counts_nan_sample_as_violation(tmp_path, capsys):
    twists = np.zeros((10, 6))
    twists[1, 0] = np.nan
    f = _synthetic_log(tmp_path, twists)
    assert main(["verify", "--log", str(f)]) == 2
    assert "violations: vel=1 acc=2 jerk=2" in capsys.readouterr().out


def test_crlf_log_reads_as_lf(tmp_path):
    twists = np.zeros((5, 6))
    twists[2:, 3] = 0.1
    f = _synthetic_log(tmp_path, twists)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
    columns, rows = read_trajectory_csv(f)
    crlf_columns, crlf_rows = read_trajectory_csv(crlf)
    assert crlf_columns == columns == list(LOG_COLUMNS)
    np.testing.assert_array_equal(crlf_rows, rows)


def test_verify_rejects_malformed_log(tmp_path, capsys):
    f = tmp_path / "log.csv"
    f.write_text("t,twist_wx\n0.0\n")
    rc = main(["verify", "--log", str(f)])
    assert rc == 1
    assert "expected 2 fields" in capsys.readouterr().err


def test_verify_names_file_and_missing_column(tmp_path, capsys):
    f = tmp_path / "log.csv"
    f.write_text("t,twist_wx\n0.0,0.0\n")
    assert main(["verify", "--log", str(f)]) == 1
    err = capsys.readouterr().err
    assert str(f) in err and "twist_wy" in err
    assert "not in list" not in err


def test_verify_creates_no_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--out", "missing"]) == 1
    assert "missing/trajectory.csv" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_seed_belongs_to_random_keypoint_commands(tmp_path, capsys):
    f = _synthetic_log(tmp_path, np.zeros((3, 6)))
    with pytest.raises(SystemExit):
        main(["verify", "--log", str(f), "--seed", "3"])
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_simulate_random_loads_the_model_once(tmp_path, monkeypatch):
    import screwmpc.cli as cli
    calls = []

    def counting(path):
        calls.append(path)
        return load_robot_model(path)

    monkeypatch.setattr(cli, "load_robot_model", counting)
    cfg = write_cfg(tmp_path, "max_duration_s = 0.05\n")
    assert main(["simulate", "--config", str(cfg), "--random", "2", "--seed", "4",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_verify_closure_with_simulation(tmp_path, ready_pose):
    goal = translated(ready_pose, [0.06, -0.03, 0.04])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 25\n"
                              "max_duration_s = 5\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
