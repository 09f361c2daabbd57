import dataclasses
from importlib import resources

import numpy as np
import pytest

from screwmpc.cli import main
from screwmpc.config import RunConfig, load_config, parse_config_text
from screwmpc.dualquat import PureDualQuaternion, exp
from screwmpc.kinematics import forward_kinematics, load_robot_model, packaged_model_path
from screwmpc.screwpath import write_keypoints
from screwmpc.simulate import (
    LOG_COLUMNS,
    read_trajectory_csv,
    run_closed_loop,
    verify_trajectory,
)

from helpers import pose_rotation_translation


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


@pytest.mark.parametrize("value", ["0", "-0.009", "nan"])
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
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_config_rejects_nonpositive_run_bounds(tmp_path, key, value):
    f = write_cfg(tmp_path, f"{key} = {value}\n")
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        load_config(f)


@pytest.mark.parametrize("line, match", [
    ("n_c = 0", "n_c <= n_p"),
    ("n_c = 60", "n_c <= n_p"),
    ("q_weight = 1 1 1 -1 1 1", "q_weight must be nonnegative"),
    ("r_weight = 0 1 1 1 1 1", "r_weight must be positive"),
    ("q_weight = 1 1 1 nan 1 1", "q_weight must be nonnegative"),
    ("r_weight = 1 1 nan 1 1 1", "r_weight must be positive"),
])
def test_config_rejects_bad_mpc_settings_at_load(tmp_path, capsys, line, match):
    # plan never builds a smoother, so the check has to happen at load
    f = write_cfg(tmp_path, line + "\n")
    with pytest.raises(ValueError, match=match):
        load_config(f)
    assert main(["plan", "--config", str(f), "--random", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "path.csv").exists()


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


def test_simulate_determinism(tmp_path, ready_pose):
    goal = translated(ready_pose, [0.05, 0.02, 0.0])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 15\n"
                              "max_duration_s = 4\n")
    logs = []
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        logs.append((out / "trajectory.csv").read_bytes())
    assert logs[0] == logs[1]


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
    from screwmpc.mpc import LimitSet
    limits = LimitSet(tight["limits.acc.min"], tight["limits.acc.max"],
                      tight["limits.acc.min"], tight["limits.acc.max"],
                      cfg.limits.jerk_min, cfg.limits.jerk_max)
    report = verify_trajectory(columns, rows, limits)
    assert report.acc_violations == 1


def test_verify_rejects_malformed_log(tmp_path, capsys):
    f = tmp_path / "log.csv"
    f.write_text("t,twist_wx\n0.0\n")
    rc = main(["verify", "--log", str(f)])
    assert rc == 1
    assert "expected 2 fields" in capsys.readouterr().err


def test_verify_closure_with_simulation(tmp_path, ready_pose):
    goal = translated(ready_pose, [0.06, -0.03, 0.04])
    write_keypoints(tmp_path / "kp.txt", [ready_pose, goal])
    cfg = write_cfg(tmp_path, "keypoints = kp.txt\nsamples_per_segment = 25\n"
                              "max_duration_s = 5\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
