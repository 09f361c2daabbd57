"""Command-line harness: plan, simulate and verify.

``plan`` samples the keypoint path and writes the pose/twist CSVs,
``simulate`` runs the dual-rate closed loop and writes the trajectory log,
``verify`` recomputes finite-difference maxima from a log and reports limit
violations.  Exit codes: 0 success, 1 error, 2 verification found
violations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .dualquat import PureDualQuaternion, exp
from .kinematics import forward_kinematics, load_robot_model, packaged_model_path
from .screwpath import (
    generate_path,
    load_keypoints,
    reference_twists,
    write_keypoints,
    write_path_csv,
    write_twists_csv,
)
from .simulate import (
    read_trajectory_csv,
    run_closed_loop,
    verify_trajectory,
    write_trajectory_csv,
)

__all__ = ["main"]


def _load_model(cfg: RunConfig):
    path = cfg.robot_model if cfg.robot_model is not None else packaged_model_path()
    return load_robot_model(path)


def _random_keypoints(model, q0, count: int, seed: int):
    """Seeded random keypoints: random screws from the start pose.

    Nothing checks that the arm can reach them: of seeds 0-59 with 4
    keypoints, seeds 0, 3, 6, 16, 20 and 49 draw a path the packaged config
    never settles on, which runs to max_duration_s."""
    rng = np.random.default_rng(seed)
    pose = forward_kinematics(model, q0)
    keypoints = [pose]
    for _ in range(count - 1):
        axis = rng.normal(size=3)
        axis *= rng.uniform(0.05, 0.25) / np.linalg.norm(axis)
        trans = rng.uniform(-0.06, 0.06, size=3)
        motion = exp(PureDualQuaternion.from_vec6(np.concatenate([axis, trans])))
        pose = motion * pose
        keypoints.append(pose)
    return keypoints


def _keypoints_for(cfg: RunConfig, args, model=None) -> list:
    if args.random is not None:
        if args.random < 2:
            raise ValueError("--random needs at least 2 keypoints")
        if model is None:
            model = _load_model(cfg)
        return _random_keypoints(model, cfg.q0, args.random, args.seed)
    if cfg.keypoints is None:
        raise ValueError("no keypoint file configured (set 'keypoints' or use --random)")
    return load_keypoints(cfg.keypoints)


def _out_dir(cfg: RunConfig, args) -> Path:
    return Path(args.out) if args.out else cfg.out_dir


def cmd_plan(args) -> int:
    cfg = load_config(args.config)
    keypoints = _keypoints_for(cfg, args)
    out = _out_dir(cfg, args)
    path = generate_path(keypoints, cfg.samples_per_segment, cfg.sample_time_s)
    twists = reference_twists(path)
    out.mkdir(parents=True, exist_ok=True)
    if args.random is not None:
        write_keypoints(out / "keypoints.txt", keypoints)
    write_path_csv(out / "path.csv", path)
    write_twists_csv(out / "twists.csv", twists)
    print(f"planned {len(path)} poses over {len(keypoints) - 1} segments "
          f"-> {out / 'path.csv'}, {out / 'twists.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = _load_model(cfg)
    keypoints = _keypoints_for(cfg, args, model)
    out = _out_dir(cfg, args)
    result = run_closed_loop(cfg, model, keypoints)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", result)
    print(f"simulated {result.n_records} MPC ticks "
          f"({result.inner_ticks_per_mpc} inner ticks each), "
          f"stopped on {result.reason}, final goal error {result.final_goal_error:.3e}")
    if result.qp_failures or result.singular_ticks:
        print(f"flags: qp_failures={result.qp_failures} "
              f"singular_ticks={result.singular_ticks}")
    print(f"log -> {out / 'trajectory.csv'}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    log_path = Path(args.log) if args.log else _out_dir(cfg, args) / "trajectory.csv"
    columns, rows = read_trajectory_csv(log_path)
    try:
        report = verify_trajectory(columns, rows, cfg.limits)
    except ValueError as err:
        raise ValueError(f"{log_path}: {err}") from None
    print(report.render())
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="screwmpc",
        description="screw-interpolated task-space paths with MPC twist smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="run configuration file (packaged defaults otherwise)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default from config)")

    for name, text in (("plan", "sample the keypoint path and twists"),
                       ("simulate", "run the dual-rate closed loop")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--random", type=int, default=None, metavar="N",
                       help="generate N random keypoints instead of loading a file")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the --random keypoints")

    p_ver = sub.add_parser("verify", help="check a trajectory log against the limits")
    common(p_ver)
    p_ver.add_argument("--log", type=Path, default=None,
                       help="trajectory log (default: <out>/trajectory.csv)")

    args = parser.parse_args(argv)
    handlers = {"plan": cmd_plan, "simulate": cmd_simulate, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
