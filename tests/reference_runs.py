"""Closed-loop runs recorded as a reference for refactors of the program.

A refactor may change the last bits of the logged floating-point output, but
not what the runs do: ``test_cli.test_closed_loop_matches_the_recorded_runs``
requires the record counts, stop reasons and flag-column sums recorded in
``data/reference_runs.json`` exactly, and q, x_eff and twist of every
``EVERY``-th record within 1e-9.  A change that means to alter the runs'
behaviour regenerates the file (and says so in its change notes):

    PYTHONPATH=src python tests/reference_runs.py

Naming runs (``... reference_runs.py near-singular``) records only those and
keeps the others as they were recorded, so that adding a run does not move
the reference of the existing ones.

A change that means to keep the logs byte for byte shows it with

    PYTHONPATH=src python tests/reference_runs.py --digest [name ...]

which prints the SHA-256 of the ``trajectory.csv`` each run (all, or those
named) writes with the current code, one ``<digest>  <name>`` line per run,
and leaves the recorded file as it is; run it on both commits and compare.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from screwmpc.cli import _random_keypoints
from screwmpc.config import load_config
from screwmpc.kinematics import load_robot_model, packaged_model_path
from screwmpc.screwpath import load_keypoints
from screwmpc.simulate import run_closed_loop, write_trajectory_csv

DATA = Path(__file__).parent / "data"
REFERENCE = DATA / "reference_runs.json"
EVERY = 10
FLAGS = ("qp_converged", "qp_active", "singular", "viol_vel", "viol_acc", "viol_jerk")
SAMPLED = ([f"q{j}" for j in range(1, 8)] + [f"xeff_h{j}" for j in range(1, 9)]
           + [f"twist_{a}" for a in ("wx", "wy", "wz", "vx", "vy", "vz")])

TRACK_TIGHT_LIMITS = "".join(
    f"limits.{group}.{end} = {' '.join([sign + bound] * 6)}\n"
    for group, bound in (("vel", "1"), ("acc", "10"), ("jerk", "20"))
    for end, sign in (("min", "-"), ("max", "")))
# the CI smoke run with the QP active
QP_ACTIVE = TRACK_TIGHT_LIMITS + "samples_per_segment = 20\nmax_duration_s = 3\n"

# name -> (config text over the packaged defaults, --random 4 seed), or (config
# file, None) for a run along the keypoint file the config names
RUNS = {"default-seed-7": ("", 7), "qp-active-seed-1": (QP_ACTIVE, 1),
        # sigma_6 dips to 3.2e-5: the control law's SVD route, where the
        # Jacobian's rounding is amplified most
        "near-singular": (DATA / "near_singular.cfg", None)}


def summarize(result) -> dict:
    """What the reference keeps of a run."""
    column = result.columns.index
    return {
        "records": result.n_records,
        "reason": result.reason,
        "sums": {name: int(result.rows[:, column(name)].sum()) for name in FLAGS},
        "rows": result.rows[::EVERY, [column(name) for name in SAMPLED]].tolist(),
    }


def run(name: str, model=None):
    """Run `name` of RUNS: `simulate --random 4 --seed <seed>` under its config
    text, or `simulate --config <file>` for a config file."""
    source, seed = RUNS[name]
    model = model if model is not None else load_robot_model(packaged_model_path())
    if seed is None:
        cfg = load_config(source)
        return run_closed_loop(cfg, model, load_keypoints(cfg.keypoints))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(source)
        cfg = load_config(path)
    return run_closed_loop(cfg, model, _random_keypoints(model, cfg.q0, 4, seed))


def digest(name: str, model=None) -> str:
    """SHA-256 of the trajectory.csv that run `name` of RUNS writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        write_trajectory_csv(path, run(name, model))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main(names: list[str]) -> None:
    model = load_robot_model(packaged_model_path())
    runs = json.loads(REFERENCE.read_text())["runs"] if names else {}
    runs.update({name: summarize(run(name, model)) for name in names or RUNS})
    runs = {name: runs[name] for name in RUNS}
    REFERENCE.write_text(json.dumps({"every": EVERY, "columns": SAMPLED, "runs": runs}) + "\n")
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        panda = load_robot_model(packaged_model_path())
        for name in sys.argv[2:] or RUNS:
            print(f"{digest(name, panda)}  {name}")
    else:
        main(sys.argv[1:])
