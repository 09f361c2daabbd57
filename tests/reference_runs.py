"""Closed-loop runs recorded as a reference for refactors of the program.

A refactor may change the last bits of the logged floating-point output, but
not what the runs do: ``test_cli.test_closed_loop_matches_the_recorded_runs``
requires the record counts, stop reasons and flag-column sums recorded in
``data/reference_runs.json`` exactly, and q, x_eff and twist of every
``EVERY``-th record within 1e-9.  A change that means to alter the runs'
behaviour regenerates the file (and says so in its change notes):

    PYTHONPATH=src python tests/reference_runs.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from screwmpc.cli import _random_keypoints
from screwmpc.config import load_config
from screwmpc.kinematics import load_robot_model, packaged_model_path
from screwmpc.simulate import run_closed_loop

REFERENCE = Path(__file__).parent / "data" / "reference_runs.json"
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

# name -> (config text over the packaged defaults, --random 4 seed)
RUNS = {"default-seed-7": ("", 7), "qp-active-seed-1": (QP_ACTIVE, 1)}


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
    """Run `name` of RUNS: `simulate --random 4 --seed <seed>` under its config."""
    body, seed = RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(body)
        cfg = load_config(path)
    model = model if model is not None else load_robot_model(packaged_model_path())
    return run_closed_loop(cfg, model, _random_keypoints(model, cfg.q0, 4, seed))


def main() -> None:
    model = load_robot_model(packaged_model_path())
    runs = {name: summarize(run(name, model)) for name in RUNS}
    REFERENCE.write_text(json.dumps({"every": EVERY, "columns": SAMPLED, "runs": runs}) + "\n")
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
