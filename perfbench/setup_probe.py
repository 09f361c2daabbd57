"""Set-up time and memory of a fresh process.

Times the import of ``screwmpc`` (numpy included), loading the packaged
config and robot model, and constructing a ``TwistSmoother``: what a user
pays before the first MPC period.  Prints the seconds and the peak
resident set in MB.  ``run.py`` starts this script several times and
reports the medians as ``setup_s`` and ``peak_rss_mb``.

    python3 perfbench/setup_probe.py
"""

import resource
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from screwmpc import TwistSmoother, forward_kinematics, load_robot_model
    from screwmpc.config import load_config
    from screwmpc.kinematics import packaged_model_path

    cfg = load_config(None)
    model = load_robot_model(packaged_model_path())
    TwistSmoother(cfg.mpc, cfg.limits, forward_kinematics(model, cfg.q0))
    elapsed = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(elapsed, peak_mb)


if __name__ == "__main__":
    main()
