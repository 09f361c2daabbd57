"""Run configuration: flat ``key = value`` text files.

Values are scalars or space-separated real lists; blank lines and '#'
comments are skipped.  Dotted keys group the task-space limit bounds
(``limits.vel.min`` etc.).  Defaults, including the manufacturer limit
values, live in the packaged ``data/default.cfg`` and are overridden by
the user file key by key.  Paths in a config file are resolved relative
to the file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .mpc import LimitSet, MpcConfig

__all__ = ["RunConfig", "parse_config_text", "load_config"]

_LIST_KEYS = {
    "q_weight": 6,
    "r_weight": 6,
    "q0": 7,
    "limits.vel.min": 6,
    "limits.vel.max": 6,
    "limits.acc.min": 6,
    "limits.acc.max": 6,
    "limits.jerk.min": 6,
    "limits.jerk.max": 6,
}
_FLOAT_KEYS = {
    "sample_time_s", "inner_rate_hz", "stop_tol", "max_duration_s", "gain",
}
_INT_KEYS = {"n_c", "n_p", "samples_per_segment"}
_PATH_KEYS = {"keypoints", "robot_model", "out_dir"}
_ALL_KEYS = _LIST_KEYS.keys() | _FLOAT_KEYS | _INT_KEYS | _PATH_KEYS


def parse_config_text(text: str, *, source: str = "<config>",
                      base_dir: Path | None = None) -> dict:
    """Parse ``key = value`` lines into typed values.

    Unknown keys, malformed numbers and wrong list lengths raise ValueError
    with the offending line number.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        try:
            if key in _LIST_KEYS:
                vals = np.array([float(tok) for tok in rhs.split()])
                if vals.shape != (_LIST_KEYS[key],):
                    raise ValueError(
                        f"{key} needs {_LIST_KEYS[key]} values, got {vals.shape[0]}"
                    )
                values[key] = vals
            elif key in _FLOAT_KEYS:
                values[key] = float(rhs)
            elif key in _INT_KEYS:
                values[key] = int(rhs)
            elif key in _PATH_KEYS:
                p = Path(rhs)
                if base_dir is not None and not p.is_absolute():
                    p = base_dir / p
                values[key] = p
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as err:
            raise ValueError(f"{source}:{lineno}: {err}") from None
    return values


def _default_values() -> dict:
    text = resources.files("screwmpc").joinpath("data/default.cfg").read_text()
    return parse_config_text(text, source="default.cfg")


@dataclass(kw_only=True)
class RunConfig:
    """Everything the planner, smoother and simulator need for one run.

    Every field but the two optional paths takes its default from the
    packaged ``data/default.cfg`` through :func:`load_config`.
    """

    keypoints: Path | None = None
    robot_model: Path | None = None
    out_dir: Path
    samples_per_segment: int
    n_c: int
    n_p: int
    sample_time_s: float
    q_weight: np.ndarray
    r_weight: np.ndarray
    limits: LimitSet
    inner_rate_hz: float
    stop_tol: float
    max_duration_s: float
    gain: float
    q0: np.ndarray
    mpc: MpcConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError(f"gain must be positive and finite, got {self.gain}")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")
        if not self.max_duration_s > 0.0:
            raise ValueError("max_duration_s must be positive")
        if not self.sample_time_s > 0.0:
            raise ValueError("sample_time_s must be positive")
        if self.inner_rate_hz < 1.0 / self.sample_time_s:
            raise ValueError(
                "inner loop must run at least as fast as the MPC: "
                f"{self.inner_rate_hz} Hz < {1.0 / self.sample_time_s:.3f} Hz"
            )
        ticks = self.sample_time_s * self.inner_rate_hz
        frac = ticks % 1.0
        if not min(frac, 1.0 - frac) <= 1e-9 * ticks:  # also rejects inf and nan
            raise ValueError(
                "inner loop must divide the MPC tick into whole inner ticks: "
                f"inner_rate_hz = {self.inner_rate_hz} Hz times "
                f"sample_time_s = {self.sample_time_s} s is {ticks:.6g}"
            )
        self.mpc = MpcConfig(self.n_c, self.n_p, self.sample_time_s,
                             self.q_weight, self.r_weight)

    @property
    def inner_dt(self) -> float:
        return 1.0 / self.inner_rate_hz

    @property
    def inner_ticks_per_mpc(self) -> int:
        return round(self.sample_time_s * self.inner_rate_hz)

    @property
    def gain_matrix(self) -> np.ndarray:
        return self.gain * np.eye(8)


def load_config(path: str | Path | None = None) -> RunConfig:
    """Build a RunConfig from the packaged defaults plus an optional file."""
    values = _default_values()
    if path is not None:
        path = Path(path)
        user = parse_config_text(path.read_text(), source=str(path),
                                 base_dir=path.parent)
        values.update(user)

    limits = LimitSet(
        values.pop("limits.vel.min"), values.pop("limits.vel.max"),
        values.pop("limits.acc.min"), values.pop("limits.acc.max"),
        values.pop("limits.jerk.min"), values.pop("limits.jerk.max"),
    )
    return RunConfig(limits=limits, **values)
