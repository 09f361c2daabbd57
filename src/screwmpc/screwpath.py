"""Coordinate-invariant pose paths through task-space keypoints.

Consecutive keypoints are connected by screw linear interpolation
x(tau) = x_a * (x_a^-1 * x_b)^tau, sampled at equally spaced tau, and the
discrete path is differentiated into a piecewise reference twist series
xi_r[i] = (2/tau_step) * log(x[i] * x[i-1]^*).
Files hold one record per line, numbers with 17 significant digits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

from . import textio
from .dualquat import (
    PureDualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    exp,
    log,
    power,
)

__all__ = [
    "PathSample",
    "DiscretePath",
    "sclerp",
    "generate_path",
    "reference_twists",
    "load_keypoints",
    "write_keypoints",
    "write_path_csv",
    "write_twists_csv",
]

PATH_CSV_HEADER = "i,seg,tau,h1,h2,h3,h4,h5,h6,h7,h8"
TWIST_CSV_HEADER = "i,wx,wy,wz,vx,vy,vz"


@dataclass(frozen=True)
class PathSample:
    """One discrete pose sample: global index, segment index, local tau."""

    index: int
    segment: int
    tau: float
    pose: UnitDualQuaternion


@dataclass(frozen=True)
class DiscretePath:
    samples: tuple[PathSample, ...]
    tau_step: float

    def __len__(self) -> int:
        return len(self.samples)

    def poses(self) -> list[UnitDualQuaternion]:
        return [s.pose for s in self.samples]


def _relative(x_a: UnitDualQuaternion, x_b: UnitDualQuaternion) -> UnitDualQuaternion:
    """The segment's relative pose x_a^-1 x_b, x_b double-cover aligned with x_a first."""
    return x_a.inverse() * (-x_b if x_a.primary.dot(x_b.primary) < 0.0 else x_b)


def sclerp(x_a: UnitDualQuaternion, x_b: UnitDualQuaternion,
           tau: float) -> UnitDualQuaternion:
    """Screw linear interpolation between two poses at parameter tau in [0, 1].

    The endpoints are double-cover aligned first (x_b is negated when
    <r_a, r_b> < 0, same pose) so the interpolation follows the shorter
    screw.  tau = 0 gives x_a and tau = 1 gives x_b up to sign.
    """
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {tau}")
    return x_a * power(_relative(x_a, x_b), tau)


def generate_path(keypoints, samples_per_segment: int,
                  tau_step: float) -> DiscretePath:
    """Sample the ScLERP path through the keypoints.

    Each of the n-1 segments is sampled at tau in {0, 1/m, ..., 1}; the
    duplicate pose at every junction (a segment start equals the previous
    segment end) is dropped, so the path has m*(n-1) + 1 samples.  m must be
    an integer (not a bool) and tau_step positive and finite.  Sample k of a
    segment is sclerp(x_a, x_b, k/m) bit for bit, from the one screw
    log(x_a^-1 x_b).
    """
    keypoints = list(keypoints)
    if len(keypoints) < 2:
        raise ValueError(f"need at least 2 keypoints, got {len(keypoints)}")
    count = samples_per_segment  # a bool is an Integral, but no sample count
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"samples_per_segment must be an integer, got {count!r}")
    m = int(count)
    if m < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if not 0.0 < tau_step < float("inf"):
        raise ValueError("tau_step must be positive and finite")

    samples: list[PathSample] = []
    index = 0
    for seg in range(len(keypoints) - 1):
        x_a = keypoints[seg]
        screw = log(_relative(x_a, keypoints[seg + 1]))
        for k in range(0 if seg == 0 else 1, m + 1):
            tau = k / m
            samples.append(PathSample(index, seg, tau, x_a * exp(screw * tau)))
            index += 1
    return DiscretePath(tuple(samples), float(tau_step))


def reference_twists(path: DiscretePath) -> list[PureDualQuaternion]:
    """Piecewise reference twists xi_r[i] = (2/tau_step) log(x[i] x[i-1]^*).

    xi_r[0] is zero: there is no preceding pose to difference against.
    """
    if len(path) < 2:
        raise ValueError("path must have at least 2 samples")
    if not 0.0 < path.tau_step < float("inf"):
        raise ValueError("tau_step must be positive and finite")
    scale = 2.0 / path.tau_step
    twists = [PureDualQuaternion.zero()]
    poses = path.poses()
    for prev, cur in zip(poses[:-1], poses[1:]):
        twists.append(log(cur * prev.inverse()) * scale)
    return twists


# ---------------------------------------------------------------------------
# File formats


def _keypoint(line: str) -> UnitDualQuaternion:
    values = textio.floats(line.split())
    if len(values) == 8:
        return UnitDualQuaternion.from_vec8(values)
    if len(values) == 7:
        r = Quaternion.from_axis_angle(values[3:6], values[6])
        return UnitDualQuaternion.from_rotation_translation(r, values[:3])
    raise ValueError(f"expected 8 (vec8) or 7 (xyz + axis-angle) fields, got {len(values)}")


def load_keypoints(path: str | Path) -> list[UnitDualQuaternion]:
    """Read keypoints from a text file, one record per line.

    Two record layouts are accepted:

    * 8 reals: pose coefficients in vec8 order, and
    * 7 reals: translation x y z (m), rotation axis ax ay az and angle (rad).

    Blank lines and lines starting with '#' are skipped.  Malformed records
    raise ValueError prefixed with ``path:lineno:``.
    """
    path = Path(path)
    keypoints = textio.records(path.read_text(), path, _keypoint)
    if len(keypoints) < 2:
        raise ValueError(f"{path}: need at least 2 keypoints, found {len(keypoints)}")
    return keypoints


def write_keypoints(path: str | Path, keypoints) -> None:
    lines = ["# keypoints: h1 ... h8 (vec8 pose coefficients)"]
    lines += [" ".join(map(textio.fmt, k.vec8())) for k in keypoints]
    textio.write_lines(path, lines)


def write_path_csv(path: str | Path, discrete: DiscretePath) -> None:
    lines = [PATH_CSV_HEADER]
    for s in discrete.samples:
        coeffs = ",".join(map(textio.fmt, s.pose.vec8()))
        lines.append(f"{s.index},{s.segment},{textio.fmt(s.tau)},{coeffs}")
    textio.write_lines(path, lines)


def write_twists_csv(path: str | Path, twists) -> None:
    lines = [TWIST_CSV_HEADER]
    for i, xi in enumerate(twists):
        lines.append(f"{i}," + ",".join(map(textio.fmt, xi.vec6())))
    textio.write_lines(path, lines)
