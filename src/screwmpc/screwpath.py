"""Coordinate-invariant pose paths through task-space keypoints.

Consecutive keypoints are connected by screw linear interpolation
x(tau) = x_a * (x_a^-1 * x_b)^tau, sampled at equally spaced tau, and the
discrete path is differentiated into a piecewise reference twist series
xi_r[i] = (2/tau_step) * log(x[i] * x[i-1]^*).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dualquat import (
    PureDualQuaternion,
    Quaternion,
    UnitDualQuaternion,
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
    if x_a.primary.dot(x_b.primary) < 0.0:
        x_b = -x_b
    return x_a * power(x_a.inverse() * x_b, tau)


def generate_path(keypoints, samples_per_segment: int,
                  tau_step: float) -> DiscretePath:
    """Sample the ScLERP path through the keypoints.

    Each of the n-1 segments is sampled at tau in {0, 1/m, ..., 1}; the
    duplicate pose at every junction (a segment start equals the previous
    segment end) is dropped, so the path has m*(n-1) + 1 samples.
    """
    keypoints = list(keypoints)
    if len(keypoints) < 2:
        raise ValueError(f"need at least 2 keypoints, got {len(keypoints)}")
    m = int(samples_per_segment)
    if m < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if not tau_step > 0.0:
        raise ValueError("tau_step must be positive")

    samples: list[PathSample] = []
    index = 0
    for seg in range(len(keypoints) - 1):
        x_a, x_b = keypoints[seg], keypoints[seg + 1]
        first = 0 if seg == 0 else 1
        for k in range(first, m + 1):
            tau = k / m
            samples.append(PathSample(index, seg, tau, sclerp(x_a, x_b, tau)))
            index += 1
    return DiscretePath(tuple(samples), float(tau_step))


def reference_twists(path: DiscretePath) -> list[PureDualQuaternion]:
    """Piecewise reference twists xi_r[i] = (2/tau_step) log(x[i] x[i-1]^*).

    xi_r[0] is zero: there is no preceding pose to difference against.
    """
    if len(path) < 2:
        raise ValueError("path must have at least 2 samples")
    if not path.tau_step > 0.0:
        raise ValueError("tau_step must be positive")
    scale = 2.0 / path.tau_step
    twists = [PureDualQuaternion.zero()]
    poses = path.poses()
    for prev, cur in zip(poses[:-1], poses[1:]):
        twists.append(log(cur * prev.inverse()) * scale)
    return twists


# ---------------------------------------------------------------------------
# File formats


def _fmt(x: float) -> str:
    """17 significant digits round-trip every double: the format of every log."""
    return f"{x:.17g}"


def load_keypoints(path: str | Path) -> list[UnitDualQuaternion]:
    """Read keypoints from a text file, one record per line.

    Two record layouts are accepted:

    * 8 reals: pose coefficients in vec8 order, and
    * 7 reals: translation x y z (m), rotation axis ax ay az and angle (rad).

    Blank lines and lines starting with '#' are skipped.  Malformed records
    raise ValueError with the offending line number.
    """
    path = Path(path)
    keypoints: list[UnitDualQuaternion] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            values = [float(tok) for tok in fields]
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: non-numeric field ({err})") from None
        try:
            if len(values) == 8:
                keypoints.append(UnitDualQuaternion.from_vec8(values))
            elif len(values) == 7:
                t = values[:3]
                r = Quaternion.from_axis_angle(values[3:6], values[6])
                keypoints.append(UnitDualQuaternion.from_rotation_translation(r, t))
            else:
                raise ValueError(
                    f"expected 8 (vec8) or 7 (xyz + axis-angle) fields, got {len(values)}"
                )
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    if len(keypoints) < 2:
        raise ValueError(f"{path}: need at least 2 keypoints, found {len(keypoints)}")
    return keypoints


def write_keypoints(path: str | Path, keypoints) -> None:
    lines = ["# keypoints: h1 ... h8 (vec8 pose coefficients)"]
    lines += [" ".join(_fmt(c) for c in k.vec8()) for k in keypoints]
    Path(path).write_text("\n".join(lines) + "\n")


def write_path_csv(path: str | Path, discrete: DiscretePath) -> None:
    lines = [PATH_CSV_HEADER]
    for s in discrete.samples:
        coeffs = ",".join(_fmt(c) for c in s.pose.vec8())
        lines.append(f"{s.index},{s.segment},{_fmt(s.tau)},{coeffs}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_twists_csv(path: str | Path, twists) -> None:
    lines = [TWIST_CSV_HEADER]
    for i, xi in enumerate(twists):
        lines.append(f"{i}," + ",".join(_fmt(c) for c in xi.vec6()))
    Path(path).write_text("\n".join(lines) + "\n")
