"""Dual quaternion algebra for rigid-body poses and twists.

A dual quaternion is h = h_P + eps * h_D with quaternion parts h_P, h_D and
eps^2 = 0.  Unit dual quaternions encode rigid transformations as
x = r + eps * (1/2) * p * r (r unit rotation quaternion, p pure translation
quaternion).  Pure dual quaternions (both real parts zero) encode twists:
primary part angular (rad/s), dual part linear (m/s).

Coefficient order is fixed as [w, x, y, z] per quaternion part, so
vec8(h) = [h1..h8] is bit-deterministic for file logs.  All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "DualQuaternion",
    "UnitDualQuaternion",
    "PureDualQuaternion",
    "ScrewParameters",
    "exp",
    "log",
    "power",
    "adjoint",
    "screw_parameters",
    "hamilton_minus8",
    "c8",
]

# Unit/purity checks; 1e-9 matches the invariants the rest of the pipeline
# assumes, 1e-8 is where sin/angle divisions degrade numerically.
UNIT_TOL = 1e-9
PURE_TOL = 1e-9
_SMALL_ANGLE = 1e-8


def _product(p: "Quaternion", q: "Quaternion") -> tuple[float, float, float, float]:
    """The Hamilton product p * q as its four floats [w, x, y, z]."""
    a1, b1, c1, d1 = p.w, p.x, p.y, p.z
    a2, b2, c2, d2 = q.w, q.x, q.y, q.z
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _check_pure(w: float, dw: float) -> None:
    """Raise ValueError unless both real parts are within PURE_TOL of zero (NaN fails)."""
    if not (abs(w) <= PURE_TOL and abs(dw) <= PURE_TOL):
        raise ValueError(f"not a pure dual quaternion: Re parts ({w:.3g}, {dw:.3g})")


def _check_unit(w: float, x: float, y: float, z: float,
                dw: float, dx: float, dy: float, dz: float) -> None:
    """Raise ValueError unless (w, x, y, z) + eps (dw, dx, dy, dz) is unit:
    |primary| = 1 and <primary, dual> = 0, each within UNIT_TOL (NaN fails)."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    dot = w * dw + x * dx + y * dy + z * dz
    if not (abs(n - 1.0) <= UNIT_TOL and abs(dot) <= UNIT_TOL):
        raise ValueError(
            f"not a unit dual quaternion: |primary| = {n:.12g}, <primary, dual> = {dot:.3g}")


class Quaternion:
    """Hamilton quaternion w + x*i + y*j + z*k.

    Treated as immutable: no operation writes to an existing instance.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def zero(cls) -> "Quaternion":
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_vector(cls, v) -> "Quaternion":
        """Pure quaternion embedding of a 3-vector."""
        vx, vy, vz = v
        return cls(0.0, vx, vy, vz)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        """Unit quaternion for a rotation of `angle` rad about `axis`."""
        ax, ay, az = (float(c) for c in axis)
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if n < 1e-12:
            raise ValueError("rotation axis has near-zero magnitude")
        s = math.sin(angle / 2.0) / n
        return cls(math.cos(angle / 2.0), s * ax, s * ay, s * az)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def vector(self) -> np.ndarray:
        """Imaginary part as a 3-vector."""
        return np.array([self.x, self.y, self.z])

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*_product(self, other))
        if isinstance(other, (int, float)):
            k = float(other)
            return Quaternion(self.w * k, self.x * k, self.y * k, self.z * k)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


class DualQuaternion:
    """General dual quaternion h_P + eps * h_D.

    Arithmetic respects eps^2 = 0 exactly: the dual*dual term of a product
    is dropped by construction, never computed and rounded.  Treated as
    immutable: no operation writes to an existing instance.
    """

    __slots__ = ("primary", "dual")

    def __init__(self, primary: Quaternion, dual: Quaternion):
        self.primary = primary
        self.dual = dual

    @classmethod
    def identity(cls) -> "DualQuaternion":
        return cls(Quaternion.identity(), Quaternion.zero())

    @classmethod
    def from_vec8(cls, v) -> "DualQuaternion":
        v = np.asarray(v, dtype=float)
        if v.shape != (8,):
            raise ValueError(f"vec8 must have 8 coefficients, got shape {v.shape}")
        w, x, y, z, dw, dx, dy, dz = v.tolist()
        return cls(Quaternion(w, x, y, z), Quaternion(dw, dx, dy, dz))

    def vec8(self) -> np.ndarray:
        p, d = self.primary, self.dual
        return np.array([p.w, p.x, p.y, p.z, d.w, d.x, d.y, d.z])

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            primary = Quaternion(*_product(self.primary, other.primary))
            pw, px, py, pz = _product(self.primary, other.dual)
            dw, dx, dy, dz = _product(self.dual, other.primary)
            dual = Quaternion(pw + dw, px + dx, py + dy, pz + dz)
            if isinstance(self, UnitDualQuaternion) and isinstance(other, UnitDualQuaternion):
                return UnitDualQuaternion(primary, dual)
            return DualQuaternion(primary, dual)
        if isinstance(other, (int, float)):
            return DualQuaternion(self.primary * other, self.dual * other)
        return NotImplemented

    def __neg__(self):
        return type(self)(-self.primary, -self.dual)

    def conjugate(self) -> "DualQuaternion":
        return type(self)(self.primary.conjugate(), self.dual.conjugate())

    def norm(self) -> tuple[float, float]:
        """Dual-scalar norm (||h_P||, <h_P, h_D>/||h_P||).

        The two components are the independently testable pieces of the unit
        condition: a dual quaternion is unit iff this returns (1, 0).

        Raises ValueError for a zero primary part, where the dual component
        of the norm is undefined.
        """
        np_ = self.primary.norm()
        if np_ < 1e-12:
            raise ValueError("dual quaternion norm is degenerate: zero primary part")
        return np_, self.primary.dot(self.dual) / np_

    def normalized(self) -> "UnitDualQuaternion":
        """Project onto the unit subset by dividing by the dual-scalar norm."""
        n_p, n_d = self.norm()
        p, d, a, b = self.primary, self.dual, 1.0 / n_p, n_d / (n_p * n_p)
        return UnitDualQuaternion(
            Quaternion(p.w * a, p.x * a, p.y * a, p.z * a),
            Quaternion(d.w * a - p.w * b, d.x * a - p.x * b, d.y * a - p.y * b, d.z * a - p.z * b))

    def allclose(self, other: "DualQuaternion", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.vec8(), other.vec8(), rtol=0.0, atol=atol))

    def __repr__(self):
        return f"{type(self).__name__}({self.primary!r}, {self.dual!r})"


class UnitDualQuaternion(DualQuaternion):
    """Pose element: unit dual quaternion r + eps * (1/2) * p * r."""

    __slots__ = ()

    def __init__(self, primary: Quaternion, dual: Quaternion):
        super().__init__(primary, dual)
        _check_unit(primary.w, primary.x, primary.y, primary.z, dual.w, dual.x, dual.y, dual.z)

    @classmethod
    def identity(cls) -> "UnitDualQuaternion":
        return cls(Quaternion.identity(), Quaternion.zero())

    @classmethod
    def from_rotation_translation(cls, r: Quaternion, p) -> "UnitDualQuaternion":
        """Pose from a unit rotation quaternion and a translation 3-vector."""
        if not r.is_unit():
            raise ValueError("rotation quaternion must be unit")
        dual = Quaternion.from_vector(p) * r * 0.5
        return cls(r, dual)

    def rotation(self) -> Quaternion:
        return self.primary

    def translation(self) -> np.ndarray:
        """Translation p = 2 * h_D * h_P^* as a 3-vector."""
        p = self.dual * self.primary.conjugate() * 2.0
        return p.vector

    def inverse(self) -> "UnitDualQuaternion":
        return self.conjugate()


class PureDualQuaternion(DualQuaternion):
    """Twist element: both real parts are exactly zero after construction."""

    __slots__ = ()

    def __init__(self, primary: Quaternion, dual: Quaternion):
        _check_pure(primary.w, dual.w)
        super().__init__(Quaternion(0.0, primary.x, primary.y, primary.z),
                         Quaternion(0.0, dual.x, dual.y, dual.z))

    @classmethod
    def zero(cls) -> "PureDualQuaternion":
        return cls(Quaternion.zero(), Quaternion.zero())

    @classmethod
    def from_vec6(cls, v) -> "PureDualQuaternion":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise ValueError(f"vec6 must have 6 coefficients, got shape {v.shape}")
        return _pure(*v.tolist())

    def vec6(self) -> np.ndarray:
        p, d = self.primary, self.dual
        return np.array([p.x, p.y, p.z, d.x, d.y, d.z])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            k, p, d = float(other), self.primary, self.dual
            _check_pure(p.w * k, d.w * k)  # 0 * k is NaN for k infinite or NaN
            return _pure(p.x * k, p.y * k, p.z * k, d.x * k, d.y * k, d.z * k)
        return super().__mul__(other)

    def __rmul__(self, other):
        return self * other if isinstance(other, (int, float)) else NotImplemented


@dataclass(frozen=True)
class ScrewParameters:
    """Screw decomposition: rotation angle, axis displacement, axis line.

    theta is the rotation angle in [0, pi] (after shortest-path sign
    normalization), d the translation along the axis, `axis` the unit pure
    quaternion direction and `moment` the axis moment, <axis, moment> = 0.
    """

    theta: float
    d: float
    axis: Quaternion
    moment: Quaternion


def _pure(px: float, py: float, pz: float, dx: float, dy: float, dz: float) -> PureDualQuaternion:
    """The pure dual quaternion (px, py, pz) + eps (dx, dy, dz) for from_vec6, scaling and
    log; its real parts are the literal 0.0, so it skips __init__'s purity check."""
    g = PureDualQuaternion.__new__(PureDualQuaternion)
    DualQuaternion.__init__(g, Quaternion(0.0, px, py, pz), Quaternion(0.0, dx, dy, dz))
    return g


def exp(g: DualQuaternion) -> UnitDualQuaternion:
    """Exponential of a pure dual quaternion onto the unit subset.

    Computed by screw decomposition: with theta/2 = ||g_P||, the screw axis
    direction l = g_P/||g_P||, pitch displacement d/2 = <g_P, g_D>/||g_P||
    and moment m = (g_D - (d/2) l)/(theta/2), the result is
    cos(theta_hat/2) + sin(theta_hat/2) * l_hat for the dual angle
    theta_hat = theta + eps*d and dual axis l_hat = l + eps*m, expanded with
    dual trigonometry cos(a+eps*b) = cos a - eps*b*sin a and
    sin(a+eps*b) = sin a + eps*b*cos a.

    Below theta/2 = 1e-8 the screw axis is ill-conditioned and the expansion
    to first order in g_P, (1 + g_P) + eps*(g_D - <g_P, g_D>), is returned.
    """
    gp, gd = g.primary, g.dual
    _check_pure(gp.w, gd.w)
    half_theta = math.sqrt(gp.x ** 2 + gp.y ** 2 + gp.z ** 2)
    if half_theta < _SMALL_ANGLE:
        dual = Quaternion(-(gp.x * gd.x + gp.y * gd.y + gp.z * gd.z), gd.x, gd.y, gd.z)
        return UnitDualQuaternion(Quaternion(1.0, gp.x, gp.y, gp.z), dual)
    lx, ly, lz = gp.x / half_theta, gp.y / half_theta, gp.z / half_theta
    half_d = (gp.x * gd.x + gp.y * gd.y + gp.z * gd.z) / half_theta
    mx = (gd.x - half_d * lx) / half_theta
    my = (gd.y - half_d * ly) / half_theta
    mz = (gd.z - half_d * lz) / half_theta
    c, s = math.cos(half_theta), math.sin(half_theta)
    primary = Quaternion(c, s * lx, s * ly, s * lz)
    dual = Quaternion(
        -half_d * s,
        half_d * c * lx + s * mx,
        half_d * c * ly + s * my,
        half_d * c * lz + s * mz,
    )
    return UnitDualQuaternion(primary, dual)


def log(x: UnitDualQuaternion) -> PureDualQuaternion:
    """Screw logarithm of a unit dual quaternion; inverse of :func:`exp`.

    Shortest-path sign normalization is applied first: if Re(x_P) < 0 the
    argument is negated (same rigid transform by the double cover), so the
    recovered angle lies in [0, pi].  For vanishing rotation, to first order
    in Im(x_P), the primary part is Im(x_P) and the dual part
    p/2 + (1/2) p x Im(x_P) with p = 2 * x_D * x_P^* the translation.
    """
    r, d_ = x.primary, x.dual
    if r.w < 0.0:
        r, d_ = -r, -d_
    s = math.sqrt(r.x ** 2 + r.y ** 2 + r.z ** 2)
    if s < _SMALL_ANGLE:  # p/2 = Im(x_D x_P^*), and (p/2) x Im(x_P) added
        _, px, py, pz = _product(d_, r.conjugate())
        return _pure(r.x, r.y, r.z, px + (py * r.z - pz * r.y), py + (pz * r.x - px * r.z),
                     pz + (px * r.y - py * r.x))
    half_theta = math.atan2(s, r.w)
    lx, ly, lz = r.x / s, r.y / s, r.z / s
    half_d = -d_.w / s
    hc = half_d * r.w / s  # half_d * cos(theta/2) / sin(theta/2)
    mx = d_.x / s - hc * lx
    my = d_.y / s - hc * ly
    mz = d_.z / s - hc * lz
    return _pure(half_theta * lx, half_theta * ly, half_theta * lz, half_d * lx + half_theta * mx,
                 half_d * ly + half_theta * my, half_d * lz + half_theta * mz)


def screw_parameters(x: UnitDualQuaternion) -> ScrewParameters:
    """Extract the screw parameters (theta, d, axis, moment) of a pose.

    All four are read off g = log(x) = (theta/2) l + eps ((d/2) l + (theta/2) m).
    For a pure translation the axis is the translation direction with zero
    moment; for the identity the axis defaults to k_hat.
    """
    g = log(x)
    half_theta = g.primary.norm()
    if half_theta < _SMALL_ANGLE:  # log's dual part is p/2
        half_d = g.dual.norm()
        if 2.0 * half_d < 1e-12:
            axis = Quaternion(0.0, 0.0, 0.0, 1.0)
        else:
            axis = g.dual * (1.0 / half_d)
        return ScrewParameters(0.0, 2.0 * half_d, axis, Quaternion.zero())
    axis = g.primary * (1.0 / half_theta)
    half_d = axis.dot(g.dual)
    moment = (g.dual - axis * half_d) * (1.0 / half_theta)
    return ScrewParameters(2.0 * half_theta, 2.0 * half_d, axis, moment)


def power(x: UnitDualQuaternion, tau: float) -> UnitDualQuaternion:
    """Geometric power x^tau = exp(tau * log(x))."""
    return exp(log(x) * float(tau))


def adjoint(x: UnitDualQuaternion, xi: DualQuaternion) -> PureDualQuaternion:
    """Re-express the twist xi in the frame given by x: returns x * xi * x^*."""
    _check_pure(xi.primary.w, xi.dual.w)
    h = x * xi * x.conjugate()
    return PureDualQuaternion(h.primary, h.dual)


def _hamilton_bases() -> dict[int, np.ndarray]:
    """(8, 64) maps from vec8(h) to H8^+(h) and H8^-(h), flattened.  They are linear
    in vec8(h), so they are read off the product on the basis elements e_i:
    H8^+(e_i) e_j = vec8(e_i * e_j) and H8^-(e_i) e_j = vec8(e_j * e_i)."""
    basis = [DualQuaternion.from_vec8(e) for e in np.eye(8)]
    table = np.array([[(a * b).vec8() for b in basis] for a in basis])  # [i, j] = vec8(e_i e_j)
    return {1: table.transpose(0, 2, 1).reshape(8, 64), -1: table.transpose(1, 2, 0).reshape(8, 64)}


_HAMILTON_BASIS = _hamilton_bases()


def _hamilton8(v: np.ndarray, sign: int) -> np.ndarray:
    """8x8 Hamilton operator of h = vec8 v.

    sign = +1 gives the left operator, vec8(h*b) = H8^+(h) @ vec8(b); sign = -1
    the right operator, vec8(b*h) = H8^-(h) @ vec8(b).  Every entry is a
    single signed coefficient of v.
    """
    return (v @ _HAMILTON_BASIS[sign]).reshape(8, 8)


def hamilton_minus8(h: DualQuaternion) -> np.ndarray:
    """8x8 right Hamilton operator: vec8(a*h) = H8(h) @ vec8(a) for all a."""
    return _hamilton8(h.vec8(), -1)


# Diagonal of C8: vec8(h^*) = _CONJ * vec8(h), read off conjugate() on the basis.
_CONJ = np.array([DualQuaternion.from_vec8(e).conjugate().vec8() @ e for e in np.eye(8)])
_CONJ.setflags(write=False)


def c8() -> np.ndarray:
    """Conjugation matrix: c8() @ vec8(h) = vec8(h^*)."""
    return np.diag(_CONJ)
