"""Independent oracles for the test suite.

Everything here is derived from first principles (basis-product axioms,
rotation-matrix formulas, exhaustive enumeration) so the expected values do
not depend on the code paths under test.  The kinematics references are the
exception: they use the library's algebra classes, but in the textbook form
(a plain chain product, the product-rule Jacobian over prefix and suffix
products, the control law composed from the public functions), so they do
not share the single chain walk of ``screwmpc.kinematics``.
"""

from __future__ import annotations

import numpy as np

from screwmpc.dualquat import (
    DualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    c8,
    hamilton_minus8,
)
from screwmpc.kinematics import (
    DLS_DAMPING,
    SV_CUTOFF,
    forward_kinematics,
    pose_error,
    pose_jacobian,
)

# ---------------------------------------------------------------------------
# Dual quaternion basis algebra: basis order [1, i, j, k, e, ei, ej, ek]
# built from i^2 = j^2 = k^2 = ijk = -1 and e != 0, e^2 = 0 (e central).

_QUAT_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def basis_product(a: int, b: int) -> tuple[int, int] | None:
    """Product of two of the 8 basis elements; None when it vanishes."""
    da, qa = divmod(a, 4)
    db, qb = divmod(b, 4)
    if da + db >= 2:
        return None
    sign, q = _QUAT_TABLE[(qa, qb)]
    return sign, q + 4 * (da + db)


def mul_oracle(a8, b8) -> np.ndarray:
    """Dual quaternion product by brute-force basis expansion."""
    out = np.zeros(8)
    for i in range(8):
        if a8[i] == 0.0:
            continue
        for j in range(8):
            if b8[j] == 0.0:
                continue
            prod = basis_product(i, j)
            if prod is None:
                continue
            sign, k = prod
            out[k] += sign * a8[i] * b8[j]
    return out


def hamilton_plus8_oracle(a8) -> np.ndarray:
    """Left Hamilton operator columns from basis products: vec8(a*e_j)."""
    cols = []
    for j in range(8):
        e = np.zeros(8)
        e[j] = 1.0
        cols.append(mul_oracle(a8, e))
    return np.column_stack(cols)


def quat_conj(q4) -> np.ndarray:
    return np.array([q4[0], -q4[1], -q4[2], -q4[3]])


def quat_mul(p4, q4) -> np.ndarray:
    return mul_oracle(np.concatenate([p4, np.zeros(4)]),
                      np.concatenate([q4, np.zeros(4)]))[:4]


def quat_to_rotmat(q4) -> np.ndarray:
    w, x, y, z = q4
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def pose_rotation_translation(vec8) -> tuple[np.ndarray, np.ndarray]:
    """Extract (R, p) from pose coefficients, independent of the library."""
    r, d = np.asarray(vec8)[:4], np.asarray(vec8)[4:]
    p = 2.0 * quat_mul(d, quat_conj(r))
    return quat_to_rotmat(r), p[1:]


def pose_to_matrix(vec8) -> np.ndarray:
    rot, trans = pose_rotation_translation(vec8)
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = trans
    return t


def skew(v) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def adjoint_matrix_oracle(vec8) -> np.ndarray:
    """6x6 screw transform [[R, 0], [skew(p) R, R]] acting on (w; v)."""
    rot, p = pose_rotation_translation(vec8)
    out = np.zeros((6, 6))
    out[:3, :3] = rot
    out[3:, :3] = skew(p) @ rot
    out[3:, 3:] = rot
    return out


def se3_expm_oracle(g_vec6) -> np.ndarray:
    """4x4 homogeneous matrix exp of the twist 2*g via scipy's expm."""
    from scipy.linalg import expm

    omega = 2.0 * np.asarray(g_vec6)[:3]
    v = 2.0 * np.asarray(g_vec6)[3:]
    xi_hat = np.zeros((4, 4))
    xi_hat[:3, :3] = skew(omega)
    xi_hat[:3, 3] = v
    return expm(xi_hat)


def random_unit_quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose_vec8(rng, translation_scale: float = 1.0) -> np.ndarray:
    """Random pose coefficients r + eps*(1/2)p*r built with the oracle algebra."""
    r = random_unit_quat(rng)
    p = np.concatenate([[0.0], rng.normal(scale=translation_scale, size=3)])
    dual = 0.5 * quat_mul(p, r)
    return np.concatenate([r, dual])


def random_pure_vec6(rng, max_half_angle: float, dual_scale: float = 1.0) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    half_angle = rng.uniform(0.0, max_half_angle)
    return np.concatenate([half_angle * axis, rng.normal(scale=dual_scale, size=3)])


# ---------------------------------------------------------------------------
# QP reference: exhaustive active-set enumeration


def qp_enumeration_oracle(e, f, w, v):
    """Global minimum of a small inequality QP by trying every active set.

    For each subset of constraint rows, solve the equality-constrained KKT
    system and keep the best feasible candidate with nonnegative
    multipliers.  Returns (x, objective); assumes the problem is feasible.
    """
    n = len(f)
    m = len(v)
    best_x, best_obj = None, np.inf
    for mask in range(1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        k = len(rows)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = e
        rhs = np.concatenate([-f, v[rows]])
        if k:
            ws = w[rows]
            kkt[:n, n:] = ws.T
            kkt[n:, :n] = ws
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x, lam = sol[:n], sol[n:]
        if k and np.any(lam < -1e-9):
            continue
        if np.any(w @ x - v > 1e-8):
            continue
        obj = 0.5 * x @ e @ x + f @ x
        if obj < best_obj:
            best_x, best_obj = x, obj
    return best_x, best_obj


# ---------------------------------------------------------------------------
# Kinematics references

_AXIS_VECTORS = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _joint_node(axis: str, angle: float) -> UnitDualQuaternion:
    return UnitDualQuaternion(Quaternion.from_axis_angle(_AXIS_VECTORS[axis], angle),
                              Quaternion.zero())


def chain_product_oracle(model, q) -> UnitDualQuaternion:
    """Plain ordered product: each offset, then its joint rotation if any."""
    x = UnitDualQuaternion.identity()
    j = 0
    for elem in model.elements:
        x = x * elem.offset
        if elem.axis is not None:
            x = x * _joint_node(elem.axis, q[j])
            j += 1
    return x


def pose_jacobian_oracle(model, q) -> np.ndarray:
    """Product-rule Jacobian: column j = (1/2) vec8(prefix_j * a_j * suffix_j).

    prefix_j is the chain product up to and including joint j's rotation,
    suffix_j the product of every element after it.
    """
    nodes: list[DualQuaternion] = []
    joint_at: list[int | None] = []
    j = 0
    for elem in model.elements:
        node = elem.offset
        if elem.axis is not None:
            node = node * _joint_node(elem.axis, q[j])
            joint_at.append(j)
            j += 1
        else:
            joint_at.append(None)
        nodes.append(node)

    n = len(nodes)
    prefix: list[DualQuaternion] = [DualQuaternion.identity()]
    for node in nodes:
        prefix.append(prefix[-1] * node)
    suffix: list[DualQuaternion] = [DualQuaternion.identity()] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = nodes[i] * suffix[i + 1]

    jac = np.zeros((8, model.dof))
    for i, col in enumerate(joint_at):
        if col is None:
            continue
        axis = _AXIS_VECTORS[model.elements[i].axis]
        gen = DualQuaternion(Quaternion(0.0, *axis), Quaternion.zero())
        jac[:, col] = 0.5 * (prefix[i + 1] * gen * suffix[i + 1]).vec8()
    return jac


def control_law_oracle(model, q, x_d, gain) -> tuple[np.ndarray, bool]:
    """qdot = -(H8(x_d) C8 J)^+ K vec8(e) from the public FK and Jacobian.

    Pseudo-inverse with singular-value cutoff, or damped least squares when
    the nominal task rank min(dof, 6) collapses; returns (qdot, singular).
    """
    err = pose_error(x_d, forward_kinematics(model, q))
    task = hamilton_minus8(x_d) @ c8() @ pose_jacobian(model, q)
    u_svd, sigma, vt = np.linalg.svd(task, full_matrices=False)
    singular = bool(sigma[min(model.dof, 6) - 1] < SV_CUTOFF)
    if singular:
        inv_sigma = sigma / (sigma * sigma + DLS_DAMPING * DLS_DAMPING)
    else:
        inv_sigma = np.array([1.0 / s if s >= SV_CUTOFF else 0.0 for s in sigma])
    task_pinv = vt.T @ np.diag(inv_sigma) @ u_svd.T
    return -task_pinv @ (gain @ err.vec8()), singular


def qp_feasible_oracle(w, v) -> bool:
    """Whether W x <= V has a solution, by scipy's LP (HiGHS); infinite rows are dropped."""
    from scipy.optimize import linprog
    finite = np.isfinite(v)
    result = linprog(np.zeros(w.shape[1]), A_ub=w[finite], b_ub=v[finite],
                     bounds=[(None, None)] * w.shape[1], method="highs")
    return result.status == 0
