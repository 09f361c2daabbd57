"""Independent oracles for the test suite.

Everything here is derived from first principles (basis-product axioms,
rotation-matrix formulas, exhaustive enumeration) so the expected values do
not depend on the code paths under test.  The kinematics references are the
exception: they use the library's algebra classes, but in the textbook form
(a plain chain product, the product-rule Jacobian over prefix and suffix
products, the control law composed from the public functions), so they do
not share the single chain walk of ``screwmpc.kinematics``.  The dense
18-state MPC forms are the second exception: they are the smoother's own
per-axis model, prediction and tick QP lifted by Kronecker products with I6,
the paper's form against which the tests check the per-axis design; the
terminal zero acceleration is eliminated from them as ``_axis_qp`` does,
written once here (``eliminate_terminal``) for the oracles.  The
object-by-object pose algebra is the third: the dual quaternion product,
``normalized``, the pure construction and scaling and ``log``'s small-angle
branch composed from ``Quaternion`` operations and numpy, the reference the
float forms of ``screwmpc.dualquat`` must equal bit for bit.  The QP stop
test at a candidate's point is the fourth: it forms the candidate's
stationarity residual, unit-row slacks and unit multipliers at its point,
and every size the stop test measures them against, and decides the screen
and the hold on all of them (``verdict_at_point``), the per-point reference
for the residual, multiplier and slack maps each solution law carries and
for the shortcuts of ``screwmpc.mpc._verdict``.  The QP's law rounds are
the fifth: ``on_laws_oracle`` decides each candidate one by one on that
point verdict, the reference for the batched round of
``screwmpc.mpc._on_laws``; the walk step between rounds is not repeated
here, the oracle calls the solver's own (``screwmpc.mpc._walk``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from screwmpc.dualquat import (
    DualQuaternion,
    PureDualQuaternion,
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
from screwmpc.mpc import (
    _KKT_TOL,
    FEAS_TOL,
    N_AXES,
    QpProblem,
    _axis_qp,
    _scalar_model,
    _scalar_prediction,
    _tick_qp,
    _walk,
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


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The pose algebra object by object, from Quaternion operations


def dq_product_oracle(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """a * b = a_P b_P + eps (a_P b_D + a_D b_P), unit when both factors are."""
    primary = a.primary * b.primary
    dual = a.primary * b.dual + a.dual * b.primary
    if isinstance(a, UnitDualQuaternion) and isinstance(b, UnitDualQuaternion):
        return UnitDualQuaternion(primary, dual)
    return DualQuaternion(primary, dual)


def normalized_oracle(h: DualQuaternion) -> UnitDualQuaternion:
    """h divided by its dual-scalar norm (n_p, n_d):
    h_P / n_p + eps (h_D / n_p - h_P n_d / n_p^2)."""
    n_p, n_d = h.norm()
    primary = h.primary * (1.0 / n_p)
    dual = h.dual * (1.0 / n_p) - h.primary * (n_d / (n_p * n_p))
    return UnitDualQuaternion(primary, dual)


def pure_from_vec6_oracle(v) -> PureDualQuaternion:
    v = np.asarray(v, dtype=float)
    return PureDualQuaternion(Quaternion(0.0, v[0], v[1], v[2]), Quaternion(0.0, v[3], v[4], v[5]))


def pure_scaled_oracle(g: PureDualQuaternion, k) -> PureDualQuaternion:
    return PureDualQuaternion(g.primary * k, g.dual * k)


def small_angle_log_oracle(x: UnitDualQuaternion) -> PureDualQuaternion:
    """log(x) for |Im(x_P)| < 1e-8, sign-aligned: Im(x_P) + eps (p/2 + (p/2) x Im(x_P))
    with p = 2 x_D x_P^* the translation."""
    if x.primary.w < 0.0:
        x = -x
    r = x.primary
    p = x.translation() / 2.0
    return PureDualQuaternion(Quaternion(0.0, r.x, r.y, r.z),
                              Quaternion.from_vector(p + np.cross(p, r.vector)))


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
# QP stop test formed at a candidate's point


def stationarity_at_point(e, f, w, x, rows, lam) -> tuple[np.ndarray, np.ndarray]:
    """The stationarity residual E x + f + W_A^T lambda_A of a point x with
    multipliers lam on the rows `rows`, formed at the point, and the size of
    its terms, |E| |x| + |f| + |W_A|^T |lambda_A|."""
    return (e @ x + f + lam @ w[rows],
            np.abs(e) @ np.abs(x) + np.abs(f) + np.abs(lam) @ np.abs(w[rows]))


def slacks_at_point(laws, p: int, v, x, rows, lam) -> tuple:
    """The unit-row slacks V / |W_i| - (W_i / |W_i|) x of problem p at the
    point x, from its bounds v (1 on a row that cannot activate) and the
    unit rows and row norms of its ``_Laws``, and the unit multipliers lam
    |W_i| of the rows `rows` (in row order, 0 on the other rows), formed at
    the point, each with the size of its terms."""
    w_u, v_u = laws.w_unit[p], unit_bounds(laws, p, v)
    s = v_u - w_u @ x
    z, z_size = np.zeros(len(s)), np.zeros(len(s))
    z[rows] = lam * laws.scale[rows, 0]
    z_size[rows] = np.abs(z[rows])
    return s, z, np.abs(v_u) + np.abs(w_u) @ np.abs(x), z_size


def unit_bounds(laws, p: int, v) -> np.ndarray:
    """Problem p's bounds v over its rows' norms, 1 on a row that cannot activate."""
    return np.where(laws.rows[p], v / laws.scale[:, 0], 1.0)


def point_sizes(laws, p: int, f, v, x, rows) -> tuple:
    """The sizes the stop test measures a candidate of problem p against,
    formed at its point x, each at least 1: its unit-row slacks' max(1,
    |W_unit| |x| + |V_unit|), its stationarity residuals' max(1, |E| |x| +
    |f|) and its working rows' (`rows`) unit multipliers' max(1, |W_unit|
    times those)."""
    w_abs, x_abs = np.abs(laws.w_unit[p]), np.abs(x)
    dual = np.maximum(1.0, np.abs(laws.e[p]) @ x_abs + np.abs(f))
    return (np.maximum(1.0, w_abs @ x_abs + np.abs(unit_bounds(laws, p, v))), dual,
            np.maximum(1.0, w_abs[rows] @ dual))


def verdict_at_point(laws, p: int, f, v, x, rows, s, z, r_d) -> tuple[bool, bool]:
    """Whether solve_qp's screen passes a candidate of problem p, whose f and
    V are f and v (x with unit multipliers z in row order on `rows`, unit-row
    slacks s and stationarity residual r_d), and whether it is held, with
    every size of the stop test formed at the point (point_sizes).  The
    screen asks each working row's multiplier and each row's slack over its
    size to be at least -1e-10 and every row to be met within FEAS_TOL; a
    screened candidate is held if its stationarity residuals and its working
    rows' min(slack, multiplier) over their sizes are all at most 1e-10."""
    primal, dual, multiplier = point_sizes(laws, p, f, v, x, rows)
    slack, multiplier = s / primal, z[rows] / multiplier
    screened = bool((multiplier >= -_KKT_TOL).all() and (slack >= -_KKT_TOL).all()
                    and (s * laws.scale[:, 0] >= -FEAS_TOL).all())
    return screened, screened and bool((np.abs(r_d / dual) <= _KKT_TOL).all() and (
        np.minimum(slack[rows], multiplier) <= _KKT_TOL).all())


def on_laws_oracle(laws, theta, f, v, todo, sets, x, lam) -> tuple[set, int]:
    """``screwmpc.mpc._on_laws`` with each candidate decided one by one by
    ``verdict_at_point``, every size of the stop test formed at its point
    (none of the solver's shortcuts: the least multiplier and slack, the
    bound on the sizes, the hold on absolute residuals), and each problem's
    point and multipliers written on its own.  The same arguments and
    results as ``_on_laws``.  The walk step after each round is the
    solver's own (``screwmpc.mpc._walk``), also where the location found
    every problem left."""
    n, m, width = x.shape[1], len(laws.w), laws.width
    masks = (np.asarray(sets, dtype=bool) & laws.rows[todo]).reshape(-1, m)
    owner = todo.tolist() * (len(masks) // len(todo))
    held, rounds, unheld = set(), 0, 0
    joining, gap, before = {}, {}, laws.stored
    while owner:
        rounds += 1
        problems = np.array(owner)
        y, work, count = laws.of(problems, masks)
        y, count = (y @ theta[problems, :, None])[..., 0], count.tolist()
        lam_y, r_d = y[:, n:n + width], y[:, n + width:2 * n + width]
        z, s = y[:, 2 * n + width:2 * (n + width)], y[:, 2 * (n + width):]
        first, last = {}, {}
        for c, p in enumerate(owner):
            last[p] = c
            if p in first:
                continue
            rows, z_c = work[c, :count[c]], np.zeros(m)
            z_c[rows] = z[c, :count[c]]
            screened, taken = verdict_at_point(laws, p, f[p], v[p], y[c, :n], rows, s[c], z_c,
                                               r_d[c])
            if screened:
                first[p] = c, taken
        for p, (c, taken) in first.items():
            if taken:
                held.add(p)
            else:
                unheld = rounds
            rows = work[c, :count[c]]
            x[p], lam[p, rows] = y[c, :n], np.maximum(lam_y[c, :count[c]], 0.0)
        left = [p for p in last if p not in first]
        located = {} if rounds > 1 or not left else laws.locate(left, theta, before)
        owner, masks, unheld = _walk(laws, y, work, masks, left, [last[p] for p in left],
                                     located, joining, gap, x, lam, rounds, unheld)
        owner = owner.tolist()
    return held, unheld


# ---------------------------------------------------------------------------
# MPC prediction by simulation


def prediction_rollout_oracle(sample_time: float, n_p: int, n_c: int):
    """One axis's (F, Phi) by stepping the paper's difference-augmented model.

    Plant a_m = [[1, T], [0, 1]], b_m = [T^2/2, T]^T, c_m = [0, 1] (the double
    integrator's exact zero-order hold); the state is [its backward
    differences; the output]: A = [[a_m, 0], [c_m a_m, 1]], B = [b_m; c_m b_m],
    C = [0, 0, 1].  Column i of F is the output sequence from state e_i with no
    input, column j of Phi the one from rest under a unit increment at step j.
    """
    T = float(sample_time)
    a_m, b_m = np.array([[1.0, T], [0.0, 1.0]]), np.array([0.5 * T * T, T])
    c_m = np.array([0.0, 1.0])
    a = np.block([[a_m, np.zeros((2, 1))], [c_m @ a_m, np.ones((1, 1))]])
    b = np.append(b_m, c_m @ b_m)

    def outputs(x, du):
        out = []
        for k in range(n_p):
            x = a @ x + b * du[k]
            out.append(x[2])
        return out

    f = np.column_stack([outputs(e, np.zeros(n_p)) for e in np.eye(3)])
    phi = np.column_stack([outputs(np.zeros(3), np.eye(n_p)[j]) for j in range(n_c)])
    return f, phi


# ---------------------------------------------------------------------------
# Dense 18-state MPC forms: the smoother's per-axis forms x I6, so variable
# 6j + a and row 6r + a are axis a's variable j and row r


def _per_axis(*dense):
    """The per-axis matrices whose Kronecker products with I6 are `dense`
    (contiguous copies: a strided view sums its products in another order)."""
    return tuple(m[::N_AXES, ::N_AXES].copy() for m in dense)


def build_model(sample_time: float):
    """Difference-augmented model for sample time T: the scalar one x I6.

    Plant A_m = [[I, T*I], [0, I]], B_m = [[T^2/2*I], [T*I]], C_m = [0, I];
    augmented (18 states = 12 backward differences + 6 outputs):
    A = [[A_m, 0], [C_m A_m, I]], B = [[B_m], [C_m B_m]], C = [0, I].
    """
    return tuple(np.kron(m, np.eye(N_AXES)) for m in _scalar_model(sample_time))


@dataclass(frozen=True)
class PredictionMatrices:
    """Condensed prediction Y = F @ state + Phi @ delta_u_sequence."""

    f: np.ndarray    # (6 n_p, 18)
    phi: np.ndarray  # (6 n_p, 6 n_c), lower block-triangular


def build_prediction(model, n_p: int, n_c: int) -> PredictionMatrices:
    """F = kron(F_s, I6) and Phi = kron(Phi_s, I6) from the per-axis prediction."""
    scalar = _scalar_prediction(_per_axis(*model), n_p, n_c)
    return PredictionMatrices(*(np.kron(m, np.eye(N_AXES)) for m in scalar))


def build_setpoint(target, n_p: int) -> np.ndarray:
    """Stack n_p copies of the current 6-vector reference twist."""
    return np.tile(np.asarray(target, dtype=float).reshape(-1), n_p)


def terminal_elimination(n_c: int) -> np.ndarray:
    """M (n_c x n_c - 1): the increments du = M y - u_prev e_last of a plan
    that ends at zero acceleration (u_prev + sum du = 0), from its first
    n_c - 1 increments y."""
    return np.vstack([np.eye(n_c - 1), -np.ones((1, n_c - 1))])


def eliminate_terminal(e, f, w, v, u_prev):
    """A per-axis QP in the n_c increments du, (1/2) du^T E du + f^T du
    subject to W du <= V, as the QP in y of the plans that end at zero
    acceleration (terminal_elimination): E' = M^T E M, f' = M^T (f - E_last
    u_prev), W' = W M and V' = V + W_last u_prev, with E_last and W_last the
    last columns of E and W.  Sizes of terms map alike, given |E|, |W| and
    |u_prev|."""
    m = terminal_elimination(len(f))
    return m.T @ e @ m, m.T @ (f - e[:, -1] * u_prev), w @ m, v + w[:, -1] * u_prev


def build_qp(state, setpoint, prediction: PredictionMatrices, cfg, limits, u_prev) -> QpProblem:
    """The smoother's tick QP (``_tick_qp``, rows as ``_axis_qp`` describes)
    as one dense QP: the QP in the first n_c - 1 increments y of each axis
    (see eliminate_terminal) of E = Phi^T Q Phi + R, f = -Phi^T Q (setpoint
    - F state), variable 6j + a axis a's y_j.  The setpoint must be n_p
    copies of one target (build_setpoint)."""
    setpoint = np.asarray(setpoint, dtype=float).reshape(-1)
    target = setpoint[:N_AXES]
    if not np.array_equal(setpoint, np.tile(target, cfg.n_p), equal_nan=True):
        raise ValueError("setpoint must be n_p copies of one target")
    qp = _tick_qp(_axis_qp(*_per_axis(prediction.f, prediction.phi), cfg, limits),
                  state, target, u_prev)
    eye = np.eye(N_AXES)
    e = np.einsum("aij,ab->iajb", qp.e, eye).reshape(N_AXES * (cfg.n_c - 1), -1)
    return QpProblem(e, qp.f.T.ravel(), np.kron(qp.w, eye), qp.v.T.ravel())


def failed_solve(solve, axes=slice(None)):
    """``solve`` (solve_qp) made to fail on the problems ``axes`` of each
    stack: they read not solved, with NaN points, which a step that applied
    one would integrate into a NaN twist."""
    def failing(qp, **kwargs):
        sol = solve(qp, **kwargs)
        solved, delta_u = sol.solved.copy(), sol.delta_u.copy()
        solved[axes], delta_u[axes] = False, np.nan
        return replace(sol, delta_u=delta_u, solved=solved)
    return failing


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
