import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screwmpc import kinematics
from screwmpc.dualquat import DualQuaternion, Quaternion, UnitDualQuaternion, c8, hamilton_minus8
from screwmpc.kinematics import (
    ChainElement,
    RobotModel,
    forward_kinematics,
    inner_control,
    load_robot_model,
    packaged_model_path,
    pose_error,
    pose_jacobian,
)

from helpers import (
    chain_product_oracle,
    control_law_oracle,
    pose_jacobian_oracle,
    pose_to_matrix,
    quat_to_rotmat,
    random_pose_vec8,
)

READY_Q = np.array([0.0, -math.pi / 4, 0.0, -3 * math.pi / 4, 0.0,
                    math.pi / 2, math.pi / 4])
# The packaged Panda's joints and desired pose at the record of smallest
# sigma_6 (3.2e-5, q_3 and q_5 near 0) of the `track-tight` benchmark's line 3,
# seed 1 (t = 1.224 s): the closed loop's nearest approach to a singularity.
LINE3_Q = np.array([0.015104995412278308, 0.35765683457457975, 0.00046310912379117643,
                    -0.46655798453850394, -0.00019840096720718462, 0.824215084899107,
                    0.8008158907351753])
LINE3_XD = np.array([-2.672328571229755e-33, 0.9238795325112867, -0.38268343236508995,
                     8.326672684688677e-17, -0.22511930438948766, 0.15845146644335428,
                     0.38253567926545107, -0.09742634219130838])


@pytest.fixture(scope="module")
def panda():
    return load_robot_model(packaged_model_path())


def two_joint_chain() -> RobotModel:
    """Two z joints on one line, 0.2 m apart along it: task rank 1 at every q."""
    trans = UnitDualQuaternion.from_rotation_translation(Quaternion.identity(),
                                                         [0.0, 0.0, 0.2])
    return RobotModel(
        (ChainElement(UnitDualQuaternion.identity(), "z"),
         ChainElement(trans, "z")),
        -np.ones(2) * 3, np.ones(2) * 3, np.ones(2) * 2)


def coincident_chain() -> RobotModel:
    """Seven z joints with identity offsets, all on one axis: the task matrix
    has rank 1 at every q, so the law's M = N N^T + n_1 n_1^T + n_2 n_2^T has
    rank 3 and no inverse."""
    return RobotModel(tuple(ChainElement(UnitDualQuaternion.identity(), "z") for _ in range(7)),
                      -np.ones(7) * 3, np.ones(7) * 3, np.ones(7) * 2)


def recording_inverse(record: list):
    """The law's inverse kernel, appending each (M, M^-1) it forms to record."""
    kernel = kinematics._inv

    def recorded(matrix, **kwargs):
        record.append((matrix.copy(), kernel(matrix, **kwargs)))
        return record[-1][1]

    return recorded


def joint_vectors(model: RobotModel):
    """Joint vectors inside the model's position box."""
    return st.tuples(*(st.floats(lo, hi) for lo, hi in zip(model.q_min, model.q_max))
                     ).map(np.array)


def random_chain() -> RobotModel:
    """Seeded random offsets, the first one too: joints about every axis label,
    two fixed elements in a row between two joints, and no trailing flange."""
    rng = np.random.default_rng(64)
    layout = ("z", "x", None, None, "y", "z")
    elements = tuple(ChainElement(UnitDualQuaternion.from_vec8(random_pose_vec8(rng, 0.3)), axis)
                     for axis in layout)
    dof = len(layout) - layout.count(None)
    return RobotModel(elements, -np.ones(dof) * 3, np.ones(dof) * 3, np.ones(dof) * 2)


REFERENCE_MODELS = {
    "panda": load_robot_model(packaged_model_path()),
    "two_joint": two_joint_chain(),
    "random_chain": random_chain(),
}


def single_joint_model(axis="z", offset=None) -> RobotModel:
    if offset is None:
        offset = UnitDualQuaternion.identity()
    return RobotModel((ChainElement(offset, axis),),
                      np.array([-3.0]), np.array([3.0]), np.array([2.0]))


def chain_matrix_oracle(model: RobotModel, q) -> np.ndarray:
    """4x4 homogeneous FK product built from the model data, not the library."""
    t = np.eye(4)
    j = 0
    for elem in model.elements:
        t = t @ pose_to_matrix(elem.offset.vec8())
        if elem.axis is not None:
            axis = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}[elem.axis]
            half = q[j] / 2.0
            quat = np.concatenate([[math.cos(half)],
                                   math.sin(half) * np.asarray(axis, dtype=float)])
            rot = np.eye(4)
            rot[:3, :3] = quat_to_rotmat(quat)
            t = t @ rot
            j += 1
    return t


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_identity_chain():
    model = RobotModel(
        tuple(ChainElement(UnitDualQuaternion.identity(), "z") for _ in range(3)),
        -np.ones(3), np.ones(3), np.ones(3))
    x = forward_kinematics(model, np.zeros(3))
    assert x.allclose(DualQuaternion.identity(), atol=1e-15)


def test_fk_single_joint_rotation():
    model = single_joint_model("z")
    q1 = 0.7
    x = forward_kinematics(model, [q1])
    np.testing.assert_allclose(
        x.vec8(), [math.cos(q1 / 2), 0, 0, math.sin(q1 / 2), 0, 0, 0, 0], atol=1e-15)


def test_fk_panda_matches_matrix_oracle(panda):
    rng = np.random.default_rng(60)
    for _ in range(25):
        q = rng.uniform(panda.q_min, panda.q_max)
        x = forward_kinematics(panda, q)
        np.testing.assert_allclose(pose_to_matrix(x.vec8()),
                                   chain_matrix_oracle(panda, q), atol=1e-10)


def test_fk_unit_norm(panda):
    rng = np.random.default_rng(61)
    for _ in range(50):
        q = rng.uniform(panda.q_min, panda.q_max)
        n_p, n_d = forward_kinematics(panda, q).norm()
        assert abs(n_p - 1.0) < 1e-9
        assert abs(n_d) < 1e-9


def test_fk_joint_count_mismatch(panda):
    with pytest.raises(ValueError, match="7 joints"):
        forward_kinematics(panda, np.zeros(6))


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_single_joint_dual_rows_zero():
    # a pure rotation at the origin never moves the translation coefficients
    model = single_joint_model("z")
    jac = pose_jacobian(model, [0.3])
    np.testing.assert_allclose(jac[4:, 0], np.zeros(4), atol=1e-15)
    half = 0.15
    np.testing.assert_allclose(
        jac[:4, 0], [-math.sin(half) / 2, 0, 0, math.cos(half) / 2], atol=1e-15)


def test_jacobian_matches_finite_differences(panda):
    rng = np.random.default_rng(62)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(panda.q_min, panda.q_max)
        jac = pose_jacobian(panda, q)
        for j in range(7):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            col = (forward_kinematics(panda, qp).vec8()
                   - forward_kinematics(panda, qm).vec8()) / (2 * h)
            worst = max(worst, np.abs(jac[:, j] - col).max())
    assert worst < 1e-5


def test_jacobian_norm_conservation(panda):
    # both components of the dual-quaternion norm are constant along any
    # joint motion: d/dt ||x_P||^2 = 0 and d/dt <x_P, x_D> = 0
    rng = np.random.default_rng(63)
    for _ in range(50):
        q = rng.uniform(panda.q_min, panda.q_max)
        v = forward_kinematics(panda, q).vec8()
        xdot = pose_jacobian(panda, q) @ rng.normal(size=7)
        assert abs(v[:4] @ xdot[:4]) < 1e-12
        assert abs(v[4:] @ xdot[:4] + v[:4] @ xdot[4:]) < 1e-12


# ---------------------------------------------------------------------------
# pose error


def test_pose_error_zero_for_same_pose():
    rng = np.random.default_rng(64)
    x = UnitDualQuaternion.from_vec8(random_pose_vec8(rng))
    err = pose_error(x, x)
    np.testing.assert_allclose(err.vec8(), np.zeros(8), atol=1e-15)


def test_pose_error_double_cover():
    rng = np.random.default_rng(65)
    x = UnitDualQuaternion.from_vec8(random_pose_vec8(rng))
    neg = UnitDualQuaternion(-x.primary, -x.dual)
    err = pose_error(x, neg)
    np.testing.assert_allclose(err.vec8(), np.zeros(8), atol=1e-15)


def test_pose_error_first_order_magnitude():
    from screwmpc.dualquat import PureDualQuaternion, exp

    rng = np.random.default_rng(66)
    for _ in range(20):
        x = UnitDualQuaternion.from_vec8(random_pose_vec8(rng))
        delta = rng.normal(size=6)
        delta *= 1e-3 / np.linalg.norm(delta)
        x_pert = exp(PureDualQuaternion.from_vec6(delta)) * x
        err_norm = np.linalg.norm(pose_error(x, x_pert).vec8())
        assert 1e-4 < err_norm < 1e-2


# ---------------------------------------------------------------------------
# inner control


def test_inner_control_zero_error(panda):
    x_d = forward_kinematics(panda, READY_Q)
    cmd = inner_control(panda, READY_Q, x_d, 10.0 * np.eye(8))
    np.testing.assert_allclose(cmd.qdot, np.zeros(7), atol=1e-12)
    assert not cmd.singular


def test_pose_error_and_inner_control_reject_a_pose_off_unit(panda):
    # 2 x is no pose: read as one, pose_error(2 x, x) would be e = (-1, 0, ...)
    # and inner_control toward 2 x from x would command qdot ~ 1e-19, on target
    x = forward_kinematics(panda, READY_Q)
    doubled = DualQuaternion.from_vec8(2.0 * x.vec8())
    for call in (lambda: pose_error(doubled, x), lambda: pose_error(x, doubled),
                 lambda: inner_control(panda, READY_Q, doubled, 10.0 * np.eye(8))):
        with pytest.raises(ValueError, match="^not a unit dual quaternion: "):
            call()


@pytest.mark.parametrize("call", [
    forward_kinematics,
    pose_jacobian,
    lambda model, q: inner_control(model, q, forward_kinematics(model, READY_Q), np.eye(8)),
], ids=["forward_kinematics", "pose_jacobian", "inner_control"])
def test_chain_pass_rejects_a_nan_joint(panda, call):
    # the one chain pass checks its pose: a NaN joint gives no NaN matrix
    q = READY_Q.copy()
    q[3] = math.nan
    with pytest.raises(ValueError, match="^not a unit dual quaternion: "):
        call(panda, q)


def test_inner_control_closed_loop_regulation(panda):
    rng = np.random.default_rng(67)
    gain = 10.0 * np.eye(8)
    dt = 1e-3
    for _ in range(3):
        q = READY_Q + rng.normal(scale=0.08, size=7)
        x_d = forward_kinematics(panda, READY_Q)
        errs = [np.linalg.norm(pose_error(x_d, forward_kinematics(panda, q)).vec8())]
        for _ in range(4000):
            cmd = inner_control(panda, q, x_d, gain)
            q = q + dt * cmd.qdot
            errs.append(np.linalg.norm(pose_error(x_d, forward_kinematics(panda, q)).vec8()))
            if errs[-1] < 1e-4:
                break
        assert errs[-1] < 1e-4
        assert all(errs[k + 1] <= errs[k] + 1e-12 for k in range(1, len(errs) - 1))


def test_inner_control_isotropic_gain_scaling(panda):
    rng = np.random.default_rng(68)
    q = READY_Q + rng.normal(scale=0.05, size=7)
    x_d = forward_kinematics(panda, READY_Q)
    cmd1 = inner_control(panda, q, x_d, np.eye(8))
    cmd4 = inner_control(panda, q, x_d, 4.0 * np.eye(8))
    np.testing.assert_allclose(cmd4.qdot, 4.0 * cmd1.qdot, rtol=1e-9)


def task_matrix(model: RobotModel, q, x_d) -> np.ndarray:
    """N = H8^-(x_d) C8 J from the public Jacobian."""
    return hamilton_minus8(x_d) @ c8() @ pose_jacobian(model, q)


def rounding_bound(sigma, qdot) -> float:
    """8 eps kappa(N)^2 max(1, ||qdot||), kappa = sigma_1 / sigma_6: the normwise
    rounding of N^+ b through N^T (N N^T + ...)^-1, whose condition is kappa^2."""
    kappa = sigma[0] / sigma[5]
    return 8.0 * np.finfo(float).eps * kappa * kappa * max(1.0, float(np.linalg.norm(qdot)))


@settings(max_examples=60, deadline=None)
@given(q=joint_vectors(REFERENCE_MODELS["panda"]), q_d=joint_vectors(REFERENCE_MODELS["panda"]))
@example(q=LINE3_Q, q_d=READY_Q)  # sigma_6 = 3.2e-5: the SVD route
def test_inner_control_pinv_contract(q, q_d):
    # qdot = -N^+ K e: its task rate is K e projected onto range(N), and it
    # has no component along N's null vector v_7 (the minimum-norm solution)
    panda = REFERENCE_MODELS["panda"]
    x_d = forward_kinematics(panda, q_d)
    gain = 10.0 * np.eye(8)
    qdot = inner_control(panda, q, x_d, gain).qdot
    task = task_matrix(panda, q, x_d)
    u_svd, sigma, vt = np.linalg.svd(task)
    k_e = gain @ pose_error(x_d, forward_kinematics(panda, q)).vec8()
    bound = rounding_bound(sigma, qdot)
    assert np.linalg.norm(task @ qdot + u_svd[:, :6] @ (u_svd[:, :6].T @ k_e)) <= bound
    assert abs(vt[6] @ qdot) <= bound


def test_inner_control_singularity_flag():
    model = two_joint_chain()
    x_d = forward_kinematics(model, [0.1, 0.1])
    cmd = inner_control(model, np.zeros(2), x_d, 10.0 * np.eye(8))
    assert cmd.singular
    assert np.all(np.isfinite(cmd.qdot))


# ---------------------------------------------------------------------------
# single chain walk against the textbook references


@pytest.mark.parametrize("name", REFERENCE_MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fk_equals_plain_chain_product(name, data):
    model = REFERENCE_MODELS[name]
    q = data.draw(joint_vectors(model))
    # The table product sums the 2^n monomial terms in another order than the
    # plain product: table entries are <= 1 in magnitude here and
    # sum |mu_t| <= 2^(n/2), a few ulp each.
    np.testing.assert_allclose(forward_kinematics(model, q).vec8(),
                               chain_product_oracle(model, q).vec8(), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", REFERENCE_MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jacobian_matches_product_rule_oracle(name, data):
    model = REFERENCE_MODELS[name]
    q = data.draw(joint_vectors(model))
    np.testing.assert_allclose(pose_jacobian(model, q), pose_jacobian_oracle(model, q),
                               rtol=0.0, atol=1e-12)


def block_chain(dof: int) -> RobotModel:
    """Seeded random offsets: a fixed element before the first joint, after
    every third joint and two after the last, joints cycling through x, y, z."""
    rng = np.random.default_rng(dof)
    layout = [None]
    for j in range(dof):
        layout += ["xyz"[j % 3]] + [None] * (j % 3 == 1)
    layout += [None, None]
    elements = tuple(ChainElement(UnitDualQuaternion.from_vec8(random_pose_vec8(rng, 0.3)), axis)
                     for axis in layout)
    return RobotModel(elements, -np.ones(dof) * 3, np.ones(dof) * 3, np.ones(dof) * 2)


@pytest.mark.parametrize("dof", [0, 1, 7, 8, 9, 17])
def test_chain_pass_tables_on_any_chain(dof):
    # one block (0-7 joints), one full block (8), two and three combined
    # blocks (9, 17): pose and Jacobian against the plain chain product and
    # the product-rule Jacobian
    model = block_chain(dof)
    assert len(model._chain) == max(1, -(-dof // 8))
    rng = np.random.default_rng(100 + dof)
    for _ in range(5):
        q = rng.uniform(-3.0, 3.0, dof)
        x_eff8, jac = kinematics._pose_and_jacobian(model, q)
        assert jac.shape == (8, dof)
        np.testing.assert_allclose(x_eff8, chain_product_oracle(model, q).vec8(),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(jac, pose_jacobian_oracle(model, q), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", REFERENCE_MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_control_matches_composed_law(name, data):
    model = REFERENCE_MODELS[name]
    q = data.draw(joint_vectors(model))
    x_d = forward_kinematics(model, data.draw(joint_vectors(model)))
    gain = 10.0 * np.eye(8)
    cmd = inner_control(model, q, x_d, gain)
    qdot, singular = control_law_oracle(model, q, x_d, gain)
    assert cmd.singular == singular
    if model.dof < 6:
        # the SVD route: the oracle's own decomposition
        np.testing.assert_allclose(cmd.qdot, qdot, rtol=1e-12, atol=1e-12)
    else:
        # the certified inverse rounds as kappa^2, the SVD as kappa: both
        # are within the rounding bound of the exact law, not of each other's bits
        sigma = np.linalg.svd(task_matrix(model, q, x_d), compute_uv=False)
        assert np.linalg.norm(cmd.qdot - qdot) <= rounding_bound(sigma, qdot)


@pytest.mark.parametrize("case", ["line-3", "singular-m"])
def test_inner_control_off_the_certificate_is_the_svd_law(panda, case):
    # Inputs the certified 8x8 inverse does not serve run the SVD law, bit for
    # bit: near a singularity, where the certificate fails, and where M is
    # singular (np.linalg.inv raises on it), whose inverse the law forms as NaN
    # without a warning, in inner_control and in one MPC tick of the inner loop
    gain = 10.0 * np.eye(8)
    if case == "line-3":
        model, q, x_d = panda, LINE3_Q, UnitDualQuaternion.from_vec8(LINE3_XD)
        assert np.linalg.svd(task_matrix(panda, q, x_d), compute_uv=False)[5] < 1e-4
    else:
        model, q = coincident_chain(), np.linspace(0.1, 0.7, 7)
        x_d = forward_kinematics(model, 0.5 * q)
    inverses = []
    with warnings.catch_warnings(), \
            mock.patch.object(kinematics, "_inv", recording_inverse(inverses)):
        warnings.simplefilter("error")
        cmd = inner_control(model, q, x_d, gain)
        loop = kinematics._InnerLoop(model, q, gain, 1e-3, 9)
        q9, _, singular9, _ = loop.track(x_d.vec8())
    qdot, singular = control_law_oracle(model, q, x_d, gain)
    assert (cmd.singular, singular) == (case == "singular-m",) * 2
    assert np.array_equal(cmd.qdot, qdot)
    assert len(inverses) == 10 and singular9 == singular and np.isfinite(q9).all()
    if case == "singular-m":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(inverses[0][0])
        assert all(np.isnan(m_inv).all() for _, m_inv in inverses)


def test_hot_path_builds_no_quaternion_products(panda, monkeypatch):
    # the kinematics run on Hamilton matrices, not on the algebra classes
    q = READY_Q + 0.1
    x_d = forward_kinematics(panda, READY_Q)
    calls = []
    product = Quaternion.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counted)
    inner_control(panda, q, x_d, 10.0 * np.eye(8))
    forward_kinematics(panda, q)
    pose_jacobian(panda, q)
    assert len(calls) == 0
    Quaternion.identity() * Quaternion.identity()  # the counter itself is live
    assert len(calls) == 1
    # the closed loop's inner loop, built and run for one MPC tick, builds no
    # algebra object at all
    x_d8 = x_d.vec8()
    built = []
    init = Quaternion.__init__
    monkeypatch.setattr(Quaternion, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    loop = kinematics._InnerLoop(panda, q, 10.0 * np.eye(8), 1e-3, 9)
    q9, *_ = loop.track(x_d8)
    assert not built and not np.array_equal(q9, q)
    Quaternion.identity()
    assert len(built) == 1


@settings(max_examples=60, deadline=None)
@given(q=joint_vectors(REFERENCE_MODELS["panda"]), q_d=joint_vectors(REFERENCE_MODELS["panda"]))
@example(q=LINE3_Q, q_d=READY_Q)  # sigma_6 = 3.2e-5: the certificate fails
def test_law_inverse_kernel_is_np_linalg_inv(q, q_d):
    """The law inverts M with ``numpy.linalg._umath_linalg.inv``, the LAPACK
    gufunc that ``np.linalg.inv`` wraps, called without the wrapper.  Pinned
    here: on the M of the inner loop's workspace, at Panda joints and desired
    poses, it is ``np.linalg.inv(M)`` bit for bit; on the coincident chain's
    M (rank 3), inside the law's error state, it is all NaN and warns nothing.
    A numpy release that moves or changes that function fails here.  Checked
    on numpy 2.4.6 only; the ``numpy>=1.23`` floor is unverified for it."""
    gain = 10.0 * np.eye(8)
    inverses = []
    with warnings.catch_warnings(), \
            mock.patch.object(kinematics, "_inv", recording_inverse(inverses)):
        warnings.simplefilter("error")
        for model in (REFERENCE_MODELS["panda"], coincident_chain()):
            loop = kinematics._InnerLoop(model, q, gain, 1e-3, 1)
            loop.track(forward_kinematics(model, q_d).vec8())
    (m, m_inv), (m_singular, m_singular_inv) = inverses
    assert np.array_equal(m_inv, np.linalg.inv(m))
    assert np.linalg.matrix_rank(m_singular) == 3 and np.isnan(m_singular_inv).all()


def test_law_svd_route_raises_unconverged_on_a_nan_jacobian(panda):
    """An inner loop whose Jacobian is NaN fails the certificate and takes
    the SVD route, where ``np.linalg.svd`` does not converge: the law raises
    ``LinAlgError("SVD did not converge")``, unwarned, instead of returning
    a NaN command."""
    loop = kinematics._InnerLoop(panda, LINE3_Q, 10.0 * np.eye(8))
    loop.aim(LINE3_XD)
    loop.jac = np.full_like(loop.jac, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            kinematics._control_law(loop)


def kernel_inputs(case: str, data) -> tuple[np.ndarray, UnitDualQuaternion]:
    """Joints and a desired pose for the inner ticks: "limit" puts a joint
    within 1e-4 of a limit and x_d 0.5 rad past it (the clamp acts), "far"
    draws both anywhere (large errors: the velocity box acts) and "line-3"
    is line 3's nearest approach to a singularity (the SVD route)."""
    panda = REFERENCE_MODELS["panda"]
    if case == "line-3":
        shift = data.draw(st.tuples(*[st.floats(-1e-6, 1e-6)] * 7).map(np.array))
        return LINE3_Q + shift, UnitDualQuaternion.from_vec8(LINE3_XD)
    q = data.draw(joint_vectors(panda))
    if case == "far":
        return q, forward_kinematics(panda, data.draw(joint_vectors(panda)))
    j, upper, gap = data.draw(st.tuples(st.integers(0, 6), st.booleans(), st.floats(0.0, 1e-4)))
    q[j] = panda.q_max[j] - gap if upper else panda.q_min[j] + gap
    q_d = q.copy()
    q_d[j] += 0.5 if upper else -0.5
    return q, forward_kinematics(panda, q_d)


@pytest.mark.parametrize("case", ["limit", "far", "line-3"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_track_tick_is_the_composed_inner_loop(case, data):
    # one MPC tick of 1-9 inner ticks of the inner loop against inner_control,
    # scale_velocity, clamp_position, forward_kinematics, pose_jacobian and
    # pose_error called one by one: within 1e-12 where the certificate holds,
    # and within the SVD route's rounding bound, amplified over the ticks,
    # where it does not
    panda = REFERENCE_MODELS["panda"]
    q, x_d = kernel_inputs(case, data)
    ticks = data.draw(st.integers(1, 9))
    # a full gain: diagonal terms 1-20, the others seeded in [-1, 1]
    gain = (np.diag(data.draw(st.tuples(*[st.floats(1.0, 20.0)] * 8)))
            + np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, (8, 8)))
    dt = 1e-3
    loop = kinematics._InnerLoop(panda, q, gain, dt, ticks)
    # the start pose's chain pass, bit for bit the public one
    assert np.array_equal(loop.x_eff8, forward_kinematics(panda, q).vec8())
    assert np.array_equal(loop.jac, pose_jacobian(panda, q))

    passes, applied = [], []
    chain_pass, law = kinematics._pose_and_jacobian, kinematics._control_law
    with mock.patch.object(kinematics, "_pose_and_jacobian",
                           lambda model, q: passes.append(q) or chain_pass(model, q)), \
            mock.patch.object(kinematics, "_control_law",
                              lambda *args: applied.append(law(*args)) or applied[-1]):
        q_tt, x_tt, singular_tt, err_tt = loop.track(x_d.vec8())
    jac_tt = loop.jac
    assert len(applied) == len(passes) == ticks
    # the error norm is the one the log records, at the tick's last pose, bit for bit
    assert err_tt == np.linalg.norm(pose_error(x_d, forward_kinematics(panda, q_tt)).vec8())

    q_ref, singular_ref, tol = q, False, 1e-12
    for tick in range(ticks):
        # the law the kernel applied is inner_control at the same joints, bit for bit
        cmd = inner_control(panda, q if tick == 0 else passes[tick - 1], x_d, gain)
        assert np.array_equal(applied[tick].qdot, cmd.qdot)
        assert applied[tick].singular == cmd.singular
        ref = inner_control(panda, q_ref, x_d, gain)
        sigma = np.linalg.svd(task_matrix(panda, q_ref, x_d), compute_uv=False)
        tol += dt * rounding_bound(sigma, ref.qdot)
        singular_ref = singular_ref or ref.singular
        q_ref = panda.clamp_position(q_ref + dt * panda.scale_velocity(ref.qdot))
    assert singular_tt == singular_ref
    np.testing.assert_allclose(q_tt, q_ref, rtol=0.0, atol=tol)
    np.testing.assert_allclose(x_tt, forward_kinematics(panda, q_ref).vec8(), rtol=0.0,
                               atol=tol + 1e-12)
    np.testing.assert_allclose(jac_tt, pose_jacobian(panda, q_ref), rtol=0.0, atol=tol + 1e-12)


@pytest.mark.parametrize("gain, match", [
    (np.eye(7), "8x8"),
    (np.full((8, 8), math.nan), "finite"),
    (np.where(np.eye(8, dtype=bool), math.inf, 0.0), "finite"),
], ids=["shape", "nan", "inf"])
def test_gain_is_rejected_unless_finite_8x8(panda, gain, match):
    # where a gain enters, once per call of inner_control and once per run
    x_d = forward_kinematics(panda, READY_Q)
    with pytest.raises(ValueError, match=f"^gain matrix must be {match}$"):
        inner_control(panda, READY_Q + 0.1, x_d, gain)
    with pytest.raises(ValueError, match=f"^gain matrix must be {match}$"):
        kinematics._InnerLoop(panda, READY_Q + 0.1, gain, 1e-3, 9)


@pytest.mark.parametrize("dof", [1, 7, 9])
def test_pose_jacobian_owns_its_array(dof):
    # the pass's Jacobian is a view of the block it shares with the pose; the
    # public Jacobian is an 8 x dof array of its own
    model = REFERENCE_MODELS["panda"] if dof == 7 else block_chain(dof)
    q = np.linspace(-1.0, 1.0, dof)
    x_eff8, jac = kinematics._pose_and_jacobian(model, q)
    public = pose_jacobian(model, q)
    assert public.shape == (8, dof) and public.flags.owndata
    assert not np.shares_memory(public, x_eff8) and np.array_equal(public, jac)


# ---------------------------------------------------------------------------
# model loading and limits


def test_packaged_panda_model(panda):
    assert panda.dof == 7
    assert len(panda.elements) == 8  # 7 joints + fixed flange
    for elem in panda.elements:
        n_p, n_d = elem.offset.norm()
        assert abs(n_p - 1.0) < 1e-9
        assert abs(n_d) < 1e-9
    # documented ready-pose end-effector position for the transcribed data
    x = forward_kinematics(panda, READY_Q)
    np.testing.assert_allclose(x.translation(), [0.30689057, 0.0, 0.59028205],
                               atol=1e-6)


def test_loader_rejects_wrong_joint_count(tmp_path, panda):
    lines = [line for line in packaged_model_path().read_text().splitlines()
             if line.startswith("joint")][:6]
    f = tmp_path / "six.model"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="7-joint"):
        load_robot_model(f)
    assert load_robot_model(f, expected_dof=None).dof == 6


def test_loader_line_numbered_errors(tmp_path):
    f = tmp_path / "bad.model"
    f.write_text("joint z 1 0 0 0 0 0 0 0 -1 1 2\nwobble 1 2 3\n")
    with pytest.raises(ValueError, match=r"bad\.model:2: unknown record"):
        load_robot_model(f)


@pytest.mark.parametrize("record, match", [
    ("joint w 1 0 0 0 0 0 0 0 -1 1 2", "unknown rotation axis label 'w'"),
    ("joint z 1 0 0 0 0 0 0 0 -1 1", "joint record needs: axis, 8 pose, 3 limit fields"),
    ("fixed 1 0 0 0 0 0 0", "fixed record needs 8 pose fields"),
])
def test_loader_rejects_a_record_of_the_wrong_form(tmp_path, record, match):
    f = tmp_path / "bad.model"
    f.write_text(record + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{f}:1: {match}") + "$"):
        load_robot_model(f, expected_dof=None)


def test_model_rejects_limits_of_another_joint_count():
    with pytest.raises(ValueError, match=r"^q_min must have 2 entries, got \(3,\)$"):
        RobotModel(two_joint_chain().elements, -np.ones(3), np.ones(2), np.ones(2))


@pytest.mark.parametrize("record, match", [
    ("joint z 1 0 0 0 nan 0 0 0 -1 1 2", r"bad\.model:1: not a unit dual quaternion"),
    ("joint z 1 0 0 0 0 0 0 0 nan 1 2", r"infeasible: min >= max"),
    ("joint z 1 0 0 0 0 0 0 0 -1 nan 2", r"infeasible: min >= max"),
    ("joint z 1 0 0 0 0 0 0 0 -1 1 nan", r"velocity limits must be positive"),
])
def test_loader_rejects_nan_offsets_and_limits(tmp_path, record, match):
    f = tmp_path / "bad.model"
    f.write_text(record + "\n")
    with pytest.raises(ValueError, match=match) as info:
        load_robot_model(f, expected_dof=None)
    # a bad record names its line, a bad limit its joint
    message = str(info.value)
    assert message.startswith(f"{f}:1: ") or (message.startswith(f"{f}: ")
                                               and message.endswith(": joint 1"))


@pytest.mark.parametrize("limits, match", [
    ("1 -1 2", r"position limits are infeasible: min >= max: joint 2$"),
    ("-1 1 0", r"velocity limits must be positive: joint 2$"),
])
def test_loader_names_file_and_joint_with_bad_limits(tmp_path, limits, match):
    f = tmp_path / "bad.model"
    f.write_text("joint z 1 0 0 0 0 0 0 0 -1 1 2\n"
                 f"joint y 1 0 0 0 0 0 0 0 {limits}\n")
    with pytest.raises(ValueError, match=re.escape(f"{f}: ") + ".*" + match):
        load_robot_model(f, expected_dof=None)


def test_velocity_scaling_preserves_direction(panda):
    qd = np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0])
    scaled = panda.scale_velocity(qd)
    ratio = scaled / np.where(qd == 0, 1.0, qd)
    assert np.max(np.abs(scaled) / panda.qd_max) == pytest.approx(1.0)
    np.testing.assert_allclose(ratio[qd != 0], ratio[0])


def test_position_clamp(panda):
    q = panda.q_max + 1.0
    np.testing.assert_array_equal(panda.clamp_position(q), panda.q_max)


@pytest.mark.parametrize("q_min, q_max", [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0)])
def test_position_clamp_is_np_clip_bit_for_bit(q_min, q_max):
    # signed zeros at and against a bound of either sign, NaN and infinities,
    # on lengths that take the vectorized loops and their scalar tails
    rng = np.random.default_rng(5)
    values = [-0.0, 0.0, -1.0, 1.0, 0.5, -2.0, 2.0, math.nan, math.inf, -math.inf]
    for dof in (1, 3, 7, 16, 33):
        joints = (ChainElement(UnitDualQuaternion.identity(), "z"),) * dof
        model = RobotModel(joints, np.full(dof, q_min), np.full(dof, q_max), np.ones(dof))
        for _ in range(50):
            q = rng.choice(values, size=dof)
            clamped, clipped = model.clamp_position(q), np.clip(q, q_min, q_max)
            assert np.array_equal(clamped, clipped, equal_nan=True)
            assert np.array_equal(np.signbit(clamped), np.signbit(clipped))


@pytest.mark.parametrize("bound", [-0.0, 0.0])
@pytest.mark.parametrize("side", ["min", "max"])
def test_position_clamp_keeps_q_s_zero_at_a_zero_bound(bound, side):
    # against the model's own bound arrays, a signed zero of q that ties a
    # zero bound of the other sign comes out with q's sign (np.clip with
    # those arrays may return the bound's zero instead), on lengths that
    # take the vectorized loops and their scalar tails
    for dof in (1, 3, 7, 16, 33):
        joints = (ChainElement(UnitDualQuaternion.identity(), "z"),) * dof
        q_min, q_max = (np.full(dof, bound), np.ones(dof)) if side == "min" else (
            -np.ones(dof), np.full(dof, bound))
        model = RobotModel(joints, q_min, q_max, np.ones(dof))
        q = np.full(dof, -bound)  # the zero of the other sign
        clamped = model.clamp_position(q)
        assert not clamped.any() and np.array_equal(np.signbit(clamped), np.signbit(q))
