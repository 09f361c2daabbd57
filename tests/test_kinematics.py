import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def joint_vectors(model: RobotModel):
    """Joint vectors inside the model's position box."""
    return st.tuples(*(st.floats(lo, hi) for lo, hi in zip(model.q_min, model.q_max))
                     ).map(np.array)


REFERENCE_MODELS = {
    "panda": load_robot_model(packaged_model_path()),
    "two_joint": two_joint_chain(),
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


def test_inner_control_pinv_contract(panda):
    rng = np.random.default_rng(69)
    q = rng.uniform(panda.q_min, panda.q_max)
    x_d = forward_kinematics(panda, READY_Q)
    task = hamilton_minus8(x_d) @ c8() @ pose_jacobian(panda, q)
    pinv = np.linalg.pinv(task, rcond=1e-8)
    assert np.abs(pinv @ task @ pinv - pinv).max() < 1e-9
    assert np.abs(task @ pinv @ task - task).max() < 1e-9


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
    # The stacked-matrix walk sums in another order than the plain product:
    # vec8 entries are <= 1 in magnitude, 16 products add a few ulp each.
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
    np.testing.assert_allclose(cmd.qdot, qdot, rtol=1e-12, atol=1e-12)


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
    ("joint z 1 0 0 0 nan 0 0 0 -1 1 2", r"bad\.model:1: not a unit dual quaternion"),
    ("joint z 1 0 0 0 0 0 0 0 nan 1 2", r"infeasible: min >= max"),
    ("joint z 1 0 0 0 0 0 0 0 -1 nan 2", r"infeasible: min >= max"),
    ("joint z 1 0 0 0 0 0 0 0 -1 1 nan", r"velocity limits must be positive"),
])
def test_loader_rejects_nan_offsets_and_limits(tmp_path, record, match):
    f = tmp_path / "bad.model"
    f.write_text(record + "\n")
    with pytest.raises(ValueError, match=match):
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
