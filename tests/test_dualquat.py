import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwmpc.dualquat import (
    DualQuaternion,
    PureDualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    adjoint,
    c8,
    exp,
    hamilton_minus8,
    log,
    power,
    screw_parameters,
    _hamilton8,
)

from helpers import (
    adjoint_matrix_oracle,
    dq_product_oracle,
    hamilton_plus8_oracle,
    mul_oracle,
    normalized_oracle,
    pose_rotation_translation,
    pure_from_vec6_oracle,
    pure_scaled_oracle,
    random_pose_vec8,
    random_pure_vec6,
    same_bits,
    se3_expm_oracle,
    small_angle_log_oracle,
)

I_HAT = DualQuaternion.from_vec8([0, 1, 0, 0, 0, 0, 0, 0])
J_HAT = DualQuaternion.from_vec8([0, 0, 1, 0, 0, 0, 0, 0])
K_HAT = DualQuaternion.from_vec8([0, 0, 0, 1, 0, 0, 0, 0])


def unit(vec8) -> UnitDualQuaternion:
    return UnitDualQuaternion.from_vec8(vec8)


def random_dq(rng) -> DualQuaternion:
    return DualQuaternion.from_vec8(rng.normal(size=8))


# ---------------------------------------------------------------------------
# multiplication


def test_mul_identity():
    rng = np.random.default_rng(1)
    h = random_dq(rng)
    assert (DualQuaternion.identity() * h).allclose(h)
    assert (h * DualQuaternion.identity()).allclose(h)


def test_mul_quaternion_axioms():
    assert (I_HAT * J_HAT).allclose(K_HAT)
    assert (J_HAT * I_HAT).allclose(-K_HAT)
    assert (I_HAT * I_HAT).allclose(-DualQuaternion.identity())


def test_mul_matches_basis_expansion_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = random_dq(rng), random_dq(rng)
        expected = hamilton_plus8_oracle(a.vec8()) @ b.vec8()
        np.testing.assert_allclose((a * b).vec8(), expected, atol=1e-12)


def test_mul_associative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (random_dq(rng) for _ in range(3))
        lhs = ((a * b) * c).vec8()
        rhs = (a * (b * c)).vec8()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# conjugate and norm


def test_conjugate_identity():
    assert DualQuaternion.identity().conjugate().allclose(DualQuaternion.identity())


def test_conjugate_of_unit_gives_inverse():
    rng = np.random.default_rng(4)
    x = unit(random_pose_vec8(rng))
    prod = x * x.conjugate()
    assert prod.allclose(DualQuaternion.identity(), atol=1e-12)


def test_conjugate_involution():
    rng = np.random.default_rng(5)
    h = random_dq(rng)
    assert h.conjugate().conjugate().allclose(h)


def test_norm_of_pose_is_unit():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_p, n_d = unit(random_pose_vec8(rng)).norm()
        assert abs(n_p - 1.0) < 1e-12
        assert abs(n_d) < 1e-12


def test_norm_scaling():
    n_p, n_d = (DualQuaternion.identity() * 2.0).norm()
    assert n_p == pytest.approx(2.0)
    assert n_d == pytest.approx(0.0)


def test_norm_squared_matches_product_expansion():
    # h h^* = ||h_P||^2 + eps * 2 <h_P, h_D>; the returned dual scalar is its root
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_dq(rng)
        hh = mul_oracle(h.vec8(), h.conjugate().vec8())
        n_p, n_d = h.norm()
        assert n_p * n_p == pytest.approx(hh[0], abs=1e-12)
        assert 2.0 * n_p * n_d == pytest.approx(hh[4], abs=1e-12)
        assert np.abs(hh[[1, 2, 3, 5, 6, 7]]).max() < 1e-12


def test_norm_degenerate_zero_primary():
    h = DualQuaternion.from_vec8([0, 0, 0, 0, 1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="degenerate"):
        h.norm()


# ---------------------------------------------------------------------------
# log / exp


def test_log_identity_is_zero():
    g = log(UnitDualQuaternion.identity())
    np.testing.assert_allclose(g.vec8(), np.zeros(8), atol=1e-15)


def test_log_pure_rotation():
    x = UnitDualQuaternion.from_rotation_translation(
        Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [0, 0, 0])
    np.testing.assert_allclose(log(x).vec6(), [0, 0, math.pi / 4, 0, 0, 0], atol=1e-15)


def test_log_pure_translation():
    x = UnitDualQuaternion.from_rotation_translation(Quaternion.identity(), [1.0, 0, 0])
    np.testing.assert_allclose(log(x).vec6(), [0, 0, 0, 0.5, 0, 0], atol=1e-15)


def test_exp_zero_is_identity():
    x = exp(PureDualQuaternion.zero())
    assert x.allclose(DualQuaternion.identity())


def test_exp_translation_limit():
    x = exp(PureDualQuaternion.from_vec6([0, 0, 0, 0.5, 0, 0]))
    np.testing.assert_allclose(x.translation(), [1.0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(x.rotation().as_array(), [1, 0, 0, 0], atol=1e-15)


def test_exp_rejects_non_pure():
    with pytest.raises(ValueError, match="pure"):
        exp(DualQuaternion.from_vec8([0.1, 1, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="pure"):
        exp(DualQuaternion.from_vec8([0, 1, 0, 0, np.nan, 0, 0, 0]))


def test_exp_log_roundtrip_random_screws():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        g = PureDualQuaternion.from_vec6(random_pure_vec6(rng, (math.pi - 0.1) / 2))
        back = log(exp(g))
        worst = max(worst, np.abs(back.vec6() - g.vec6()).max())
    assert worst < 1e-9


def test_log_exp_roundtrip_random_poses():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(500):
        v = random_pose_vec8(rng)
        if v[0] < 0:
            v = -v
        x = unit(v)
        worst = max(worst, np.abs(exp(log(x)).vec8() - x.vec8()).max())
    assert worst < 1e-9
    # below the 1e-8 small-angle threshold both branches keep first-order terms
    x = UnitDualQuaternion.from_rotation_translation(
        Quaternion.from_axis_angle([1.0, 0.0, 0.0], 1.8e-8), [0.0, 0.2, 0.0])
    assert np.abs(exp(log(x)).vec8() - x.vec8()).max() <= 1e-12


def test_exp_matches_homogeneous_matrix_exponential():
    rng = np.random.default_rng(10)
    for _ in range(100):
        g6 = random_pure_vec6(rng, (math.pi - 0.1) / 2)
        x = exp(PureDualQuaternion.from_vec6(g6))
        rot, trans = pose_rotation_translation(x.vec8())
        t_oracle = se3_expm_oracle(g6)
        np.testing.assert_allclose(rot, t_oracle[:3, :3], atol=1e-9)
        np.testing.assert_allclose(trans, t_oracle[:3, 3], atol=1e-9)


def test_exp_output_is_unit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = PureDualQuaternion.from_vec6(random_pure_vec6(rng, math.pi, 3.0))
        n_p, n_d = exp(g).norm()
        assert abs(n_p - 1.0) < 1e-12
        assert abs(n_d) < 1e-12


# ---------------------------------------------------------------------------
# power


def test_power_zero_is_identity():
    rng = np.random.default_rng(12)
    x = unit(random_pose_vec8(rng))
    assert power(x, 0.0).allclose(DualQuaternion.identity(), atol=1e-12)


def test_power_half_turn():
    x = UnitDualQuaternion.from_rotation_translation(
        Quaternion.from_axis_angle([0, 0, 1], math.pi), [0, 0, 0])
    half = power(x, 0.5)
    expected = Quaternion.from_axis_angle([0, 0, 1], math.pi / 2)
    np.testing.assert_allclose(half.rotation().as_array(), expected.as_array(), atol=1e-12)


def test_power_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = random_pose_vec8(rng)
        if v[0] < 0:
            v = -v
        x = unit(v)
        back = power(power(x, 0.3), 1.0 / 0.3)
        assert np.abs(back.vec8() - x.vec8()).max() < 1e-9


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_identity():
    rng = np.random.default_rng(14)
    xi = PureDualQuaternion.from_vec6(rng.normal(size=6))
    out = adjoint(UnitDualQuaternion.identity(), xi)
    np.testing.assert_allclose(out.vec6(), xi.vec6(), atol=1e-15)


def test_adjoint_half_turn_flips_axis():
    x = UnitDualQuaternion.from_rotation_translation(
        Quaternion.from_axis_angle([0, 0, 1], math.pi), [0, 0, 0])
    out = adjoint(x, PureDualQuaternion.from_vec6([1, 0, 0, 0, 0, 0]))
    np.testing.assert_allclose(out.vec6(), [-1, 0, 0, 0, 0, 0], atol=1e-12)


def test_adjoint_matches_matrix_oracle():
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = unit(random_pose_vec8(rng))
        xi = PureDualQuaternion.from_vec6(rng.normal(size=6))
        expected = adjoint_matrix_oracle(x.vec8()) @ xi.vec6()
        np.testing.assert_allclose(adjoint(x, xi).vec6(), expected, atol=1e-10)


def test_adjoint_preserves_purity_and_norms():
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = unit(random_pose_vec8(rng))
        xi = PureDualQuaternion.from_vec6(rng.normal(size=6))
        raw = x * xi * x.conjugate()
        assert abs(raw.primary.w) < 1e-12
        assert abs(raw.dual.w) < 1e-12
        out = adjoint(x, xi)
        assert out.primary.norm() == pytest.approx(xi.primary.norm(), abs=1e-12)


def test_double_cover_same_action():
    rng = np.random.default_rng(17)
    x = unit(random_pose_vec8(rng))
    neg = UnitDualQuaternion(-x.primary, -x.dual)
    xi = PureDualQuaternion.from_vec6(rng.normal(size=6))
    np.testing.assert_allclose(adjoint(x, xi).vec6(), adjoint(neg, xi).vec6(), atol=1e-12)
    rot_a, trans_a = pose_rotation_translation(x.vec8())
    rot_b, trans_b = pose_rotation_translation(neg.vec8())
    np.testing.assert_allclose(rot_a, rot_b, atol=1e-12)
    np.testing.assert_allclose(trans_a, trans_b, atol=1e-12)


# ---------------------------------------------------------------------------
# vectorization


def test_vec6_coefficient_order():
    xi = PureDualQuaternion(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
    np.testing.assert_array_equal(xi.vec6(), [1, 0, 0, 0, 1, 0])


def test_vec8_identity():
    np.testing.assert_array_equal(DualQuaternion.identity().vec8(),
                                  [1, 0, 0, 0, 0, 0, 0, 0])


def test_vec8_roundtrip():
    rng = np.random.default_rng(18)
    v = rng.normal(size=8)
    np.testing.assert_array_equal(DualQuaternion.from_vec8(v).vec8(), v)


def test_vec6_roundtrip():
    rng = np.random.default_rng(19)
    v = rng.normal(size=6)
    np.testing.assert_array_equal(PureDualQuaternion.from_vec6(v).vec6(), v)


def test_pure_rejects_real_parts():
    with pytest.raises(ValueError, match="pure"):
        PureDualQuaternion(Quaternion(0.5, 0, 0, 0), Quaternion.zero())
    with pytest.raises(ValueError, match="pure"):
        PureDualQuaternion(Quaternion(np.nan, 0, 0, 0), Quaternion.zero())


# ---------------------------------------------------------------------------
# Hamilton operator and conjugation matrix


def test_hamilton_minus8_identity():
    np.testing.assert_array_equal(hamilton_minus8(DualQuaternion.identity()), np.eye(8))


def test_hamilton_minus8_defining_property():
    rng = np.random.default_rng(20)
    for _ in range(100):
        a, h = DualQuaternion.from_vec8(rng.normal(size=8)), DualQuaternion.from_vec8(rng.normal(size=8))
        lhs = (a * h).vec8()
        rhs = hamilton_minus8(h) @ a.vec8()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hamilton_minus8_basis_columns():
    # vec8(e_i * i_hat) column table from basis products
    mat = hamilton_minus8(I_HAT)
    for i in range(8):
        e = np.zeros(8)
        e[i] = 1.0
        np.testing.assert_allclose(mat[:, i], mul_oracle(e, I_HAT.vec8()), atol=1e-15)


def test_hamilton8_forms_match_oracles():
    """One table gives both operators, bit for bit against the basis-product oracle."""
    rng = np.random.default_rng(21)
    vectors = [*np.eye(8), *rng.normal(size=(50, 8))]
    for v in vectors:
        plus, minus = _hamilton8(v, 1), _hamilton8(v, -1)
        np.testing.assert_array_equal(plus, hamilton_plus8_oracle(v))
        np.testing.assert_array_equal(minus, hamilton_minus8(DualQuaternion.from_vec8(v)))
        minus_oracle = np.column_stack([mul_oracle(e, v) for e in np.eye(8)])
        np.testing.assert_array_equal(minus, minus_oracle)


def test_c8_conjugation():
    mat = c8()
    np.testing.assert_array_equal(mat @ DualQuaternion.identity().vec8(),
                                  DualQuaternion.identity().vec8())
    np.testing.assert_array_equal(mat @ I_HAT.vec8(), -I_HAT.vec8())
    np.testing.assert_array_equal(mat @ mat, np.eye(8))
    rng = np.random.default_rng(21)
    h = DualQuaternion.from_vec8(rng.normal(size=8))
    np.testing.assert_allclose(mat @ h.vec8(), h.conjugate().vec8(), atol=1e-15)


# ---------------------------------------------------------------------------
# screw parameters


def test_screw_parameters_invariants():
    rng = np.random.default_rng(22)
    for _ in range(100):
        x = unit(random_pose_vec8(rng))
        sp = screw_parameters(x)
        assert 0.0 <= sp.theta <= math.pi + 1e-12
        assert sp.axis.norm() == pytest.approx(1.0, abs=1e-9)
        assert sp.axis.dot(sp.moment) == pytest.approx(0.0, abs=1e-9)


def test_screw_parameters_pure_translation():
    x = UnitDualQuaternion.from_rotation_translation(Quaternion.identity(), [0, 2.0, 0])
    sp = screw_parameters(x)
    assert sp.theta == pytest.approx(0.0)
    assert sp.d == pytest.approx(2.0)
    np.testing.assert_allclose(sp.axis.as_array(), [0, 0, 1, 0], atol=1e-12)


def _screw_rebuild(sp) -> UnitDualQuaternion:
    """exp((theta/2) l + eps ((d/2) l + (theta/2) m)) from screw parameters."""
    half_theta, half_d = sp.theta / 2.0, sp.d / 2.0
    primary = sp.axis * half_theta
    dual = sp.axis * half_d + sp.moment * half_theta
    return exp(PureDualQuaternion(primary, dual))


@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
       half_angle=st.floats(1e-6, math.pi - 1e-6),
       linear=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       kind=st.sampled_from(["screw", "translation", "identity"]),
       flip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_screw_parameters_rebuild_the_pose(axis, half_angle, linear, kind, flip):
    # Half-angles within 1e-8 of 0 or pi are log's pure-translation branch,
    # which keeps the rotation only to 1e-8, so the draws stay clear of them.
    angular = np.asarray(axis) * (half_angle / np.linalg.norm(axis))
    if kind != "screw":
        angular = np.zeros(3)
    if kind == "identity":
        linear = np.zeros(3)
    x = exp(PureDualQuaternion.from_vec6(np.concatenate([angular, linear])))
    if flip:
        x = -x
    back = _screw_rebuild(screw_parameters(x)).vec8()
    assert min(np.abs(back - x.vec8()).max(), np.abs(back + x.vec8()).max()) < 1e-9


@pytest.mark.parametrize("build, match", [
    (lambda: Quaternion.from_axis_angle([0.0, 0.0, 1e-13], 1.0),
     "^rotation axis has near-zero magnitude$"),
    (lambda: DualQuaternion.from_vec8(np.zeros(7)),
     r"^vec8 must have 8 coefficients, got shape \(7,\)$"),
    (lambda: UnitDualQuaternion.from_rotation_translation(Quaternion(2.0, 0.0, 0.0, 0.0),
                                                          np.zeros(3)),
     "^rotation quaternion must be unit$"),
    (lambda: PureDualQuaternion.from_vec6(np.zeros(8)),
     r"^vec6 must have 6 coefficients, got shape \(8,\)$"),
])
def test_constructors_reject_bad_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_unit_constructor_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        UnitDualQuaternion(Quaternion(2.0, 0, 0, 0), Quaternion.zero())
    for v in ([np.nan] * 8, [1, 0, 0, 0, np.nan, 0, 0, 0], [np.nan, 0, 0, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="unit"):
            UnitDualQuaternion.from_vec8(v)


# ---------------------------------------------------------------------------
# the float forms are the object algebra, bit for bit

coefficient = st.floats(-1e3, 1e3)


@st.composite
def unit_poses(draw, rotation=st.sampled_from(["any", "small", "none"])):
    """Unit dual quaternions: any rotation, one with |Im(r)| < 1e-8 (the
    small-angle branch of log) or none, either sign of r."""
    kind = draw(rotation)
    if kind == "any":
        r = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda v: np.linalg.norm(v) > 0.1)))
        r /= np.linalg.norm(r)
    else:
        axis = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        size = draw(st.floats(0.0, 5e-9)) if kind == "small" else 0.0
        r = np.concatenate([[1.0], axis * size])
    if draw(st.booleans()):
        r = -r
    return UnitDualQuaternion.from_rotation_translation(Quaternion(*r),
                                                        draw(st.tuples(*[coefficient] * 3)))


@st.composite
def pure_vectors(draw):
    """vec6 of pure dual quaternions, some with |g_P| < 1e-8 or g_P = 0."""
    v = np.array(draw(st.tuples(*[coefficient] * 6)))
    v[:3] *= draw(st.sampled_from([1.0, 1e-12, 0.0]))
    return v


@given(a=unit_poses(), b=unit_poses(), h=st.tuples(*[coefficient] * 8), v=pure_vectors())
@settings(max_examples=300, deadline=None)
def test_product_is_the_object_product_bit_for_bit(a, b, h, v):
    general, pure = DualQuaternion.from_vec8(h), PureDualQuaternion.from_vec6(v)
    for x, y in ((a, b), (b, a), (a, general), (general, b), (general, general),
                 (general, pure), (pure, general), (a, pure), (pure, b), (pure, pure)):
        got, expected = x * y, dq_product_oracle(x, y)
        assert type(got) is type(expected)
        assert same_bits(got.vec8(), expected.vec8())


@given(a=unit_poses(), b=unit_poses(), h=st.tuples(*[coefficient] * 8).filter(
    lambda v: np.linalg.norm(v[:4]) > 1e-3))
@settings(max_examples=300, deadline=None)
def test_normalized_is_the_object_normalization_bit_for_bit(a, b, h):
    for x in (a * b, DualQuaternion.from_vec8(h)):
        got, expected = x.normalized(), normalized_oracle(x)
        assert type(got) is UnitDualQuaternion
        assert same_bits(got.vec8(), expected.vec8())


@given(v=pure_vectors(), k=st.floats(-1e3, 1e3))
@settings(max_examples=300, deadline=None)
def test_pure_construction_and_scaling_are_the_object_forms_bit_for_bit(v, k):
    g = PureDualQuaternion.from_vec6(v)
    expected = pure_from_vec6_oracle(v)
    assert same_bits(g.vec8(), expected.vec8())
    for got in (g * k, k * g):
        assert type(got) is PureDualQuaternion
        assert same_bits(got.vec8(), pure_scaled_oracle(expected, k).vec8())


@given(x=unit_poses(rotation=st.sampled_from(["small", "none"])))
@settings(max_examples=300, deadline=None)
def test_small_angle_log_is_the_object_form_bit_for_bit(x):
    r = x.primary
    assert math.sqrt(r.x ** 2 + r.y ** 2 + r.z ** 2) < 1e-8
    assert same_bits(log(x).vec8(), small_angle_log_oracle(x).vec8())


def _pose_update(twist, pose, from_vec6, scaled, product, normalized):
    """The smoother's pose update, (exp(g (T/2)) pose).normalized(), from the given forms."""
    return normalized(product(exp(scaled(from_vec6(twist), 0.0045)), pose))


@pytest.mark.parametrize("twist, error", [(np.full(6, np.nan), ValueError),
                                          (np.full(6, 1e200), OverflowError)])
def test_float_forms_fail_as_the_object_forms(twist, error):
    pose = UnitDualQuaternion.from_vec8(random_pose_vec8(np.random.default_rng(3)))
    float_forms = (PureDualQuaternion.from_vec6, lambda g, k: g * k, lambda a, b: a * b,
                   lambda h: h.normalized())
    object_forms = (pure_from_vec6_oracle, pure_scaled_oracle, dq_product_oracle,
                    normalized_oracle)
    for forms in (float_forms, object_forms):
        with pytest.raises(error):
            _pose_update(twist, pose, *forms)
    zero_primary = DualQuaternion(Quaternion.zero(), Quaternion(0.0, 1.0, 0.0, 0.0))
    g = PureDualQuaternion.from_vec6(np.ones(6))
    for fail in (zero_primary.normalized, lambda: normalized_oracle(zero_primary),
                 lambda: g * math.inf, lambda: pure_scaled_oracle(g, math.inf),
                 lambda: g * math.nan, lambda: pure_scaled_oracle(g, math.nan)):
        with pytest.raises(ValueError):
            fail()
