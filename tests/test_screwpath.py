import dataclasses
import math

import numpy as np
import pytest

from screwmpc.dualquat import (
    PureDualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    exp,
    log,
)
from screwmpc.screwpath import (
    generate_path,
    load_keypoints,
    reference_twists,
    sclerp,
    write_keypoints,
    write_path_csv,
    write_twists_csv,
)

from helpers import pose_rotation_translation, random_pose_vec8, same_bits


def pose(r: Quaternion, p) -> UnitDualQuaternion:
    return UnitDualQuaternion.from_rotation_translation(r, p)


def random_pose(rng) -> UnitDualQuaternion:
    return UnitDualQuaternion.from_vec8(random_pose_vec8(rng))


def sign_aligned_error(a: UnitDualQuaternion, b: UnitDualQuaternion) -> float:
    va, vb = a.vec8(), b.vec8()
    if va @ vb < 0:
        vb = -vb
    return float(np.abs(va - vb).max())


# ---------------------------------------------------------------------------
# sclerp


def test_sclerp_constant_for_equal_endpoints():
    rng = np.random.default_rng(30)
    x = random_pose(rng)
    for tau in (0.0, 0.3, 1.0):
        assert sign_aligned_error(sclerp(x, x, tau), x) < 1e-12


def test_sclerp_linear_translation():
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.identity(), [1.0, 0, 0])
    mid = sclerp(a, b, 0.5)
    np.testing.assert_allclose(mid.translation(), [0.5, 0, 0], atol=1e-12)


def test_sclerp_rotation_angle_scaling():
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [0, 0, 0])
    mid = sclerp(a, b, 0.5)
    expected = Quaternion.from_axis_angle([0, 0, 1], math.pi / 4)
    np.testing.assert_allclose(mid.rotation().as_array(), expected.as_array(), atol=1e-12)


def test_sclerp_rejects_tau_outside_unit_interval():
    rng = np.random.default_rng(31)
    a, b = random_pose(rng), random_pose(rng)
    for tau in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sclerp(a, b, tau)


def test_sclerp_endpoints():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        assert sign_aligned_error(sclerp(a, b, 0.0), a) < 1e-12
        assert sign_aligned_error(sclerp(a, b, 1.0), b) < 1e-9


def test_sclerp_left_invariance():
    rng = np.random.default_rng(33)
    for _ in range(100):
        z, a, b = (random_pose(rng) for _ in range(3))
        tau = rng.uniform()
        direct = z * sclerp(a, b, tau)
        shifted = sclerp(z * a, z * b, tau)
        assert sign_aligned_error(direct, shifted) < 1e-9


def test_sclerp_constant_screw_axis():
    rng = np.random.default_rng(34)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        tau1, tau2 = sorted(rng.uniform(size=2))
        if tau2 - tau1 < 1e-3:
            continue
        x1, x2 = sclerp(a, b, tau1), sclerp(a, b, tau2)
        seg = log(x1.inverse() * x2).vec6()
        if a.primary.dot(b.primary) < 0:
            b_aligned = UnitDualQuaternion(-b.primary, -b.dual)
        else:
            b_aligned = b
        full = log(a.inverse() * b_aligned).vec6()
        norm_seg, norm_full = np.linalg.norm(seg), np.linalg.norm(full)
        if norm_full < 1e-9:
            continue
        residual = np.abs(seg / norm_seg - full / norm_full).max()
        assert residual < 1e-9


# ---------------------------------------------------------------------------
# path generation


def test_generate_path_constant_keypoints():
    rng = np.random.default_rng(35)
    x = random_pose(rng)
    path = generate_path([x, x], 4, 0.01)
    assert len(path) == 5
    for s in path.samples:
        assert sign_aligned_error(s.pose, x) < 1e-12


def test_generate_path_sample_spacing():
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.identity(), [1.0, 0, 0])
    path = generate_path([a, b], 2, 0.01)
    assert [s.tau for s in path.samples] == [0.0, 0.5, 1.0]
    assert [s.index for s in path.samples] == [0, 1, 2]


def test_generate_path_collinear_translations():
    kps = [pose(Quaternion.identity(), [x, 0, 0]) for x in (0.0, 1.0, 2.0)]
    path = generate_path(kps, 2, 0.01)
    positions = [s.pose.translation()[0] for s in path.samples]
    np.testing.assert_allclose(positions, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    # the junction sample keeps the completed segment's label (seg 0, tau 1)
    assert [s.segment for s in path.samples] == [0, 0, 0, 1, 1]
    assert [s.tau for s in path.samples] == [0.0, 0.5, 1.0, 0.5, 1.0]


def test_generate_path_junction_dedup_count():
    rng = np.random.default_rng(36)
    kps = [random_pose(rng) for _ in range(3)]
    m = 7
    path = generate_path(kps, m, 0.01)
    assert len(path) == 2 * m + 1


def test_generate_path_endpoint_and_unit_invariants():
    rng = np.random.default_rng(37)
    kps = [random_pose(rng) for _ in range(4)]
    path = generate_path(kps, 5, 0.01)
    assert sign_aligned_error(path.samples[0].pose, kps[0]) < 1e-9
    assert sign_aligned_error(path.samples[-1].pose, kps[-1]) < 1e-9
    for s in path.samples:
        n_p, n_d = s.pose.norm()
        assert abs(n_p - 1.0) < 1e-9
        assert abs(n_d) < 1e-9


@pytest.mark.parametrize("seed, m", [(41, 1), (42, 4), (43, 9)])
def test_generate_path_is_sclerp_bit_for_bit(seed, m):
    # one screw per segment gives each sample exactly sclerp(x_a, x_b, k/m),
    # on random keypoints and on a segment that needs the double-cover flip
    rng = np.random.default_rng(seed)
    kps = [random_pose(rng) for _ in range(4)]
    kps.append(-(exp(PureDualQuaternion.from_vec6(rng.normal(scale=0.3, size=6))) * kps[-1]))
    assert kps[-2].primary.dot(kps[-1].primary) < 0.0
    path = generate_path(kps, m, 0.01)
    assert len(path) == m * (len(kps) - 1) + 1
    for s in path.samples:
        k = s.index - m * s.segment
        assert s.tau == k / m
        expected = sclerp(kps[s.segment], kps[s.segment + 1], k / m)
        assert same_bits(s.pose.vec8(), expected.vec8()), (s.segment, k)


def test_generate_path_rejects_bad_inputs():
    rng = np.random.default_rng(38)
    x = random_pose(rng)
    with pytest.raises(ValueError, match="2 keypoints"):
        generate_path([x], 5, 0.01)
    with pytest.raises(ValueError, match="samples_per_segment"):
        generate_path([x, x], 0, 0.01)
    for tau_step in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tau_step"):
            generate_path([x, x], 5, tau_step)


@pytest.mark.parametrize("samples, tau_step, match", [
    pytest.param(2.7, 0.01, "samples_per_segment must be an integer, got 2.7", id="fractional"),
    pytest.param(2.0, 0.01, "samples_per_segment must be an integer", id="integral-float"),
    pytest.param(5, math.inf, "tau_step must be positive and finite", id="inf-tau"),
    pytest.param(5, -math.inf, "tau_step must be positive and finite", id="minus-inf-tau"),
])
def test_generate_path_rejects_bad_sampling(samples, tau_step, match):
    # 2.7 samples a segment twice and tau_step = inf gives all-zero twists
    x = random_pose(np.random.default_rng(38))
    with pytest.raises(ValueError, match=match):
        generate_path([x, x], samples, tau_step)


@pytest.mark.parametrize("tau_step", [0.0, -0.01, math.nan, math.inf])
def test_reference_twists_rejects_bad_tau_step(tau_step):
    path = generate_path([random_pose(np.random.default_rng(38))] * 2, 5, 0.01)
    with pytest.raises(ValueError, match="tau_step must be positive and finite"):
        reference_twists(dataclasses.replace(path, tau_step=tau_step))


def test_reference_twists_rejects_a_path_of_one_sample():
    path = generate_path([random_pose(np.random.default_rng(38))] * 2, 5, 0.01)
    with pytest.raises(ValueError, match="^path must have at least 2 samples$"):
        reference_twists(dataclasses.replace(path, samples=path.samples[:1]))


# ---------------------------------------------------------------------------
# reference twists


def test_reference_twists_constant_path():
    rng = np.random.default_rng(39)
    x = random_pose(rng)
    path = generate_path([x, x], 5, 0.01)
    for xi in reference_twists(path):
        assert np.abs(xi.vec6()).max() < 1e-9


def test_reference_twists_pure_translation_rate():
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.identity(), [1.0, 0, 0])
    tau_step = 0.05
    path = generate_path([a, b], 10, tau_step)  # 0.1 m per step
    twists = reference_twists(path)
    np.testing.assert_allclose(twists[0].vec6(), np.zeros(6), atol=1e-15)
    for xi in twists[1:]:
        np.testing.assert_allclose(xi.vec6(), [0, 0, 0, 0.1 / tau_step, 0, 0],
                                   atol=1e-12)


def test_reference_twists_rotation_rate_vs_finite_difference():
    # rotation about k: angular rate from the pose rotation matrices
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.from_axis_angle([0, 0, 1], 0.8), [0, 0, 0])
    tau_step = 0.02
    path = generate_path([a, b], 8, tau_step)
    twists = reference_twists(path)
    delta_phi = 0.8 / 8
    for i, xi in enumerate(twists[1:], start=1):
        np.testing.assert_allclose(xi.vec6(), [0, 0, delta_phi / tau_step, 0, 0, 0],
                                   atol=1e-12)
        # cross-check against the relative rotation matrix angle
        rot_prev, _ = pose_rotation_translation(path.samples[i - 1].pose.vec8())
        rot_cur, _ = pose_rotation_translation(path.samples[i].pose.vec8())
        rel = rot_prev.T @ rot_cur
        angle = math.acos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))
        assert xi.vec6()[2] * tau_step == pytest.approx(angle, abs=1e-12)


def test_reference_twists_reconstruct_path():
    rng = np.random.default_rng(40)
    kps = [random_pose(rng) for _ in range(3)]
    path = generate_path(kps, 6, 0.009)
    twists = reference_twists(path)
    cur = path.samples[0].pose
    for xi, sample in zip(twists[1:], path.samples[1:]):
        cur = exp(xi * (path.tau_step / 2.0)) * cur
        assert sign_aligned_error(cur, sample.pose) < 1e-9


def test_reference_twists_all_pure():
    rng = np.random.default_rng(41)
    kps = [random_pose(rng) for _ in range(3)]
    twists = reference_twists(generate_path(kps, 4, 0.01))
    for xi in twists:
        assert isinstance(xi, PureDualQuaternion)
        assert xi.primary.w == 0.0
        assert xi.dual.w == 0.0


# ---------------------------------------------------------------------------
# file I/O


def test_keypoint_file_roundtrip(tmp_path):
    rng = np.random.default_rng(42)
    kps = [random_pose(rng) for _ in range(3)]
    f = tmp_path / "kp.txt"
    write_keypoints(f, kps)
    loaded = load_keypoints(f)
    assert len(loaded) == 3
    for a, b in zip(kps, loaded):
        np.testing.assert_allclose(a.vec8(), b.vec8(), atol=1e-16)


def test_keypoint_file_axis_angle_records(tmp_path):
    f = tmp_path / "kp.txt"
    f.write_text(
        "# comment line\n"
        "0.1 0.2 0.3   0 0 1   1.5707963267948966\n"
        "\n"
        "0 0 0   1 0 0   0\n"
    )
    kps = load_keypoints(f)
    np.testing.assert_allclose(kps[0].translation(), [0.1, 0.2, 0.3], atol=1e-12)
    expected = Quaternion.from_axis_angle([0, 0, 1], math.pi / 2)
    np.testing.assert_allclose(kps[0].rotation().as_array(), expected.as_array(),
                               atol=1e-12)
    assert kps[1].allclose(UnitDualQuaternion.identity())


@pytest.mark.parametrize("bad_line, match", [
    ("1 2 3", ":2: expected 8"),
    ("1 0 0 0 0 0 0 bogus", ":2: non-numeric"),
    ("2 0 0 0 0 0 0 0", ":2: "),
    ("1 0 0 0 0 nan 0 0", ":2: not a unit"),
    ("nan 0 0 0 0 0 0 0", ":2: not a unit"),
    ("0 nan 0 0 0 1 0.5", ":2: not a unit"),
])
def test_keypoint_file_line_numbered_errors(tmp_path, bad_line, match):
    f = tmp_path / "kp.txt"
    f.write_text("1 0 0 0 0 0 0 0\n" + bad_line + "\n")
    with pytest.raises(ValueError, match=match):
        load_keypoints(f)


def test_keypoint_file_requires_two(tmp_path):
    f = tmp_path / "kp.txt"
    f.write_text("1 0 0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_keypoints(f)


def test_path_csv_format(tmp_path):
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.identity(), [1.0, 0, 0])
    path = generate_path([a, b], 2, 0.01)
    f = tmp_path / "path.csv"
    write_path_csv(f, path)
    lines = f.read_text().splitlines()
    assert lines[0] == "i,seg,tau,h1,h2,h3,h4,h5,h6,h7,h8"
    assert len(lines) == 1 + 3
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "0"
    assert float(row[2]) == 0.5
    np.testing.assert_allclose([float(tok) for tok in row[3:]],
                               sclerp(a, b, 0.5).vec8(), atol=1e-16)


def test_twists_csv_format(tmp_path):
    a = pose(Quaternion.identity(), [0, 0, 0])
    b = pose(Quaternion.identity(), [0.5, 0, 0])
    path = generate_path([a, b], 2, 0.1)
    f = tmp_path / "twists.csv"
    write_twists_csv(f, reference_twists(path))
    lines = f.read_text().splitlines()
    assert lines[0] == "i,wx,wy,wz,vx,vy,vz"
    assert len(lines) == 1 + 3
    vals = [float(tok) for tok in lines[2].split(",")[1:]]
    np.testing.assert_allclose(vals, [0, 0, 0, 2.5, 0, 0], atol=1e-12)
