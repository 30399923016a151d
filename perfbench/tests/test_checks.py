"""The benchmark's correctness checks accept a correct result and reject
corrupted ones.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SIGMA = 1e-3


def _random_quats(rng, n):
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q * np.sign(q[:, :1])


def _ring_scene(seed=0, n_views=12, n_points=40):
    """Centers on a ring of radius 8 (nearly planar, like the simulator's
    generic ring) and points in a box around the origin."""
    rng = np.random.default_rng(seed)
    phi = 2 * np.pi * np.arange(n_views) / n_views + 0.15 * rng.standard_normal(n_views)
    centers = np.stack([8 * np.cos(phi), 8 * np.sin(phi), 0.5 * rng.standard_normal(n_views)],
                       axis=1)
    points = rng.uniform(-2, 2, (n_points, 3))
    rotations = np.stack([checks.quat_to_matrix(q) for q in _random_quats(rng, n_views)])
    return rotations, centers, points


def _similar(rng, *point_sets):
    """The point sets under one random similarity."""
    rotation = checks.quat_to_matrix(_random_quats(rng, 1)[0])
    return [0.3 * xyz @ rotation.T + np.array([1.0, -2.0, 0.5]) for xyz in point_sets]


def _gauge_fixed(centers, points):
    """Reference view 0 at the origin, other centers stacked to unit norm."""
    shift = centers[0].copy()
    scale = np.linalg.norm(centers[1:] - shift)
    return (centers - shift) / scale, (points - shift) / scale


def test_similarity_fit_recovers_a_known_transform():
    rng = np.random.default_rng(1)
    src = rng.standard_normal((20, 3))
    rotation = checks.quat_to_matrix(_random_quats(rng, 1)[0])
    dst = 2.5 * src @ rotation.T + np.array([3.0, -1.0, 0.25])
    scale, fitted, translation, rms = checks.fit_similarity(src, dst)
    assert scale == pytest.approx(2.5, rel=1e-12)
    np.testing.assert_allclose(fitted, rotation, atol=1e-12)
    np.testing.assert_allclose(translation, [3.0, -1.0, 0.25], atol=1e-12)
    assert rms < 1e-12


def test_exact_scene_accepts_a_gauge_transformed_truth():
    _, gt_centers, gt_points = _ring_scene()
    centers, points = _gauge_fixed(*_similar(np.random.default_rng(2), gt_centers, gt_points))
    checks.check_gauge(centers, 0)
    checks.check_exact_scene(centers, points, gt_centers, gt_points, rel_tol=1e-8)


def test_exact_scene_rejects_a_perturbed_center():
    _, gt_centers, gt_points = _ring_scene()
    centers, points = _gauge_fixed(gt_centers, gt_points)
    centers[5] += 1e-6
    with pytest.raises(CheckFailed, match="center error"):
        checks.check_exact_scene(centers, points, gt_centers, gt_points, rel_tol=1e-8)


def test_exact_scene_rejects_a_flipped_global_sign():
    _, gt_centers, gt_points = _ring_scene()
    centers, points = _gauge_fixed(gt_centers, gt_points)
    checks.check_gauge(-centers, 0)  # the gauge alone cannot see the sign
    with pytest.raises(CheckFailed):
        checks.check_exact_scene(-centers, -points, gt_centers, gt_points, rel_tol=1e-8)


def test_gauge_rejects_a_moved_reference_or_scale():
    _, gt_centers, gt_points = _ring_scene()
    centers, _ = _gauge_fixed(gt_centers, gt_points)
    moved = centers.copy()
    moved[0, 2] = 1e-300
    with pytest.raises(CheckFailed, match="reference center"):
        checks.check_gauge(moved, 0)
    with pytest.raises(CheckFailed, match="norm"):
        checks.check_gauge(centers * (1 + 1e-9), 0)


def test_noisy_poses_accept_noise_at_sigma_and_reject_a_perturbed_or_flipped_center():
    rng = np.random.default_rng(3)
    rotations, gt_centers, _ = _ring_scene()
    extent = checks.extent(gt_centers)
    centers = gt_centers + 0.5 * SIGMA * extent * rng.standard_normal(gt_centers.shape) / 3
    rms = checks.check_noisy_poses(rotations, centers, rotations, gt_centers, SIGMA, 2.0)
    assert 0 < rms < 2.0 * SIGMA * extent
    bad = centers.copy()
    bad[3] += 0.5
    with pytest.raises(CheckFailed, match="center RMS"):
        checks.check_noisy_poses(rotations, bad, rotations, gt_centers, SIGMA, 2.0)
    with pytest.raises(CheckFailed, match="center RMS"):
        checks.check_noisy_poses(rotations, -centers, rotations, gt_centers, SIGMA, 2.0)


def test_rotation_error_ignores_the_gauge_and_sees_one_bad_view():
    rng = np.random.default_rng(4)
    rotations, centers, _ = _ring_scene()
    gauge = checks.quat_to_matrix(_random_quats(rng, 1)[0])
    assert checks.rotation_error_deg(rotations @ gauge, rotations) < 1e-10
    tilted = rotations.copy()
    angle = math.radians(1.0)
    tilted[2] = tilted[2] @ checks.quat_to_matrix(
        [math.cos(angle / 2), math.sin(angle / 2), 0.0, 0.0])
    assert checks.rotation_error_deg(tilted, rotations) > 0.5 / len(rotations)
    with pytest.raises(CheckFailed, match="rotation error"):
        checks.check_noisy_poses(tilted, centers, rotations, centers, SIGMA, 0.05)


def test_reprojection_rejects_a_point_behind_its_camera():
    rotations = np.stack([np.eye(3), np.eye(3)])
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    points = np.array([[0.0, 0.0, 5.0]])
    xy = np.array([[0.0, 0.0], [-0.2, 0.0]])
    rms = checks.reprojection_rms(rotations, centers, points, [0, 0], [0, 1], xy)
    assert rms == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(CheckFailed, match="behind"):
        checks.reprojection_rms(rotations, centers, -points, [0, 0], [0, 1], xy)


def _pose_text(quats, centers):
    lines = ["POSEONLY-POSES 1", str(len(quats))]
    for view, (q, c) in enumerate(zip(quats, centers)):
        lines.append(f"P {view} " + " ".join(repr(float(v)) for v in (*q, *c)))
    return "\n".join(lines) + "\n"


def test_pose_file_round_trips_and_rejects_truncation():
    rng = np.random.default_rng(5)
    quats = _random_quats(rng, 6)
    centers = rng.standard_normal((6, 3))
    text = _pose_text(quats, centers)
    rotations, parsed = checks.parse_pose_file(text, 6)
    np.testing.assert_array_equal(parsed, centers)
    np.testing.assert_allclose(rotations, [checks.quat_to_matrix(q) for q in quats], atol=1e-15)
    lines = text.splitlines()
    with pytest.raises(CheckFailed, match="5 of 6 views"):
        checks.parse_pose_file("\n".join(lines[:-1]) + "\n", 6)
    with pytest.raises(CheckFailed, match="bad pose line"):
        checks.parse_pose_file(text[: text.rstrip().rindex(" ")], 6)


def test_ply_parse_rejects_truncation():
    points = np.arange(12.0).reshape(4, 3)
    cams = -np.arange(6.0).reshape(2, 3)
    body = [" ".join(repr(float(v)) for v in p) + " 255 255 255" for p in points]
    body += [" ".join(repr(float(v)) for v in c) + " 255 0 0" for c in cams]
    header = ["ply", "format ascii 1.0", "element vertex 6", "end_header"]
    text = "\n".join(header + body) + "\n"
    got_points, got_cams = checks.parse_ply(text, 4, 2)
    np.testing.assert_array_equal(got_points, points)
    np.testing.assert_array_equal(got_cams, cams)
    with pytest.raises(CheckFailed, match="vertices"):
        checks.parse_ply("\n".join(header + body[:-1]) + "\n", 4, 2)


@pytest.mark.parametrize("history", [[3.0, 2.0, 2.5, 1.0], [3.0, 1.0, 1.0, 1.0 + 1e-12]])
def test_cost_history_rejects_a_rise(history):
    with pytest.raises(CheckFailed, match="rises"):
        checks.check_cost_history(history, 3)


def test_cost_history_needs_the_requested_iterations_and_a_decrease():
    checks.check_cost_history([3.0, 2.0, 2.0, 1.0], 3)
    with pytest.raises(CheckFailed, match="entries"):
        checks.check_cost_history([3.0, 2.0, 1.0], 3)
    with pytest.raises(CheckFailed, match="not below"):
        checks.check_cost_history([3.0, 3.0, 3.0, 3.0], 3)


def test_eval_parse_rejects_repeated_keys():
    assert checks.parse_eval("a=1\nb=x\n") == {"a": "1", "b": "x"}
    with pytest.raises(CheckFailed):
        checks.parse_eval("a=1\na=2\n")
