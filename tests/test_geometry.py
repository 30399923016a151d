import numpy as np
import pytest

import poseonly as po
from poseonly.errors import DegeneratePair, NonPositiveDepth
from poseonly.geometry import (
    homogenize,
    pair_geometry,
    rotation_about,
    rotation_geodesic_deg,
    skew,
)

from poseonly.problem_io import quat_to_rotation, rotation_to_quat

from conftest import make_rng, random_exact_pair

IDENTITY = np.eye(3)


def identity_pose(center):
    return po.CameraPose(IDENTITY, np.asarray(center, dtype=float))


# The worked pair used throughout: cameras at (0,0,0) and (-1,0,0), both
# identity rotation, observing the point (0,0,5).
def worked_pair():
    rel = (IDENTITY, np.array([1.0, 0.0, 0.0]))
    return po.compute_pair_geometry(rel, np.array([0.0, 0.0]), np.array([0.2, 0.0]))


class TestProjection:
    def test_identity_camera(self):
        assert np.allclose(po.project(identity_pose([0, 0, 0]), [0, 0, 5]), [0, 0])

    def test_offset_camera(self):
        # R (X - t) = (1, 0, 5) by hand
        point = po.project(identity_pose([-1, 0, 0]), [0, 0, 5])
        assert np.allclose(point, [0.2, 0.0], atol=1e-15)

    def test_behind_camera_raises(self):
        with pytest.raises(NonPositiveDepth):
            po.project(identity_pose([0, 0, 6]), [0, 0, 5])


class TestRelativePose:
    def test_self_pair_is_identity(self):
        pose = identity_pose([1.0, 2.0, 3.0])
        R, t = po.relative_pose(pose, pose)
        assert np.allclose(R, IDENTITY)
        assert np.allclose(t, 0)

    def test_offset_pair(self):
        R, t = po.relative_pose(identity_pose([0, 0, 0]), identity_pose([-1, 0, 0]))
        assert np.allclose(R, IDENTITY)
        assert np.allclose(t, [1, 0, 0])

    def test_swap_negates_translation(self):
        R, t = po.relative_pose(identity_pose([-1, 0, 0]), identity_pose([0, 0, 0]))
        assert np.allclose(t, [-1, 0, 0])


class TestPairGeometry:
    def test_worked_example(self):
        pg = worked_pair()
        assert pg.theta == pytest.approx(0.2, abs=1e-15)
        assert np.allclose(pg.a_vec, [0.2, 0.0, -0.04], atol=1e-15)
        assert np.allclose(pg.b_vec, [0.2, 0.0, 0.0], atol=1e-15)

    def test_worked_example_matches_forward_projection(self):
        # Same numbers obtained by projecting (0,0,5) from both cameras.
        pose_i = identity_pose([0, 0, 0])
        pose_j = identity_pose([-1, 0, 0])
        point = np.array([0.0, 0.0, 5.0])
        pg = pair_geometry(pose_i, pose_j, po.project(pose_i, point), po.project(pose_j, point))
        assert pg.theta == pytest.approx(0.2, abs=1e-15)
        assert np.allclose(pg.a_vec, [0.2, 0.0, -0.04], atol=1e-15)

    def test_pure_rotation_theta_zero(self):
        R = po.geometry.rotation_about(np.array([0.0, 1.0, 0.0]), 0.3)
        x_i = np.array([0.1, -0.2])
        ray = R @ homogenize(x_i)
        x_j = ray[:2] / ray[2]
        pg = po.compute_pair_geometry((R, np.zeros(3)), x_i, x_j)
        assert pg.theta < 1e-15

    def test_mirrored_example(self):
        pg = po.compute_pair_geometry(
            (IDENTITY, np.array([1.0, 0, 0])), np.array([0.0, 0.0]), np.array([-0.2, 0.0])
        )
        assert pg.theta == pytest.approx(0.2, abs=1e-15)


class TestPairDepths:
    def test_worked_depths(self):
        assert po.pair_depths(worked_pair()) == pytest.approx((5.0, 5.0))

    def test_degenerate_raises(self):
        pg = po.compute_pair_geometry((IDENTITY, np.zeros(3)), [0.1, 0.1], [0.1, 0.1])
        with pytest.raises(DegeneratePair):
            po.pair_depths(pg)

    def test_depths_scale_with_translation(self):
        pg = worked_pair()
        doubled = po.compute_pair_geometry(
            (pg.rel_rotation, 2.0 * pg.rel_translation), [0.0, 0.0], [0.2, 0.0]
        )
        assert po.pair_depths(doubled) == pytest.approx((10.0, 10.0))

    def test_magnitude_equals_linear_forms_random(self):
        # Homogeneous-depth identity over many random exact pairs.
        rng = make_rng(101)
        for _ in range(1000):
            pose_i, pose_j, point, x_i, x_j = random_exact_pair(rng)
            pg = pair_geometry(pose_i, pose_j, x_i, x_j)
            if pg.theta <= 1e-8:
                continue
            mag = po.pair_depths(pg)
            lin = po.linear_depths(pg)
            assert mag[0] == pytest.approx(lin[0], rel=1e-12)
            assert mag[1] == pytest.approx(lin[1], rel=1e-12)
            # and both equal the true depths from the forward model
            true_i = pose_i.to_camera(point)[2]
            true_j = pose_j.to_camera(point)[2]
            assert lin[0] == pytest.approx(true_i, rel=1e-9)
            assert lin[1] == pytest.approx(true_j, rel=1e-9)

    def test_depth_symmetric_in_pair_order(self):
        # Depth of view i is the same whether computed from (i, j) or (j, i).
        rng = make_rng(7)
        for _ in range(300):
            pose_i, pose_j, point, x_i, x_j = random_exact_pair(rng)
            pg_ij = pair_geometry(pose_i, pose_j, x_i, x_j)
            pg_ji = pair_geometry(pose_j, pose_i, x_j, x_i)
            if pg_ij.theta <= 1e-8:
                continue
            d_i_from_ij = po.linear_depths(pg_ij)[0]
            d_i_from_ji = po.linear_depths(pg_ji)[1]
            assert d_i_from_ij == pytest.approx(d_i_from_ji, rel=1e-12)

    def test_theta_symmetric_in_ray_order(self):
        rng = make_rng(8)
        for _ in range(300):
            pose_i, pose_j, _, x_i, x_j = random_exact_pair(rng)
            pg_ij = pair_geometry(pose_i, pose_j, x_i, x_j)
            pg_ji = pair_geometry(pose_j, pose_i, x_j, x_i)
            assert pg_ij.theta == pytest.approx(pg_ji.theta, rel=1e-12, abs=1e-15)

    def test_depth_equal_across_anchored_pairs(self):
        # Depth of a shared left view agrees across all pairs anchored on it.
        rng = make_rng(9)
        for _ in range(200):
            pose_a, pose_b, point, x_a, x_b = random_exact_pair(rng)
            pose_c = po.CameraPose(
                po.geometry.rotation_about(np.array([0, 0, 1.0]), 0.1) @ pose_b.rotation,
                pose_b.center + np.array([0.5, -0.3, 0.2]),
            )
            try:
                x_c = po.project(pose_c, point)
            except NonPositiveDepth:
                continue
            pg_ab = pair_geometry(pose_a, pose_b, x_a, x_b)
            pg_ac = pair_geometry(pose_a, pose_c, x_a, x_c)
            if min(pg_ab.theta, pg_ac.theta) <= 1e-8:
                continue
            d_from_b = po.linear_depths(pg_ab)[0]
            d_from_c = po.linear_depths(pg_ac)[0]
            assert d_from_b == pytest.approx(d_from_c, rel=1e-10)


class TestHomogeneity:
    def test_power_of_two_scale_is_bit_exact(self):
        # Scaling centers and points by 2 shifts exponents only, so the
        # projections are bit-identical and depths exactly double.
        rng = make_rng(12)
        for _ in range(50):
            pose_i, pose_j, point, x_i, x_j = random_exact_pair(rng)
            pose_i2 = po.CameraPose(pose_i.rotation, 2.0 * pose_i.center)
            pose_j2 = po.CameraPose(pose_j.rotation, 2.0 * pose_j.center)
            point2 = 2.0 * point
            assert np.array_equal(po.project(pose_i2, point2), x_i)
            assert np.array_equal(po.project(pose_j2, point2), x_j)
            pg = pair_geometry(pose_i, pose_j, x_i, x_j)
            pg2 = pair_geometry(pose_i2, pose_j2, x_i, x_j)
            if pg.theta <= 1e-8:
                continue
            d = po.linear_depths(pg)
            d2 = po.linear_depths(pg2)
            assert d2[0] == 2.0 * d[0] and d2[1] == 2.0 * d[1]

    def test_general_scale_within_tolerance(self):
        rng = make_rng(13)
        pose_i, pose_j, point, x_i, x_j = random_exact_pair(rng)
        alpha = 1.7
        pose_i2 = po.CameraPose(pose_i.rotation, alpha * pose_i.center)
        pose_j2 = po.CameraPose(pose_j.rotation, alpha * pose_j.center)
        assert np.allclose(po.project(pose_i2, alpha * point), x_i, atol=1e-12)
        pg = pair_geometry(pose_i, pose_j, x_i, x_j)
        pg2 = pair_geometry(pose_i2, pose_j2, x_i, x_j)
        assert po.linear_depths(pg2)[0] == pytest.approx(alpha * po.linear_depths(pg)[0], rel=1e-12)


class TestTypes:
    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            po.CameraPose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError):
            po.CameraPose(-np.eye(3), np.zeros(3))  # improper

    def test_track_validation(self):
        with pytest.raises(ValueError):
            po.Track(0, [0], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            po.Track(0, [1, 1], [[0.0, 0.0], [0.1, 0.1]])

    def test_homogenize_appends_exactly_one(self):
        h = homogenize(np.array([0.25, -0.5]))
        assert h[2] == 1.0
        batch = homogenize(np.zeros((4, 2)))
        assert np.all(batch[:, 2] == 1.0)

    def test_skew_matches_cross(self):
        rng = make_rng(3)
        for _ in range(20):
            a, b = np.random.default_rng(3).random(3), np.random.default_rng(4).random(3)
            assert np.allclose(skew(a) @ b, np.cross(a, b))


class TestGeodesic:
    def test_quaternion_round_trip_reads_as_zero(self):
        rng = make_rng(23)
        for _ in range(50):
            axis = rng.random(3) - 0.5
            R = rotation_about(axis / np.linalg.norm(axis), 3.0 * rng.random())
            assert rotation_geodesic_deg(quat_to_rotation(rotation_to_quat(R)), R) < 1e-12

    @pytest.mark.parametrize("angle", [1e-9, 1e-6, 0.5, 3.0])
    def test_small_and_large_angles(self, angle):
        R = rotation_about(np.array([0.6, 0.0, 0.8]), 0.3)
        turned = rotation_about(np.array([0.0, 1.0, 0.0]), angle) @ R
        assert np.radians(rotation_geodesic_deg(turned, R)) == pytest.approx(angle, rel=1e-6)
