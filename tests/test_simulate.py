from dataclasses import replace

import numpy as np
import pytest

import poseonly as po
from poseonly.errors import ConfigInvalid
from poseonly.geometry import rotation_geodesic_deg
from poseonly.simulate import MOTIONS, gaussian, make_rng

from conftest import solve_problem_centers


class TestSceneS1:
    def test_hand_computed_observations(self, scene_s1):
        track0 = scene_s1.tracks[0]
        assert np.allclose(track0.points, [[0, 0], [0.2, 0], [-0.2, 0]], atol=1e-15)
        track1 = scene_s1.tracks[1]
        expected = [[1 / 6, 1 / 6], [1 / 3, 1 / 6], [0, 1 / 6]]
        assert np.allclose(track1.points, expected, atol=1e-15)

    def test_ground_truth_round_trips_through_projection(self, scene_s1):
        pts = {k: scene_s1.gt_points[k] for k in range(2)}
        assert po.reprojection_rms(scene_s1.gt_poses, pts, scene_s1.tracks) == 0.0


class TestGeneration:
    @pytest.mark.parametrize("motion", MOTIONS)
    def test_every_motion_solvable_noise_free(self, motion):
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=20, motion=motion, seed=5)
        )
        centers = solve_problem_centers(prob)
        assert po.aligned_center_rms(centers, prob.gt_centers()) < 1e-8

    def test_same_seed_bit_identical(self):
        config = po.SceneConfig(n_views=5, n_points=10, seed=42, obs_noise_sigma=1e-3)
        a = po.generate_scene(config)
        b = po.generate_scene(config)
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.gt_points, b.gt_points)
        for ta, tb in zip(a.tracks, b.tracks):
            assert np.array_equal(ta.points, tb.points)

    def test_different_seed_differs(self):
        a = po.generate_scene(po.SceneConfig(n_views=5, n_points=10, seed=1))
        b = po.generate_scene(po.SceneConfig(n_views=5, n_points=10, seed=2))
        assert not np.array_equal(a.gt_points, b.gt_points)

    def test_noiseless_reprojection_zero(self):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=15, seed=6))
        pts = {k: prob.gt_points[k] for k in range(15)}
        assert po.reprojection_rms(prob.gt_poses, pts, prob.tracks) < 1e-14

    def test_cheirality_in_every_view(self):
        for motion in MOTIONS:
            prob = po.generate_scene(
                po.SceneConfig(n_views=5, n_points=25, motion=motion, seed=7)
            )
            for track in prob.tracks:
                point = prob.gt_points[track.track_id]
                for view in track.view_ids:
                    depth = prob.gt_poses[view].to_camera(point)[2]
                    assert depth > 0

    def test_collinear_centers_exactly_on_line(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=10, motion="collinear", seed=8)
        )
        centers = prob.gt_centers()
        spans = centers - centers[0]
        assert np.all(spans[:, 1] == 0) and np.all(spans[:, 2] == 0)

    def test_local_pure_rotation_shares_center(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=10, motion="local_pure_rotation", seed=9)
        )
        centers = prob.gt_centers()
        assert np.array_equal(centers[0], centers[1])
        assert rotation_geodesic_deg(prob.rotations[0], prob.rotations[1]) > 0.5

    def test_shell_cloud(self):
        config = po.SceneConfig(
            n_views=5, n_points=30, point_cloud="shell", shell_radius=2.5, seed=10
        )
        prob = po.generate_scene(config)
        radii = np.linalg.norm(prob.gt_points, axis=1)
        assert np.allclose(radii, 2.5, atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            po.SceneConfig(n_views=1, n_points=5).validate()
        with pytest.raises(ConfigInvalid):
            po.SceneConfig(n_views=5, n_points=1).validate()
        with pytest.raises(ConfigInvalid):
            po.SceneConfig(n_views=5, n_points=5, motion="spiral").validate()
        with pytest.raises(ConfigInvalid):
            po.SceneConfig(n_views=5, n_points=5, obs_noise_sigma=-1.0).validate()
        with pytest.raises(ConfigInvalid):
            po.SceneConfig(n_views=2, n_points=5, motion="local_pure_rotation").validate()
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ConfigInvalid):
                po.SceneConfig(n_views=5, n_points=5, seed=seed).validate()

    @pytest.mark.parametrize("field", ["obs_noise_sigma", "rotation_noise_deg", "shell_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_magnitudes_rejected(self, field, value):
        config = po.SceneConfig(n_views=5, n_points=10, point_cloud="shell", **{field: value})
        with pytest.raises(ConfigInvalid):
            config.validate()


class TestObservationNoise:
    def test_sigma_zero_identity(self, scene_s1):
        noisy = po.add_observation_noise(scene_s1, 0.0, seed=1)
        assert noisy is scene_s1

    def test_sample_std_matches_sigma(self):
        prob = po.generate_scene(po.SceneConfig(n_views=20, n_points=250, seed=12))
        sigma = 1e-3
        noisy = po.add_observation_noise(prob, sigma, seed=13)
        deltas = np.concatenate(
            [(a.points - b.points).ravel() for a, b in zip(noisy.tracks, prob.tracks)]
        )
        assert len(deltas) >= 10_000
        assert abs(deltas.std() - sigma) / sigma < 0.05
        assert abs(deltas.mean()) < 5 * sigma / np.sqrt(len(deltas)) * 5

    def test_noise_independent_of_scene_content(self):
        prob = po.generate_scene(po.SceneConfig(n_views=20, n_points=250, seed=14))
        noisy = po.add_observation_noise(prob, 1e-3, seed=15)
        deltas = np.concatenate(
            [(a.points - b.points) for a, b in zip(noisy.tracks, prob.tracks)]
        )
        clean = np.concatenate([t.points for t in prob.tracks])
        for axis in range(2):
            rho = np.corrcoef(deltas[:, axis], clean[:, axis])[0, 1]
            assert abs(rho) < 0.05

    def test_ground_truth_untouched(self, scene_s1):
        noisy = po.add_observation_noise(scene_s1, 1e-3, seed=16)
        assert np.array_equal(noisy.gt_points, scene_s1.gt_points)
        assert noisy.gt_poses is scene_s1.gt_poses


class TestRotationPerturbation:
    def test_zero_degrees_identity(self, scene_s1):
        assert po.perturb_rotations(scene_s1, 0.0, seed=1) is scene_s1

    def test_perturbed_rotations_stay_orthonormal(self, scene_s1):
        perturbed = po.perturb_rotations(scene_s1, 2.0, seed=17)
        for R in perturbed.rotations:
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_distance_matches_request(self, scene_s1):
        degrees = 1.5
        perturbed = po.perturb_rotations(scene_s1, degrees, seed=18)
        for R_new, R_old in zip(perturbed.rotations, scene_s1.rotations):
            assert rotation_geodesic_deg(R_new, R_old) == pytest.approx(degrees, abs=1e-9)

    def test_ground_truth_untouched(self, scene_s1):
        perturbed = po.perturb_rotations(scene_s1, 2.0, seed=19)
        for pose, original in zip(perturbed.gt_poses, scene_s1.gt_poses):
            assert np.array_equal(pose.rotation, original.rotation)

    def test_scene_config_rotation_noise(self):
        # generate_scene perturbs the solver rotations last: the scene of
        # the same seed without rotation noise is the ground truth.
        degrees = 0.5
        config = po.SceneConfig(n_views=5, n_points=8, seed=23, obs_noise_sigma=1e-3)
        clean = po.generate_scene(config)
        noisy = po.generate_scene(replace(config, rotation_noise_deg=degrees))
        again = po.generate_scene(replace(config, rotation_noise_deg=degrees))
        for R, pose in zip(noisy.rotations, noisy.gt_poses):
            assert rotation_geodesic_deg(R, pose.rotation) == pytest.approx(degrees, abs=1e-9)
        assert np.array_equal(noisy.gt_points, clean.gt_points)
        for pose, original in zip(noisy.gt_poses, clean.gt_poses):
            assert np.array_equal(pose.rotation, original.rotation)
            assert np.array_equal(pose.center, original.center)
        for track, original in zip(noisy.tracks, clean.tracks):
            assert np.array_equal(track.points, original.points)
        assert np.array_equal(again.rotations, noisy.rotations)
        for track, repeat in zip(noisy.tracks, again.tracks):
            assert np.array_equal(track.points, repeat.points)


class TestGaussianStream:
    def test_box_muller_statistics(self):
        rng = make_rng(20)
        samples = gaussian(rng, 200_000)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 1.0) < 0.01
        # fourth moment of a standard normal is 3
        assert abs((samples**4).mean() - 3.0) < 0.1

    def test_deterministic_stream(self):
        assert np.array_equal(gaussian(make_rng(21), 64), gaussian(make_rng(21), 64))
