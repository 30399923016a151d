import numpy as np
import pytest

import poseonly as po
from poseonly.errors import AllPairsDegenerate, DegenerateTriangulation, NegativeDepth
from poseonly.simulate import look_at_rotation

from conftest import exact_generic_scene, make_rng


def random_track_scene(rng, n_views=4):
    """Exact poses plus one multi-view track of a random point."""
    point = rng.random(3) * 2.0
    poses = []
    for _ in range(n_views):
        center = point + 5.0 * (rng.random(3) - 0.5) * 2.0
        while np.linalg.norm(center - point) < 1.5:
            center = point + 5.0 * (rng.random(3) - 0.5) * 2.0
        poses.append(po.CameraPose(look_at_rotation(center, point + 0.1 * rng.random(3)), center))
    obs = np.stack([po.project(p, point) for p in poses])
    track = po.Track(0, np.arange(n_views), obs)
    return poses, track, point


class TestWeightedDepth:
    def test_s1_track_fused_depth(self, scene_s1):
        # Anchor-left view 1: pair depths are both 5, weights 0.2/0.6 and
        # 0.4/0.6, so the fusion returns 5 with weight sum 0.6.
        base = po.BaseViewPair(1, 2, 0.4)
        point = po.reconstruct_point(scene_s1.tracks[0], base, scene_s1.gt_poses)
        depth, weight_sum = point.fused_depth, point.weight_sum
        assert depth == pytest.approx(5.0, rel=1e-12)
        assert weight_sum == pytest.approx(0.6, rel=1e-12)

    def test_two_view_track_single_weight(self, scene_s1):
        track = po.Track(3, [1, 2], scene_s1.tracks[0].points[1:])
        base = po.BaseViewPair(1, 2, 0.4)
        point = po.reconstruct_point(track, base, scene_s1.gt_poses)
        depth, weight_sum = point.fused_depth, point.weight_sum
        assert depth == pytest.approx(5.0, rel=1e-12)
        assert weight_sum == pytest.approx(0.4, rel=1e-12)

    def test_pure_rotation_track_degenerate(self):
        pose = po.CameraPose(np.eye(3), np.zeros(3))
        track = po.Track(0, [0, 1], [[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(AllPairsDegenerate):
            po.reconstruct_point(track, po.BaseViewPair(0, 1, 0.0), [pose, pose])


class TestReconstructPoint:
    def test_s1_point_from_anchor_view_1(self, scene_s1):
        base = po.BaseViewPair(1, 2, 0.4)
        point = po.reconstruct_point(scene_s1.tracks[0], base, scene_s1.gt_poses)
        # 5 * (0.2, 0, 1) + (-1, 0, 0) = (0, 0, 5)
        assert np.allclose(point.position_w, [0, 0, 5], atol=1e-12)
        assert point.contributing_views == 2

    def test_unit_ray_identity_camera(self):
        poses = [
            po.CameraPose(np.eye(3), np.zeros(3)),
            po.CameraPose(np.eye(3), np.array([-1.0, 0, 0])),
        ]
        point = np.array([0.0, 0.0, 1.0])
        obs = np.stack([po.project(p, point) for p in poses])
        track = po.Track(0, [0, 1], obs)
        base = po.select_base_views(track, np.stack([p.rotation for p in poses]))
        rec = po.reconstruct_point(track, base, poses)
        assert np.allclose(rec.position_w, [0, 0, 1], atol=1e-12)
        assert rec.fused_depth == pytest.approx(1.0, rel=1e-12)

    def test_sign_flipped_translations_negative_depth(self, scene_s1):
        flipped = [po.CameraPose(p.rotation, -p.center) for p in scene_s1.gt_poses]
        base = po.BaseViewPair(1, 2, 0.4)
        with pytest.raises(NegativeDepth):
            po.reconstruct_point(scene_s1.tracks[0], base, flipped)


class TestReconstructAll:
    def test_s1_recovers_ground_truth(self, scene_s1):
        result = po.reconstruct_all(scene_s1.tracks, scene_s1.gt_poses)
        assert [p.track_id for p in result.points] == [0, 1]
        for rec in result.points:
            assert np.allclose(
                rec.position_w, scene_s1.gt_points[rec.track_id], atol=1e-10
            )

    def test_mixed_scene_rejects_only_degenerate_track(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=8, motion="local_pure_rotation", seed=51)
        )
        # Restrict one track to the two co-located views: pure rotation.
        crippled = po.Track(
            prob.tracks[0].track_id,
            prob.tracks[0].view_ids[:2],
            prob.tracks[0].points[:2],
        )
        tracks = [crippled] + list(prob.tracks[1:])
        result = po.reconstruct_all(tracks, prob.gt_poses)
        assert result.counts["all_pairs_degenerate"] == 1
        assert result.rejected == [(crippled.track_id, "all_pairs_degenerate")]
        assert len(result.points) == len(tracks) - 1
        for rec in result.points:
            assert np.allclose(rec.position_w, prob.gt_points[rec.track_id], atol=1e-8)

    def test_empty_input(self, scene_s1):
        result = po.reconstruct_all([], scene_s1.gt_poses)
        assert result.points == [] and result.rejected == []

    def test_min_track_len_filter(self, scene_s1):
        short = po.Track(7, [1, 2], scene_s1.tracks[0].points[1:])
        tracks = list(scene_s1.tracks) + [short]
        kept = po.reconstruct_all(tracks, scene_s1.gt_poses, min_track_len=2)
        assert len(kept.points) == 3
        filtered = po.reconstruct_all(tracks, scene_s1.gt_poses, min_track_len=3)
        assert len(filtered.points) == 2
        assert filtered.counts["below_min_track_len"] == 1

    def test_weights_sum_to_one(self):
        # Recompute the per-pair thetas and depths independently through
        # the two-view geometry; the normalized weights must sum to 1 and
        # reproduce the fused depth.
        prob = exact_generic_scene(52, n_views=6, n_points=10)
        rotations = prob.rotations
        poses = prob.gt_poses
        for track in prob.tracks:
            base = po.select_base_views(track, rotations)
            point = po.reconstruct_point(track, base, poses)
            fused, weight_sum = point.fused_depth, point.weight_sum
            thetas, depths = [], []
            for view in track.view_ids:
                if view == base.left:
                    continue
                pg = po.pair_geometry(
                    poses[base.left], poses[view],
                    track.point_in_view(base.left), track.point_in_view(view),
                )
                thetas.append(pg.theta)
                depths.append(po.linear_depths(pg)[0])
            weights = np.array(thetas) / weight_sum
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert weights @ np.array(depths) == pytest.approx(fused, rel=1e-10)

    def test_scale_equivariance(self):
        prob = exact_generic_scene(53, n_views=5, n_points=8)
        result = po.reconstruct_all(prob.tracks, prob.gt_poses)
        alpha = 3.0
        scaled_poses = [po.CameraPose(p.rotation, alpha * p.center) for p in prob.gt_poses]
        scaled = po.reconstruct_all(prob.tracks, scaled_poses)
        for a, b in zip(result.points, scaled.points):
            assert np.allclose(alpha * a.position_w, b.position_w, rtol=1e-12)

    def test_projection_closure(self):
        prob = exact_generic_scene(54, n_views=6, n_points=12)
        result = po.reconstruct_all(prob.tracks, prob.gt_poses)
        positions = result.position_by_track()
        for track in prob.tracks:
            for view, xy in zip(track.view_ids, track.points):
                reproj = po.project(prob.gt_poses[view], positions[track.track_id])
                assert np.allclose(reproj, xy, atol=1e-10)


class TestTriangulationOracle:
    def test_matches_fused_reconstruction_exact(self):
        rng = make_rng(61)
        rotations_cache = {}
        for _ in range(300):
            poses, track, point = random_track_scene(rng)
            rotations = np.stack([p.rotation for p in poses])
            base = po.select_base_views(track, rotations)
            fused = po.reconstruct_point(track, base, poses)
            dlt = po.triangulate_dlt(track, poses)
            assert np.linalg.norm(fused.position_w - dlt) < 1e-9
            assert np.linalg.norm(dlt - point) < 1e-8

    def test_identical_poses_degenerate(self):
        pose = po.CameraPose(np.eye(3), np.zeros(3))
        track = po.Track(0, [0, 1], [[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(DegenerateTriangulation):
            po.triangulate_dlt(track, [pose, pose])

    def test_noisy_agreement_within_statistical_bound(self):
        # 100 seeded noisy tracks: both estimators stay within 5 sigma
        # of truth, scaled by the anchor depth.
        rng = make_rng(62)
        sigma = 1e-3
        for _ in range(100):
            poses, track, point = random_track_scene(rng, n_views=5)
            noisy = po.Track(
                0, track.view_ids, track.points + sigma * rng.standard_normal(track.points.shape)
            )
            rotations = np.stack([p.rotation for p in poses])
            base = po.select_base_views(noisy, rotations)
            depth = np.linalg.norm(point - poses[base.left].center)
            bound = 5 * sigma * depth * 10  # generous slack over ray scaling
            fused = po.reconstruct_point(noisy, base, poses)
            dlt = po.triangulate_dlt(noisy, poses)
            assert np.linalg.norm(fused.position_w - point) < bound
            assert np.linalg.norm(dlt - point) < bound
