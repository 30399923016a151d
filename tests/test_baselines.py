import numpy as np
import pytest

import poseonly as po
from poseonly.errors import DisconnectedViewGraph

from conftest import exact_generic_scene, solve_problem_centers


class TestDirectionSolver:
    def test_generic_scene_exact_recovery(self):
        prob = exact_generic_scene(70, n_views=7, n_points=20)
        directions = po.directions_from_poses(prob.gt_poses)
        solution = po.direction_translations(directions, prob.rotations, 0)
        assert po.aligned_center_rms(solution.translations, prob.gt_centers()) < 1e-8
        assert solution.singular_gap > 1e6

    def test_collinear_scene_degenerate(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=20, motion="collinear", seed=71)
        )
        directions = po.directions_from_poses(prob.gt_poses)
        solution = po.direction_translations(directions, prob.rotations, 0)
        # along-line camera placement is unconstrained: >= 2 near-zero
        # singular values, tiny gap
        sigma_max_scale = solution.spectrum[-1]
        assert np.sum(solution.spectrum < 1e-10 * max(sigma_max_scale, 1.0)) >= 2
        assert solution.singular_gap < 100

    def test_single_pair_two_views(self):
        prob = exact_generic_scene(72, n_views=2, n_points=5)
        directions = po.directions_from_poses(prob.gt_poses)
        assert len(directions) == 1
        solution = po.direction_translations(directions, prob.rotations, 0)
        est_dir = solution.translations[1] - solution.translations[0]
        gt_dir = prob.gt_centers()[1] - prob.gt_centers()[0]
        cos = est_dir @ gt_dir / (np.linalg.norm(est_dir) * np.linalg.norm(gt_dir))
        assert cos == pytest.approx(1.0, abs=1e-10)

    def test_disconnected_raises(self):
        prob = exact_generic_scene(73, n_views=4, n_points=6)
        directions = po.directions_from_poses(prob.gt_poses, pairs=[(0, 1), (2, 3)])
        with pytest.raises(DisconnectedViewGraph):
            po.direction_translations(directions, prob.rotations, 0)
        with pytest.raises(DisconnectedViewGraph):
            po.direction_translations([], prob.rotations, 0)

    def test_agrees_with_linear_solver_on_generic_scenes(self):
        for seed in (74, 75, 76):
            prob = exact_generic_scene(seed, n_views=6, n_points=15)
            linear = solve_problem_centers(prob)
            directions = po.directions_from_poses(prob.gt_poses)
            solution = po.direction_translations(directions, prob.rotations, 0)
            transform = po.align_similarity(solution.translations, linear)
            assert transform.rms < 1e-7

    def test_direction_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            po.RelativeDirection(0, 1, np.array([1.0, 1.0, 0.0]))

    def test_colocated_pairs_skipped(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=10, motion="local_pure_rotation", seed=77)
        )
        directions = po.directions_from_poses(prob.gt_poses)
        pairs = {(d.i, d.j) for d in directions}
        assert (0, 1) not in pairs  # views 0 and 1 share a center

    @pytest.mark.parametrize("reference_view", [3, 6])
    def test_nonzero_reference_view(self, reference_view):
        prob = exact_generic_scene(70, n_views=7, n_points=20)
        directions = po.directions_from_poses(prob.gt_poses)
        solution = po.direction_translations(directions, prob.rotations, reference_view)
        others = np.delete(np.arange(7), reference_view)
        assert np.array_equal(solution.translations[reference_view], np.zeros(3))
        assert np.linalg.norm(solution.translations[others]) == pytest.approx(1.0, abs=1e-12)
        assert po.aligned_center_rms(solution.translations, prob.gt_centers()) < 1e-8

    @pytest.mark.parametrize("reference_view", [-1, 7])
    def test_out_of_range_reference_view_raises(self, reference_view):
        # The reference columns are dropped by index, where -1 would
        # silently name the last view.
        prob = exact_generic_scene(70, n_views=7, n_points=20)
        directions = po.directions_from_poses(prob.gt_poses)
        with pytest.raises(ValueError, match="reference view"):
            po.direction_translations(directions, prob.rotations, reference_view)
