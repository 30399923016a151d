import numpy as np
import pytest

import poseonly as po
from poseonly.errors import AllPairsDegenerate, InsufficientParallax, RankDeficient
from poseonly import translation_solver
from poseonly.translation_solver import disambiguate_sign

from conftest import exact_generic_scene, make_rng, solve_problem_centers


class TestBaseViewSelection:
    def test_s1_track_picks_widest_pair(self, scene_s1):
        base = po.select_base_views(scene_s1.tracks[0], scene_s1.rotations)
        assert (base.left, base.right) == (1, 2)
        assert base.theta == pytest.approx(0.4, abs=1e-15)

    def test_identical_poses_degenerate(self):
        pose = po.CameraPose(np.eye(3), np.zeros(3))
        track = po.Track(0, [0, 1], [[0.1, 0.2], [0.1, 0.2]])
        rotations = np.stack([pose.rotation, pose.rotation])
        with pytest.raises(AllPairsDegenerate):
            po.select_base_views(track, rotations)

    def test_two_observation_track(self, scene_s1):
        track = po.Track(5, [1, 2], scene_s1.tracks[0].points[1:])
        base = po.select_base_views(track, scene_s1.rotations)
        assert (base.left, base.right) == (1, 2)

    def test_tie_break_lexicographic(self, scene_s1):
        # Views 0 and 1 duplicated exactly: theta(0,2) and theta(1,2) are
        # bit-equal, so the winner must be the smaller pair (0, 2).
        rotations = np.stack([np.eye(3)] * 3)
        x = po.project(scene_s1.gt_poses[0], scene_s1.gt_points[0])
        x2 = po.project(scene_s1.gt_poses[2], scene_s1.gt_points[0])
        track = po.Track(0, [0, 1, 2], [x, x, x2])
        base = po.select_base_views(track, rotations)
        assert (base.left, base.right) == (0, 2)


def gluing_scene():
    """Three identity-rotation views: track 0 sees the same ray in the
    co-located-looking views 0 and 1, track 1 gives the system its
    second usable track."""
    rotations = np.stack([np.eye(3)] * 3)
    tracks = [
        po.Track(0, [0, 1, 2], [[0.1, 0.0], [0.1, 0.0], [0.3, 0.0]]),
        po.Track(1, [1, 2], [[0.0, 0.1], [0.2, 0.1]]),
    ]
    return tracks, rotations


class TestRowBlocks:
    def test_d_is_minus_b_plus_c(self, scene_s1):
        # The anchor-left view's columns of every block hold D = -(B + C).
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        full = system.full_matrix().toarray()
        for k, left in enumerate(system.lefts):
            block = full[3 * k:3 * k + 3, 3 * left:3 * left + 3]
            assert np.array_equal(block, -(system.B[k] + system.C[k]))

    def test_blocks_annihilate_ground_truth(self):
        for seed in range(5):
            prob = exact_generic_scene(seed, n_views=6, n_points=10)
            centers = prob.gt_centers()
            system = po.assemble_system(prob.tracks, prob.rotations, 0)
            res = (
                np.einsum("kij,kj->ki", system.B, centers[system.rights])
                + np.einsum("kij,kj->ki", system.C, centers[system.row_views])
                - np.einsum("kij,kj->ki", system.B + system.C, centers[system.lefts])
            )
            bound = 1e-12 * max(np.abs(centers).max(), 1.0)
            assert np.linalg.norm(res, axis=1).max() < bound

    def test_parallel_ray_keeps_gluing_row(self):
        # Bitwise-identical observation in a co-located view zeroes B
        # exactly, but C survives: the row reduces to C (t_1 - t_0) = 0,
        # which pins the co-located pair together.
        tracks, rotations = gluing_scene()
        system = po.assemble_system(tracks, rotations, 0)
        base = system.bases[0]
        assert (base.left, base.right) == (0, 2)
        (k,) = np.flatnonzero((system.lefts == 0) & (system.row_views == 1))
        assert np.all(system.B[k] == 0)
        assert np.any(system.C[k] != 0)
        full = system.full_matrix().toarray()
        assert np.array_equal(full[3 * k:3 * k + 3, 0:3], -system.C[k])


class TestAssembly:
    def test_s1_shape_and_null_dimension(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        reduced = system.reduced_matrix()
        assert reduced.shape == (12, 6)
        s = np.linalg.svd(reduced.toarray(), compute_uv=False)
        assert np.sum(s < 1e-10 * s[0]) == 1

    def test_row_order_deterministic(self, scene_s1):
        # Blocks run over tracks in id order, each track's views ascending
        # with its anchor-left view skipped.
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        expected = [
            view
            for track in sorted(scene_s1.tracks, key=lambda t: t.track_id)
            for view in track.view_ids.tolist()
            if view != system.bases[track.track_id].left
        ]
        assert system.row_views.tolist() == expected

    def test_all_cameras_coincident_insufficient(self):
        rng = make_rng(4)
        center = np.array([0.0, 0.0, -6.0])
        rotations, points = [], []
        from poseonly.simulate import look_at_rotation

        for k in range(4):
            rotations.append(look_at_rotation(center, [0.1 * k, 0.05, 1.0]))
        rotations = np.stack(rotations)
        poses = [po.CameraPose(R, center) for R in rotations]
        points = rng.random((5, 3)) * 2
        obs = np.stack([[po.project(p, X) for p in poses] for X in points])
        tracks = [po.Track(k, np.arange(4), obs[k]) for k in range(5)]
        with pytest.raises(InsufficientParallax):
            po.assemble_system(tracks, rotations, 0)

    @pytest.mark.parametrize("n_views", [3, 5, 10])
    def test_full_matrix_rank_law(self, n_views):
        prob = exact_generic_scene(40 + n_views, n_views=n_views, n_points=2)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        s = np.linalg.svd(system.full_matrix().toarray(), compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank == 3 * n_views - 4


def assert_block_gram_matches(system):
    """The chunked block Gram equals R'R of the reduced CSR matrix R."""
    R = system.reduced_matrix()
    expected = (R.T @ R).toarray()
    gram = translation_solver._block_gram(system)
    assert gram.shape == expected.shape
    assert np.abs(gram - expected).max() <= 1e-12 * np.abs(expected).max()


def partial_track_problem(seed, n_views=8, n_points=40):
    """A noisy generic ring whose tracks each keep a random subset of at
    least two of their views."""
    prob = po.add_observation_noise(exact_generic_scene(seed, n_views, n_points), 1e-3, seed)
    rng = make_rng(seed)
    for k, track in enumerate(prob.tracks):
        size = rng.integers(2, len(track) + 1)
        keep = np.sort(rng.choice(len(track), size=size, replace=False))
        prob.tracks[k] = po.Track(track.track_id, track.view_ids[keep], track.points[keep])
    return prob


def scene(motion, seed, n_views=6, n_points=20):
    return po.generate_scene(
        po.SceneConfig(n_views=n_views, n_points=n_points, motion=motion, seed=seed)
    )


class TestBlockGram:
    CASES = {
        "generic ring": lambda: (exact_generic_scene(60), 0),
        "reference view 5": lambda: (exact_generic_scene(61), 5),
        "partial tracks": lambda: (partial_track_problem(62), 2),
        "local pure rotation": lambda: (scene("local_pure_rotation", 63), 0),
        "collinear": lambda: (scene("collinear", 64), 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_csr_gram(self, case):
        prob, reference = self.CASES[case]()
        assert_block_gram_matches(po.assemble_system(prob.tracks, prob.rotations, reference))

    def test_runs_split_across_chunks(self, monkeypatch):
        # Chunks of 11 blocks cut through tracks, so one track's
        # (right, left) run is summed in pieces.
        prob = partial_track_problem(65)
        system = po.assemble_system(prob.tracks, prob.rotations, 3)
        monkeypatch.setattr(translation_solver, "_MATRIX_CHUNK", 11)
        assert_block_gram_matches(system)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_normal_spectrum_matches_dense(self, case, monkeypatch):
        # The Gram path resolves singular values only down to about 1e-8
        # of sigma_max (the square root of rounding), which is where an
        # exact scene's sigma_1 sits.
        prob, reference = self.CASES[case]()
        system = po.assemble_system(prob.tracks, prob.rotations, reference)
        dense = po.singular_spectrum(system, 4)
        sigma_max = np.linalg.norm(system.reduced_matrix().toarray(), 2)
        monkeypatch.setattr(translation_solver, "_DENSE_MAX_COLS", 0)
        normal = po.singular_spectrum(system, 4)
        assert np.allclose(normal, dense, rtol=1e-8, atol=1e-7 * sigma_max)


class TestSolve:
    def test_s1_exact_recovery(self, scene_s1):
        centers = solve_problem_centers(scene_s1)
        assert po.aligned_center_rms(centers, scene_s1.gt_centers()) < 1e-8

    def test_reference_translation_zero_and_unit_norm(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        sol = po.solve_translations(system)
        assert np.all(sol.translations[0] == 0)
        others = np.linalg.norm(np.delete(sol.translations, 0, axis=0))
        assert others == pytest.approx(1.0, abs=1e-12)

    def test_sign_disambiguation_restores_cheirality(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        sol = po.solve_translations(system)
        flipped, votes = disambiguate_sign(-sol.translations.copy(), system)
        assert np.allclose(flipped, sol.translations)
        assert votes[0] > votes[1]

    def test_base_pair_depths_positive_at_solution(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        sol = po.solve_translations(system)
        for left, right, a_vec in system.sign_probes:
            t_rel = system.rotations[right] @ (
                sol.translations[left] - sol.translations[right]
            )
            assert float(a_vec @ t_rel) > 0

    def test_local_pure_rotation_scene(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=20, motion="local_pure_rotation", seed=31)
        )
        centers = solve_problem_centers(prob)
        assert po.aligned_center_rms(centers, prob.gt_centers()) < 1e-8
        # the two co-located views land on the same estimated center
        transform = po.align_similarity(centers, prob.gt_centers())
        aligned = transform.apply(centers)
        assert np.linalg.norm(aligned[0] - aligned[1]) < 1e-8

    def test_rank_deficient_raises(self, scene_s1):
        # Two copies of one track carry a single point's constraints
        # twice; the null space is then multi-dimensional and the solve
        # must refuse rather than return an arbitrary vector.
        t0 = scene_s1.tracks[0]
        tracks = [t0, po.Track(1, t0.view_ids, t0.points.copy())]
        system = po.assemble_system(tracks, scene_s1.rotations, 0)
        with pytest.raises(RankDeficient):
            po.solve_translations(system)

    def test_rank_deficient_raises_on_gram_path(self, scene_s1, monkeypatch):
        # eigh on the Gram matrix leaves the two zero singular values of
        # the duplicated track near 1e-8 of sigma_max, far above the SVD
        # floor; only the Gram path's own floor shows them as zeros.
        t0 = scene_s1.tracks[0]
        tracks = [t0, po.Track(1, t0.view_ids, t0.points.copy())]
        system = po.assemble_system(tracks, scene_s1.rotations, 0)
        monkeypatch.setattr(translation_solver, "_DENSE_MAX_COLS", 0)
        with pytest.raises(RankDeficient):
            po.solve_translations(system)
        assert po.spectral_gap(system) < translation_solver.RANK_RATIO_MIN

    def test_gauge_reference_change(self):
        prob = exact_generic_scene(77, n_views=7, n_points=25)
        c0 = solve_problem_centers(prob)
        system2 = po.assemble_system(prob.tracks, prob.rotations, 3)
        c2 = po.solve_translations(system2).translations
        transform = po.align_similarity(c2, c0)
        assert transform.rms < 1e-10

    def test_scale_invariance_of_solution(self):
        prob = exact_generic_scene(78, n_views=6, n_points=20)
        sol1 = solve_problem_centers(prob)
        scaled_poses = [
            po.CameraPose(p.rotation, 2.0 * p.center) for p in prob.gt_poses
        ]
        prob2 = po.problem_from_poses(scaled_poses, 2.0 * prob.gt_points)
        sol2 = solve_problem_centers(prob2)
        assert np.max(np.abs(sol1 - sol2)) < 1e-12

    def test_determinism_bitwise(self, monkeypatch):
        prob = exact_generic_scene(79, n_views=6, n_points=20)
        system_a = po.assemble_system(prob.tracks, prob.rotations, 0)
        system_b = po.assemble_system(prob.tracks, prob.rotations, 0)
        assert np.array_equal(system_a.row_views, system_b.row_views)
        assert np.array_equal(system_a.B, system_b.B)
        assert np.array_equal(system_a.C, system_b.C)
        for dense_max_cols in (translation_solver._DENSE_MAX_COLS, 0):  # dense, then Gram
            monkeypatch.setattr(translation_solver, "_DENSE_MAX_COLS", dense_max_cols)
            sol_a = po.solve_translations(system_a)
            sol_b = po.solve_translations(system_b)
            assert np.array_equal(sol_a.translations, sol_b.translations)

    def test_path_follows_shape(self, monkeypatch):
        # 20 x 200 gives a 10,800 x 57 reduced matrix, solved by QR+SVD;
        # 100 x 500 gives 147,000 x 297, past _DENSE_MAX_ENTRIES, solved
        # through the block Gram matrix.
        calls = []
        block_gram = translation_solver._block_gram

        def counted(system):
            calls.append(system.n_views)
            return block_gram(system)

        monkeypatch.setattr(translation_solver, "_block_gram", counted)
        for seed, n_views, n_points in ((83, 20, 200), (84, 100, 500)):
            prob = exact_generic_scene(seed, n_views=n_views, n_points=n_points)
            system = po.assemble_system(prob.tracks, prob.rotations, 0)
            po.solve_translations(system)
        assert calls == [100]

    def test_normal_backend_matches_dense(self, monkeypatch):
        prob = exact_generic_scene(80, n_views=8, n_points=30)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        dense = po.solve_translations(system).translations
        monkeypatch.setattr(translation_solver, "_DENSE_MAX_COLS", 0)
        normal = po.solve_translations(system).translations
        transform = po.align_similarity(normal, dense)
        assert transform.rms < 1e-8

    def test_solution_satisfies_anchored_constraints(self):
        # Recovered centers satisfy the depth-equality across anchored
        # pairs and the anchored reprojection identities on exact data.
        prob = exact_generic_scene(82, n_views=6, n_points=15)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        sol = po.solve_translations(system)
        poses = [po.CameraPose(R, c) for R, c in zip(prob.rotations, sol.translations)]
        for track in prob.tracks:
            base = system.bases[track.track_id]
            depths = []
            for view in track.view_ids:
                if view == base.left:
                    continue
                pg = po.pair_geometry(
                    poses[base.left], poses[view],
                    track.point_in_view(base.left), track.point_in_view(view),
                )
                if pg.theta < 1e-6:
                    continue
                depths.append(po.linear_depths(pg)[0])
            depths = np.array(depths)
            assert np.max(np.abs(depths - depths[0])) < 1e-8 * abs(depths[0])
        res, _ = po.pa_residuals(poses, prob.tracks, system.bases)
        assert np.max(np.abs(res)) < 1e-8


class TestSpectrum:
    def test_generic_scene_gap(self):
        prob = exact_generic_scene(90, n_views=6, n_points=20)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        spec = po.singular_spectrum(system, 2)
        assert spec[1] / max(spec[0], 1e-300) > 1e6

    def test_collinear_scene_keeps_unique_null_space(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=20, motion="collinear", seed=91)
        )
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        spec = po.singular_spectrum(system, 2)
        assert spec[1] / max(spec[0], 1e-300) > 1e6
        centers = solve_problem_centers(prob)
        assert po.aligned_center_rms(centers, prob.gt_centers()) < 1e-8

    def test_k_bound(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        with pytest.raises(ValueError):
            po.singular_spectrum(system, 7)
