import dataclasses

import numpy as np
import pytest

import poseonly as po
from poseonly.errors import AllPairsDegenerate, InsufficientParallax, RankDeficient
from poseonly import observations, translation_solver
from poseonly.evaluate import report_lines
from poseonly.geometry import skew_batch
from poseonly.observations import anchor_table, anchored_terms, pair_terms, split_table
from poseonly.translation_solver import disambiguate_sign

from conftest import (
    exact_generic_scene,
    gram_identity_pairs,
    make_rng,
    solve_problem_centers,
    transient_bytes,
)


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

    def test_blocks_follow_from_kernel_terms(self):
        # B = W a' and C = theta^2 [x]x, bit for bit, from the kernel's
        # per-row ray x and W = x x g and per-track a and theta^2.
        prob = po.add_observation_noise(exact_generic_scene(70), 1e-3, 70)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        table, _ = anchor_table(prob.tracks, prob.rotations)
        terms = anchored_terms(table, prob.rotations)
        B, C = system.B, system.C
        assert len(B) == len(C) == len(table.row_view)
        for k, track in enumerate(table.row_track.tolist()):
            assert np.array_equal(B[k], np.outer(terms.W[k], terms.a[track]))
            assert np.array_equal(C[k], terms.theta_sq[track] * skew_batch(terms.x[k]))

    def test_system_stores_no_blocks(self):
        # Neither the system nor the table and terms it holds keep an
        # (m, 3, 3) array, and they hold no per-row float array but the
        # input points, ``table.row_xy``: the other arrays of one entry per
        # row are the table's indices.
        prob = exact_generic_scene(70)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        rows = len(system.row_views)
        assert rows > len(system.table.left)
        for owner in (system, system.table, system.terms):
            for field in dataclasses.fields(owner):
                value = getattr(owner, field.name)
                assert np.shape(value) != (rows, 3, 3), field.name
                if isinstance(value, np.ndarray) and len(value) == rows:
                    assert value.dtype.kind == "i" or value is system.table.row_xy, field.name

    def test_system_holds_table_and_terms(self):
        # The system keeps what anchor_table and pair_terms (no centers)
        # return for its tracks and rotations, field by field.
        prob = po.add_observation_noise(exact_generic_scene(71), 1e-3, 71)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        table, _ = anchor_table(prob.tracks, prob.rotations)
        terms = pair_terms(table, prob.rotations)
        assert terms.T_right is None and terms.depth is None
        for held, fresh in ((system.table, table), (system.terms, terms)):
            for field in dataclasses.fields(fresh):
                name = field.name
                assert np.array_equal(getattr(held, name), getattr(fresh, name)), name

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

    def test_world_blocks_have_rank_two(self):
        # Block rows live in the world frame: the row's ray x = R_i' X_i
        # annihilates both B = (x x g) a' and C = theta^2 [x]x, so only
        # two of the three rows of [B C] are independent.
        prob = po.generate_scene(
            po.SceneConfig(n_views=20, n_points=200, seed=3, obs_noise_sigma=1e-3)
        )
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        rays = [
            prob.rotations[view].T @ np.append(xy, 1.0)
            for track in sorted(prob.tracks, key=lambda t: t.track_id)
            for view, xy in zip(track.view_ids.tolist(), track.points)
            if view != system.bases[track.track_id].left
        ]
        x = np.stack(rays)
        assert len(x) == len(system.B)
        for blocks in (system.B, system.C):
            largest = np.abs(blocks).max(axis=(1, 2))
            annihilated = np.abs(np.einsum("ki,kij->kj", x, blocks)).max(axis=1)
            assert np.all(annihilated <= 1e-14 * largest)
        s = np.linalg.svd(np.concatenate((system.B, system.C), axis=2), compute_uv=False)
        assert np.all(s[:, 2] <= 1e-14 * s[:, 0])

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
    """The block Gram, summed over runs of whole tracks, equals R'R of the
    reduced CSR matrix R."""
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

    def test_one_track_per_run(self, monkeypatch):
        # Runs of 1 row hold one track each, so every track's (right,
        # left) terms are summed in a run of their own.
        prob = partial_track_problem(65)
        system = po.assemble_system(prob.tracks, prob.rotations, 3)
        monkeypatch.setattr(observations, "RUN_ROWS", 1)
        assert len(list(split_table(system.table))) == len(system.table.left)
        assert_block_gram_matches(system)

    def test_gram_memory_independent_of_observation_count(self, monkeypatch):
        # 4,400 and 8,800 rows in runs of 1,000: the Gram's working set
        # beside its (3n - 3)^2 result is one run's, so twice the rows may
        # not cost 1.5 times the transient memory.
        monkeypatch.setattr(observations, "RUN_ROWS", 1000)
        transient = []
        for n_points in (400, 800):
            prob = po.generate_scene(
                po.SceneConfig(n_views=12, n_points=n_points, seed=45, obs_noise_sigma=1e-3)
            )
            system = po.assemble_system(prob.tracks, prob.rotations, 0)
            assert len(system.row_views) == 11 * n_points
            transient.append(transient_bytes(lambda: translation_solver._block_gram(system)))
        assert transient[1] < 1.5 * transient[0], transient

    def test_eval_report_unchanged_from_stored_blocks(self, monkeypatch):
        # evaluate_poses, whose solve reads the block terms a run at a
        # time, gives the very report it gives when the anchors come from
        # the Gram identity in place of the (K, 6) product.
        prob = po.generate_scene(
            po.SceneConfig(n_views=12, n_points=60, seed=71, obs_noise_sigma=1e-3)
        )
        monkeypatch.setattr(observations, "RUN_ROWS", 100)
        centers = solve_problem_centers(prob)
        poses = [po.CameraPose(R, c) for R, c in zip(prob.rotations, centers)]
        compact = report_lines(po.evaluate_poses(prob, poses))
        monkeypatch.setattr(observations, "_max_theta_pairs", gram_identity_pairs)
        assert report_lines(po.evaluate_poses(prob, poses)) == compact

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_normal_spectrum_matches_dense(self, case):
        # The Gram eigensolve resolves singular values only down to about
        # 1e-8 of sigma_max (the square root of rounding), which is where
        # an exact scene's sigma_1 sits; the SVD of the reduced CSR matrix
        # resolves them to rounding.
        prob, reference = self.CASES[case]()
        system = po.assemble_system(prob.tracks, prob.rotations, reference)
        s = np.linalg.svd(system.reduced_matrix().toarray(), compute_uv=False)
        dense, sigma_max = s[::-1][:4], s[0]
        normal = po.singular_spectrum(system, 4)
        assert np.allclose(normal, dense, rtol=1e-8, atol=1e-7 * sigma_max)

    def test_cases_cover_repeated_and_reference_columns(self):
        # What the cases above rely on: every track's anchor-right view
        # observes it, so those rows put B and C in the same columns, and
        # in "partial tracks" the reference view is the anchor left of
        # some tracks and the anchor right of others.
        prob, reference = self.CASES["partial tracks"]()
        system = po.assemble_system(prob.tracks, prob.rotations, reference)
        assert np.any(system.row_views == system.rights)
        assert np.any(system.lefts == reference) and np.any(system.rights == reference)

    def test_gluing_row_keeps_its_rows(self):
        # A row with W = 0 has B = 0 but still adds its C's terms.
        tracks, rotations = gluing_scene()
        system = po.assemble_system(tracks, rotations, 0)
        assert np.any(np.all(anchored_terms(system.table, rotations).W == 0, axis=1))
        assert_block_gram_matches(system)

    def test_solve_path_builds_no_matrix(self, monkeypatch):
        prob = exact_generic_scene(67)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)

        def refuse(self):
            raise AssertionError("full_matrix() on the solve path")

        monkeypatch.setattr(translation_solver.TranslationSystem, "full_matrix", refuse)
        assert po.spectral_gap(system) > 1e6
        assert len(po.singular_spectrum(system, 4)) == 4
        centers = po.solve_translations(system).translations
        assert po.aligned_center_rms(centers, prob.gt_centers()) < 1e-8


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

    def test_rank_deficient_raises_on_gram_path(self, scene_s1):
        # eigh on the Gram matrix resolves singular values only down to
        # about 1e-8 of sigma_max; the duplicated track's two zeros are
        # read against that floor, so the gap sits near 1.
        t0 = scene_s1.tracks[0]
        tracks = [t0, po.Track(1, t0.view_ids, t0.points.copy())]
        system = po.assemble_system(tracks, scene_s1.rotations, 0)
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

    def test_determinism_bitwise(self):
        prob = exact_generic_scene(79, n_views=6, n_points=20)
        system_a = po.assemble_system(prob.tracks, prob.rotations, 0)
        system_b = po.assemble_system(prob.tracks, prob.rotations, 0)
        assert np.array_equal(system_a.row_views, system_b.row_views)
        assert np.array_equal(system_a.B, system_b.B)
        assert np.array_equal(system_a.C, system_b.C)
        sol_a = po.solve_translations(system_a)
        sol_b = po.solve_translations(system_b)
        assert np.array_equal(sol_a.translations, sol_b.translations)

    def test_normal_backend_matches_dense(self):
        # The null vector of the reduced CSR matrix's SVD, sign-voted.
        prob = exact_generic_scene(80, n_views=8, n_points=30)
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        dense = np.zeros((system.n_views, 3))
        dense.reshape(-1)[system.free_columns] = np.linalg.svd(
            system.reduced_matrix().toarray())[2][-1]
        dense, _ = disambiguate_sign(dense, system)
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

    SIZES = {
        "generic ring 60x200": ("generic_ring", 60, 200, 92),
        "collinear 30x40": ("collinear", 30, 40, 93),
        "local pure rotation 20x40": ("local_pure_rotation", 20, 40, 94),
        "loop closure 60x40": ("loop_closure", 60, 40, 95),
    }

    @pytest.mark.parametrize("case", sorted(SIZES))
    def test_exact_scene_at_size(self, case):
        # Sizes between the small scenes above and the large noisy ones:
        # the eigensolve's floor, sqrt(cols * eps) of sigma_max, still
        # leaves exact data a wide gap and centers near rounding.
        motion, n_views, n_points, seed = self.SIZES[case]
        prob = po.generate_scene(
            po.SceneConfig(n_views=n_views, n_points=n_points, motion=motion, seed=seed)
        )
        system = po.assemble_system(prob.tracks, prob.rotations, prob.reference_view)
        assert po.spectral_gap(system) > 1e3
        centers = po.solve_translations(system).translations
        assert po.aligned_center_rms(centers, prob.gt_centers()) < 1e-9

    def test_k_bound(self, scene_s1):
        system = po.assemble_system(scene_s1.tracks, scene_s1.rotations, 0)
        with pytest.raises(ValueError):
            po.singular_spectrum(system, 7)
