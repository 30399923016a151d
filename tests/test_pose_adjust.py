import dataclasses
import tracemalloc

import numpy as np
import pytest

import poseonly as po
from poseonly import observations, pose_adjust
from poseonly.errors import (
    ConfigInvalid,
    DegenerateBase,
    DivergedNumerically,
    InputError,
    InsufficientParallax,
)
from poseonly.geometry import rotation_about
from poseonly.observations import (
    anchor_table,
    anchored_terms,
    base_pairs,
    build_table,
    pose_arrays,
    split_table,
)
from poseonly.pose_adjust import (
    PAConfig,
    PoseParameterization,
    _normal_equations,
    _residuals,
    pa_jacobian,
    pa_residuals,
    select_anchor_view,
)

from conftest import make_rng, transient_bytes


def bases_for(problem):
    return {
        t.track_id: po.select_base_views(t, problem.rotations) for t in problem.tracks
    }


def similarity_applied(poses, scale, Q, shift):
    return [
        po.CameraPose(p.rotation @ Q.T, scale * (Q @ p.center) + shift) for p in poses
    ]


def fd_jacobian(param, poses, tracks, bases, h):
    Rs = np.stack([p.rotation for p in poses])
    Cs = np.stack([p.center for p in poses])

    def res_at(delta):
        Rs2, Cs2 = param.apply(Rs, Cs, delta)
        poses2 = [po.CameraPose(R, c) for R, c in zip(Rs2, Cs2)]
        r, _ = pa_residuals(poses2, tracks, bases, on_degenerate="drop")
        return r

    n_res = len(pa_residuals(poses, tracks, bases, on_degenerate="drop")[0])
    J = np.zeros((n_res, param.n_params))
    for k in range(param.n_params):
        step = np.zeros(param.n_params)
        step[k] = h
        J[:, k] = (res_at(step) - res_at(-step)) / (2 * h)
    return J


def linear_poses(problem):
    system = po.assemble_system(problem.tracks, problem.rotations, 0)
    sol = po.solve_translations(system)
    return [po.CameraPose(R, c) for R, c in zip(problem.rotations, sol.translations)]


def reference_in_middle_scene(refine_rotations):
    """Reference view 3 of 6, the world rotated so the scale anchor's
    center lies 10 degrees off the x axis, where anchor_basis switches
    its helper axis. Returns (problem, bases, poses, param)."""
    prob = po.generate_scene(
        po.SceneConfig(n_views=6, n_points=10, seed=31, obs_noise_sigma=1e-3)
    )
    reference = 3
    centers = prob.gt_centers()
    anchor = select_anchor_view(prob.tracks, prob.n_views, reference, centers)
    unit = centers[anchor] / np.linalg.norm(centers[anchor])
    target = np.array([np.cos(np.radians(10)), np.sin(np.radians(10)), 0.0])
    axis = np.cross(unit, target)
    Q = rotation_about(axis / np.linalg.norm(axis), np.arccos(unit @ target))
    poses = similarity_applied(prob.gt_poses, 1.0, Q, np.zeros(3))
    radius = float(np.linalg.norm(poses[anchor].center))
    param = PoseParameterization(prob.n_views, reference, anchor, refine_rotations, radius)
    return prob, bases_for(prob), poses, param


def default_param(problem, poses=None):
    poses = poses or problem.gt_poses
    centers = np.stack([p.center for p in poses])
    anchor = select_anchor_view(problem.tracks, problem.n_views, 0, centers)
    return PoseParameterization(
        problem.n_views, 0, anchor, True, float(np.linalg.norm(centers[anchor]))
    )


class TestResiduals:
    def test_zero_on_exact_geometry(self, scene_s1):
        res, dropped = pa_residuals(scene_s1.gt_poses, scene_s1.tracks, bases_for(scene_s1))
        assert np.max(np.abs(res)) < 1e-12
        assert dropped == []

    def test_layout_count(self):
        # One 2-vector per observation outside the track's anchor-left view.
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=9, seed=1))
        res, _ = pa_residuals(prob.gt_poses, prob.tracks, bases_for(prob))
        assert len(res) == sum((len(t) - 1) * 2 for t in prob.tracks)

    def test_center_perturbation_gives_positive_residual(self, scene_s1):
        poses = list(scene_s1.gt_poses)
        poses[2] = po.CameraPose(poses[2].rotation, poses[2].center + [1e-3, 0, 0])
        res, _ = pa_residuals(poses, scene_s1.tracks, bases_for(scene_s1))
        assert np.linalg.norm(res) > 1e-6

    def test_similarity_invariance(self, scene_s1):
        bases = bases_for(scene_s1)
        res0, _ = pa_residuals(scene_s1.gt_poses, scene_s1.tracks, bases)
        Q = rotation_about(np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8]), 0.7)
        poses2 = similarity_applied(scene_s1.gt_poses, 2.5, Q, np.array([1.0, -2.0, 0.5]))
        res2, _ = pa_residuals(poses2, scene_s1.tracks, bases)
        assert np.max(np.abs(res0 - res2)) < 1e-12

    def test_degenerate_base_raises_or_drops(self, scene_s1):
        # Collapse the anchor pair by moving both anchor views onto one
        # center: theta of the observed anchor rays stays noisy-nonzero,
        # so force it via identical observations instead.
        track = po.Track(9, [0, 1], [[0.1, 0.2], [0.1, 0.2]])
        poses = [scene_s1.gt_poses[0], scene_s1.gt_poses[0], scene_s1.gt_poses[2]]
        bases = {9: po.BaseViewPair(0, 1, 0.0)}
        with pytest.raises(DegenerateBase):
            pa_residuals(poses, [track], bases)
        res, dropped = pa_residuals(poses, [track], bases, on_degenerate="drop")
        assert dropped == [9]
        assert np.all(res == 0)
        with pytest.raises(ValueError, match="'rasie'"):
            pa_residuals(poses, [track], bases, on_degenerate="rasie")

    def test_independent_of_runs(self, monkeypatch):
        # Tracks 3 and 8 of a noisy 6-view scene are replaced by tracks
        # whose anchor rays in views 0 and 1 agree up to rounding, so
        # their anchor pairs collapse; they come in reversed order.
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=12, seed=17, obs_noise_sigma=1e-3)
        )
        poses = prob.gt_poses
        Rs, Cs = pose_arrays(poses)
        bases = bases_for(prob)
        tracks = [t for t in prob.tracks if t.track_id not in (3, 8)]
        ray = Rs[1] @ Rs[0].T @ np.array([0.1, -0.2, 1.0])
        for track_id in (8, 3):
            tracks.append(po.Track(track_id, [0, 1, 2],
                                   [[0.1, -0.2], ray[:2] / ray[2], [0.3, 0.1]]))
            bases[track_id] = po.BaseViewPair(0, 1, 0.0)
        res, dropped = pa_residuals(poses, tracks, bases, on_degenerate="drop")
        assert dropped == [3, 8]
        assert np.all(np.isfinite(res)) and np.count_nonzero(res) == len(res) - 8

        # 10 tracks of 5 rows and 2 of 2: runs of 1 row leave every track
        # alone, runs of 11 rows hold 2 tracks each (one collapsed track
        # beside a kept one), and 2^40 holds all.
        table = build_table(tracks, bases, Rs)
        for max_rows in (1, 11, 1 << 40):
            runs = list(split_table(table, max_rows))
            assert len(runs) == {1: 12, 11: 6, 1 << 40: 1}[max_rows]
            res_runs, dropped_runs, terms = _residuals(runs, Rs, Cs, "drop")
            assert np.array_equal(res_runs, res) and dropped_runs == dropped
            assert len(terms) == len(runs)
            with pytest.raises(DegenerateBase, match=r"^track 3:"):
                _residuals(runs, Rs, Cs, "raise")
        with pytest.raises(DegenerateBase, match=r"^track 3:"):
            pa_residuals(poses, tracks, bases)

        # pa_optimize's initial cost is the same sum at every run size.
        costs = []
        for max_rows in (1, 11, 1 << 40):
            monkeypatch.setattr(observations, "RUN_ROWS", max_rows)
            _, report = po.pa_optimize(poses, prob.tracks, PAConfig(max_iter=0))
            costs.append(report.initial_cost)
        res, _ = pa_residuals(poses, prob.tracks, bases_for(prob))
        assert costs == [float(res @ res)] * 3

    def test_held_state_is_lean(self):
        # What the pass keeps of each run for the normal-equation build:
        # per row Q and Y (48 bytes) beside the residual (16), and no
        # world ray x or cross product W of any row.
        prob = po.generate_scene(
            po.SceneConfig(n_views=12, n_points=80, seed=19, obs_noise_sigma=1e-3)
        )
        Rs, Cs = pose_arrays(linear_poses(prob))
        runs = list(split_table(anchor_table(prob.tracks, Rs)[0], 200))
        assert len(runs) > 1
        res, _, projections = _residuals(runs, Rs, Cs, "drop")
        assert res.nbytes == 16 * sum(len(run.rows) for run in runs)
        for run, part in zip(runs, projections):
            full = anchored_terms(run, Rs, Cs)
            held = [getattr(owner, field.name)
                    for owner in (part, part.pair) for field in dataclasses.fields(owner)]
            held = [array for array in held if isinstance(array, np.ndarray)]
            rows, tracks = len(run.rows), len(run.left)
            assert rows > tracks
            for array in held:
                assert len(array) in (rows, tracks)
                assert not np.array_equal(array, full.x) and not np.array_equal(array, full.W)
            assert sum(array.nbytes for array in held if len(array) == rows) <= 48 * rows

    def test_trial_pass_memory_independent_of_observation_count(self):
        # 19,000 and 76,000 rows: what the pass allocates and frees again
        # is one run's, so four times the observations may not cost 1.5
        # times the transient memory. What it returns (the residuals and
        # each run's terms) is held, and grows with the rows.
        transient = []
        for n_points in (1000, 4000):
            prob = po.generate_scene(
                po.SceneConfig(n_views=20, n_points=n_points, seed=43, obs_noise_sigma=1e-3)
            )
            Rs, Cs = pose_arrays(prob.gt_poses)
            runs = list(split_table(anchor_table(prob.tracks, prob.rotations)[0]))
            transient.append(transient_bytes(lambda: _residuals(runs, Rs, Cs, "drop")))
        assert transient[1] < 1.5 * transient[0], transient


class TestJacobian:
    def test_matches_central_differences_s1_noisy(self, scene_s1):
        prob = po.add_observation_noise(scene_s1, 1e-3, seed=11)
        bases = bases_for(prob)
        param = default_param(prob)
        J = pa_jacobian(prob.gt_poses, prob.tracks, bases, param).toarray()
        J_fd = fd_jacobian(param, prob.gt_poses, prob.tracks, bases, h=1e-6)
        # Central differences at h=1e-6 carry an absolute rounding floor
        # of about eps*|residual|/h ~ 5e-11; require 1e-5 agreement on
        # everything FD can resolve above that floor.
        mask = np.abs(J_fd) > 1e-8
        err = np.abs(J - J_fd)[mask]
        assert np.all(err <= 1e-5 * np.abs(J_fd)[mask] + 5e-11)

    def test_matches_central_differences_random_scenes(self):
        for seed in range(4):
            prob = po.generate_scene(
                po.SceneConfig(n_views=5, n_points=8, seed=100 + seed, obs_noise_sigma=1e-3)
            )
            bases = bases_for(prob)
            param = default_param(prob)
            J = pa_jacobian(prob.gt_poses, prob.tracks, bases, param).toarray()
            J_fd = fd_jacobian(param, prob.gt_poses, prob.tracks, bases, h=1e-5)
            mask = np.abs(J_fd) > 1e-8
            err = np.abs(J - J_fd)[mask]
            assert np.all(err <= 1e-5 * np.abs(J_fd)[mask] + 5e-12)

    def test_reference_view_has_no_columns(self, scene_s1):
        param = default_param(scene_s1)
        assert param.rot_col[0] == -1 and param.trans_col[0] == -1
        assert param.n_params == 6 * (scene_s1.n_views - 1) - 1

    def test_sparsity_touches_only_involved_views(self):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=5, seed=9))
        bases = bases_for(prob)
        param = default_param(prob)
        J = pa_jacobian(prob.gt_poses, prob.tracks, bases, param)
        # Residuals run over tracks in id order, so the lowest-id track
        # owns the first row.
        track = min(prob.tracks, key=lambda t: t.track_id)
        base = bases[track.track_id]
        row = J.getrow(0).toarray().ravel()
        observed = track.view_ids[track.view_ids != base.left][0]
        allowed = {base.left, base.right, int(observed)}
        for v in range(prob.n_views):
            cols = [c for c in (param.rot_col[v], param.trans_col[v]) if c >= 0]
            touched = any(
                np.any(row[c:c + (3 if c == param.rot_col[v] else param.trans_width[v])] != 0)
                for c in cols
            )
            if touched:
                assert v in allowed


def normal_equations_and_oracle(poses, tracks, bases, param):
    """(G, grad) as pa_optimize forms them, and (J'J, J'r) from the
    pa_jacobian oracle, at the same poses."""
    Rs, Cs = pose_arrays(poses)
    runs = list(split_table(build_table(tracks, bases, Rs)))
    res, _, terms = _residuals(runs, Rs, Cs, "drop")
    G, grad = _normal_equations(runs, Rs, terms, res, param.matrix(Cs))
    J = pa_jacobian(poses, tracks, bases, param)
    return G, grad, (J.T @ J).toarray(), J.T @ res


class TestNormalEquations:
    # Every track's anchor-right observation is a row whose observing
    # view is the anchor right, so each case also covers that merge.

    def assert_matches_oracle(self, poses, tracks, bases, param):
        G, grad, G_ref, grad_ref = normal_equations_and_oracle(poses, tracks, bases, param)
        assert np.all(np.isfinite(G)) and np.all(np.isfinite(grad))
        assert G.shape == G_ref.shape == (param.n_params, param.n_params)
        assert np.max(np.abs(G - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))

    def assert_independent_of_runs(self, monkeypatch, poses, tracks, bases, param, several):
        """Runs of ``several`` rows hold more than one track each and leave
        a shorter last run; runs of 1 row leave every track alone. Both
        match the oracle and the one-run build."""
        table = build_table(tracks, bases, pose_arrays(poses)[0])
        monkeypatch.setattr(observations, "RUN_ROWS", 1 << 40)
        assert len(list(split_table(table))) == 1
        G_one, grad_one, _, _ = normal_equations_and_oracle(poses, tracks, bases, param)
        for max_rows in (several, 1):
            per_run = [len(run.left) for run in split_table(table, max_rows)]
            if max_rows == 1:
                assert per_run == [1] * len(table.left)
            else:
                assert min(per_run[:-1]) > 1 and per_run[-1] < max(per_run)
            monkeypatch.setattr(observations, "RUN_ROWS", max_rows)
            self.assert_matches_oracle(poses, tracks, bases, param)
            G, grad, _, _ = normal_equations_and_oracle(poses, tracks, bases, param)
            assert np.max(np.abs(G - G_one)) <= 1e-13 * np.max(np.abs(G_one))
            assert np.max(np.abs(grad - grad_one)) <= 1e-13 * np.max(np.abs(grad_one))

    def test_noisy_scene(self, monkeypatch):
        prob = po.generate_scene(
            po.SceneConfig(n_views=20, n_points=200, seed=41, obs_noise_sigma=1e-3)
        )
        poses = linear_poses(prob)
        args = poses, prob.tracks, bases_for(prob), default_param(prob, poses)
        self.assert_matches_oracle(*args)
        # 200 tracks of 19 rows: 3 a run, 2 in the last.
        self.assert_independent_of_runs(monkeypatch, *args, several=57)

    @pytest.mark.parametrize("refine_rotations", [True, False])
    def test_reference_in_middle(self, refine_rotations, monkeypatch):
        prob, bases, poses, param = reference_in_middle_scene(refine_rotations)
        self.assert_matches_oracle(poses, prob.tracks, bases, param)
        # 10 tracks of 5 rows: 3 a run, 1 in the last.
        self.assert_independent_of_runs(monkeypatch, poses, prob.tracks, bases, param,
                                        several=15)

    def test_collapsed_track_contributes_nothing(self, scene_s1, monkeypatch):
        # Views 0 and 1 share a rotation, so track 9's anchor rays there
        # are 1e-160 apart: theta^2 is a subnormal 1e-320, far below the
        # floor but positive, and the anchored depth is about 1e160.
        track = po.Track(9, [0, 1, 2], [[0.0, 0.0], [1e-160, 0.0], [0.3, 0.1]])
        tracks = list(scene_s1.tracks) + [track]
        bases = {**bases_for(scene_s1), 9: po.BaseViewPair(0, 1, 0.0)}
        poses = scene_s1.gt_poses
        _, dropped = pa_residuals(poses, tracks, bases, on_degenerate="drop")
        assert dropped == [9]
        param = default_param(scene_s1)
        self.assert_matches_oracle(poses, tracks, bases, param)
        G, grad, _, _ = normal_equations_and_oracle(poses, tracks, bases, param)
        G_kept, grad_kept, _, _ = normal_equations_and_oracle(
            poses, scene_s1.tracks, bases_for(scene_s1), param)
        assert np.array_equal(G, G_kept) and np.array_equal(grad, grad_kept)
        # 3 tracks of 2 rows: 2 in the first run, track 9 alone in the last.
        self.assert_independent_of_runs(monkeypatch, poses, tracks, bases, param, several=4)

    def test_peak_memory_independent_of_observation_count(self):
        # 19,000 and 76,000 rows: the build's working set is one run's,
        # so four times the observations may not cost 1.5 times the memory.
        peaks = []
        for n_points in (1000, 4000):
            prob = po.generate_scene(
                po.SceneConfig(n_views=20, n_points=n_points, seed=43, obs_noise_sigma=1e-3)
            )
            Rs, Cs = pose_arrays(prob.gt_poses)
            table, _ = anchor_table(prob.tracks, prob.rotations)
            runs = list(split_table(table))
            res, _, terms = _residuals(runs, Rs, Cs, "drop")
            S = default_param(prob).matrix(Cs)
            tracemalloc.start()
            try:
                _normal_equations(runs, Rs, terms, res, S)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestParameterization:
    def test_parameter_count_independent_of_points(self):
        for n_points in (5, 40):
            prob = po.generate_scene(po.SceneConfig(n_views=7, n_points=n_points, seed=2))
            param = default_param(prob)
            assert param.n_params == 6 * 6 - 1

    def test_anchor_norm_frozen_under_apply(self):
        prob = po.generate_scene(po.SceneConfig(n_views=5, n_points=6, seed=3))
        param = default_param(prob)
        Rs = np.stack([p.rotation for p in prob.gt_poses])
        Cs = np.stack([p.center for p in prob.gt_poses])
        rng = make_rng(5)
        radius = param.anchor_radius
        for _ in range(10):
            delta = rng.random(param.n_params) - 0.5
            _, Cs2 = param.apply(Rs, Cs, delta)
            assert np.linalg.norm(Cs2[param.anchor_view]) == pytest.approx(
                radius, abs=1e-12
            )

    @pytest.mark.parametrize("refine_rotations", [True, False])
    def test_reference_in_middle_and_anchor_near_x_axis(self, refine_rotations):
        prob, bases, poses, param = reference_in_middle_scene(refine_rotations)
        reference, anchor = param.reference_view, param.anchor_view
        # No view but the reference has a center to carry the scale.
        centers = prob.gt_centers()
        only_reference = np.zeros_like(centers)
        only_reference[reference] = centers[reference]
        assert select_anchor_view(prob.tracks, prob.n_views, reference, only_reference) is None
        Rs, Cs = pose_arrays(poses)
        assert abs(Cs[anchor, 0]) / np.linalg.norm(Cs[anchor]) > 0.9
        assert param.rot_col[reference] == -1 and param.trans_col[reference] == -1
        col = param.trans_col[anchor]
        S = param.matrix(Cs).toarray()
        assert np.array_equal(S[6 * anchor + 3:6 * anchor + 6, col:col + 2],
                              param.anchor_basis(Cs[anchor]))

        J = pa_jacobian(poses, prob.tracks, bases, param).toarray()
        J_fd = fd_jacobian(param, poses, prob.tracks, bases, h=1e-5)
        mask = np.abs(J_fd) > 1e-8
        err = np.abs(J - J_fd)[mask]
        assert np.all(err <= 1e-5 * np.abs(J_fd)[mask] + 5e-12)

        delta = make_rng(8).random(param.n_params) - 0.5
        Rs2, Cs2 = param.apply(Rs, Cs, delta)
        assert Rs2[reference].tobytes() == Rs[reference].tobytes()
        assert Cs2[reference].tobytes() == Cs[reference].tobytes()
        assert np.linalg.norm(Cs2[anchor]) == pytest.approx(param.anchor_radius, abs=1e-12)
        if not refine_rotations:
            assert Rs2.tobytes() == Rs.tobytes()

    def test_rotations_frozen_layout(self):
        prob = po.generate_scene(po.SceneConfig(n_views=5, n_points=6, seed=3))
        centers = prob.gt_centers()
        anchor = select_anchor_view(prob.tracks, 5, 0, centers)
        param = PoseParameterization(5, 0, anchor, False, float(np.linalg.norm(centers[anchor])))
        assert param.n_params == 3 * 4 - 1
        assert np.all(param.rot_col == -1)


class TestOptimize:
    def test_config_rejects_invalid_settings(self):
        PAConfig(max_iter=0, gradient_tol=0.0, step_tol=0.0)
        for settings in ({"max_iter": -1}, {"gradient_tol": float("nan")},
                         {"gradient_tol": float("inf")}, {"step_tol": -1e-12}):
            with pytest.raises(ConfigInvalid):
                PAConfig(**settings)

    def test_exact_initialization_converges_immediately(self):
        prob = po.generate_scene(po.SceneConfig(n_views=5, n_points=12, seed=21))
        poses, report = po.pa_optimize(prob.gt_poses, prob.tracks, reference_view=0)
        assert report.converged
        assert report.iterations <= 2
        assert report.final_cost < 1e-20

    def test_noisy_scene_reduces_cost_monotonically(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=7, n_points=25, seed=22, obs_noise_sigma=1e-3)
        )
        init = linear_poses(prob)
        poses, report = po.pa_optimize(init, prob.tracks, reference_view=0)
        history = np.array(report.cost_history)
        assert np.all(np.diff(history) <= 0)
        assert report.final_cost < report.initial_cost
        assert report.iterations <= 100

    def test_max_iter_zero_returns_input(self):
        prob = po.generate_scene(po.SceneConfig(n_views=5, n_points=8, seed=23))
        poses, report = po.pa_optimize(
            prob.gt_poses, prob.tracks, PAConfig(max_iter=0), reference_view=0
        )
        assert report.iterations == 0
        assert report.termination == "max_iter"
        for before, after in zip(prob.gt_poses, poses):
            assert np.array_equal(before.center, after.center)
            assert np.array_equal(before.rotation, after.rotation)

    def test_gauge_invariance_of_optimization(self):
        # The cost itself is exactly similarity-invariant (initial and
        # converged values match to machine precision). Mid-trajectory
        # costs can differ at the percent level because entrywise
        # Marquardt damping is not covariant under the orthogonal
        # column mixing a gauge rotation induces.
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=15, seed=24, obs_noise_sigma=5e-4)
        )
        init = list(prob.gt_poses)
        poses_a, report_a = po.pa_optimize(init, prob.tracks, reference_view=0)
        axis = np.array([1.0, 2.0, 3.0])
        Q = rotation_about(axis / np.linalg.norm(axis), 0.9)
        init_b = similarity_applied(init, 1.8, Q, np.array([3.0, -1.0, 2.0]))
        poses_b, report_b = po.pa_optimize(init_b, prob.tracks, reference_view=0)
        assert report_b.initial_cost == pytest.approx(report_a.initial_cost, rel=1e-12)
        assert report_b.final_cost == pytest.approx(report_a.final_cost, rel=1e-9)
        hist_a = np.array(report_a.cost_history)
        hist_b = np.array(report_b.cost_history)
        n = min(len(hist_a), len(hist_b))
        assert np.allclose(hist_a[:n], hist_b[:n], rtol=0.05)
        centers_a = np.stack([p.center for p in poses_a])
        centers_b = np.stack([p.center for p in poses_b])
        assert po.align_similarity(centers_b, centers_a).rms < 1e-8

    def test_one_iteration_is_the_hand_lm_step(self):
        # One damped step from the oracle: H = J'J + lambda0 diag(J'J),
        # the diagonal floored at 1e-12, delta = -H^-1 J'r, applied
        # through the parameter map.
        prob = po.generate_scene(
            po.SceneConfig(n_views=10, n_points=60, seed=29, obs_noise_sigma=1e-3)
        )
        init = linear_poses(prob)
        Rs, Cs = pose_arrays(init)
        table, _ = anchor_table(prob.tracks, Rs)
        bases = base_pairs(table.track_ids, table.left, table.right, table.theta)
        used = [t for t in prob.tracks if t.track_id in bases]
        anchor = select_anchor_view(used, prob.n_views, 0, Cs)
        param = PoseParameterization(prob.n_views, 0, anchor, True,
                                     float(np.linalg.norm(Cs[anchor])))
        res, _ = pa_residuals(init, prob.tracks, bases, on_degenerate="drop")
        J = pa_jacobian(init, prob.tracks, bases, param).toarray()
        G = J.T @ J
        diag = np.maximum(np.diag(G), 1e-12)
        delta = -np.linalg.solve(G + 1e-3 * np.diag(diag), J.T @ res)
        Rs_hand, Cs_hand = param.apply(Rs, Cs, delta)

        poses, report = po.pa_optimize(
            init, prob.tracks, PAConfig(max_iter=1, gradient_tol=0.0, step_tol=0.0),
            reference_view=0,
        )
        assert report.iterations == 1
        Rs_opt, Cs_opt = pose_arrays(poses)
        assert np.max(np.abs(Rs_opt - Rs_hand)) <= 1e-12
        assert np.max(np.abs(Cs_opt - Cs_hand)) <= 1e-12

    def test_stationarity_of_ground_truth(self):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=15, seed=25))
        bases = bases_for(prob)
        param = default_param(prob)
        res, _ = pa_residuals(prob.gt_poses, prob.tracks, bases)
        J = pa_jacobian(prob.gt_poses, prob.tracks, bases, param)
        assert np.max(np.abs(J.T @ res)) < 1e-10

    def test_rotations_frozen_keeps_rotations(self):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=10, seed=26, obs_noise_sigma=1e-3)
        )
        init = linear_poses(prob)
        poses, report = po.pa_optimize(
            init, prob.tracks, PAConfig(refine_rotations=False), reference_view=0
        )
        for before, after in zip(init, poses):
            assert np.array_equal(before.rotation, after.rotation)
        assert report.final_cost <= report.initial_cost

    def test_out_of_range_track_raises(self):
        # A track naming a view the poses do not have is an input error,
        # not a degenerate track to drop silently.
        prob = po.generate_scene(po.SceneConfig(n_views=4, n_points=6, seed=28))
        stray = po.Track(99, [0, 7], [[0.1, 0.2], [0.2, 0.1]])
        with pytest.raises(InputError, match="track 99: view 7"):
            po.pa_optimize(prob.gt_poses, list(prob.tracks) + [stray], reference_view=0)

    @pytest.mark.parametrize("reference_view", [7, -1])
    def test_out_of_range_reference_view_raises(self, reference_view):
        # With no view held fixed the gauge would be free and every
        # center, the reference one included, would drift.
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=12, seed=3, obs_noise_sigma=1e-3)
        )
        with pytest.raises(ValueError, match="reference view"):
            po.pa_optimize(prob.gt_poses, prob.tracks, reference_view=reference_view)

    @pytest.mark.parametrize("case", ["no tracks", "no parallax"])
    def test_no_track_with_parallax_raises(self, case):
        # Three co-located views with one rotation see each point along
        # the same ray: no anchor pair exists, so there is no cost to lower.
        poses = [po.CameraPose(np.eye(3), np.zeros(3)) for _ in range(3)]
        tracks = [] if case == "no tracks" else [
            po.Track(k, [0, 1, 2], [[0.1 * k, -0.05 * k]] * 3) for k in range(4)
        ]
        with pytest.raises(InsufficientParallax):
            po.pa_optimize(poses, tracks, reference_view=0)

    def test_result_independent_of_runs(self, monkeypatch):
        prob = po.generate_scene(
            po.SceneConfig(n_views=7, n_points=25, seed=22, obs_noise_sigma=1e-3)
        )
        init = linear_poses(prob)
        config = PAConfig(max_iter=3, gradient_tol=0.0, step_tol=0.0)
        results = []
        for max_rows in (1 << 40, 1):
            monkeypatch.setattr(observations, "RUN_ROWS", max_rows)
            poses, report = po.pa_optimize(init, prob.tracks, config, reference_view=0)
            results.append((pose_arrays(poses), report.iterations))
        ((Rs_a, Cs_a), iterations_a), ((Rs_b, Cs_b), iterations_b) = results
        assert iterations_a == iterations_b == 3
        assert np.max(np.abs(Rs_a - Rs_b)) <= 1e-12
        assert np.max(np.abs(Cs_a - Cs_b)) <= 1e-12

    def test_rejected_try_leaves_no_stale_state(self, monkeypatch):
        # With almost no damping the first steps from rotations 35 degrees
        # and centers about 1 off overshoot, so tries are rejected. Every
        # build must read the accepted state's residual pass and equal, bit
        # for bit, a build from a fresh pass at those poses, whatever trial
        # passes were dropped before it.
        prob = po.generate_scene(
            po.SceneConfig(n_views=8, n_points=40, seed=52, obs_noise_sigma=1e-3)
        )
        rng = make_rng(1)
        init = [prob.gt_poses[0]]
        for pose in prob.gt_poses[1:]:
            axis = rng.standard_normal(3)
            turn = rotation_about(axis / np.linalg.norm(axis), np.radians(35.0))
            init.append(po.CameraPose(turn @ pose.rotation, pose.center + rng.standard_normal(3)))
        passes, builds = [], []
        residuals, normal_equations = _residuals, _normal_equations

        def counted_residuals(runs, Rs, Cs, on_degenerate):
            out = residuals(runs, Rs, Cs, on_degenerate)
            passes.append((runs, Rs, Cs, out))
            return out

        def recorded_normal_equations(runs, Rs, projections, res, S):
            G, grad = normal_equations(runs, Rs, projections, res, S)
            read = next(k for k, held in enumerate(passes) if held[3][0] is res)
            builds.append((read, Rs, S, G, grad))
            return G, grad

        monkeypatch.setattr(pose_adjust, "_LM_LAMBDA0", 1e-12)
        monkeypatch.setattr(pose_adjust, "_residuals", counted_residuals)
        monkeypatch.setattr(pose_adjust, "_normal_equations", recorded_normal_equations)
        _, report = po.pa_optimize(init, prob.tracks,
                                   PAConfig(max_iter=4, gradient_tol=0.0, step_tol=0.0))
        assert report.iterations == len(builds) == 4
        reads = [read for read, *_ in builds]
        # A build followed a rejected try: more than one pass since the last.
        assert any(b - a > 1 for a, b in zip(reads, reads[1:]))
        for read, Rs_build, S, G, grad in builds:
            runs, Rs, Cs, _ = passes[read]
            assert Rs_build is Rs
            res, _, projections = residuals(runs, Rs, Cs, "drop")
            G_fresh, grad_fresh = normal_equations(runs, Rs, projections, res, S)
            assert np.array_equal(G, G_fresh) and np.array_equal(grad, grad_fresh)

    def test_nonfinite_input_raises(self):
        prob = po.generate_scene(po.SceneConfig(n_views=5, n_points=8, seed=27))
        poses = list(prob.gt_poses)
        poses[1] = po.CameraPose(poses[1].rotation, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(DivergedNumerically):
            po.pa_optimize(poses, prob.tracks, reference_view=0)


class TestReprojection:
    def test_exact_scene_zero(self, scene_s1):
        pts = {k: scene_s1.gt_points[k] for k in range(2)}
        assert po.reprojection_rms(scene_s1.gt_poses, pts, scene_s1.tracks) < 1e-14

    def test_displaced_point_hand_value(self, scene_s1):
        # Observations of (0,0,5); scoring the displaced point (0,0,5.1)
        # leaves camera 0 exact and offsets cameras 1, 2 by 1/255 each:
        # rms = sqrt(2/3)/255.
        track = scene_s1.tracks[0]
        pts = {0: np.array([0.0, 0.0, 5.1])}
        rms = po.reprojection_rms(scene_s1.gt_poses, pts, [track])
        assert rms == pytest.approx(np.sqrt(2.0 / 3.0) / 255.0, rel=1e-12)

    def test_noise_doubles_rms_to_first_order(self, scene_s1):
        rms = {}
        for sigma in (1e-4, 2e-4):
            noisy = po.add_observation_noise(scene_s1, sigma, seed=77)
            pts = {k: scene_s1.gt_points[k] for k in range(2)}
            rms[sigma] = po.reprojection_rms(noisy.gt_poses, pts, noisy.tracks)
        ratio = rms[2e-4] / rms[1e-4]
        assert 1.9 <= ratio <= 2.1

    def test_cheirality_violations_counted(self, scene_s1):
        pts = {0: np.array([0.0, 0.0, -5.0]), 1: scene_s1.gt_points[1]}
        rms, violations, used = po.reprojection_stats(
            scene_s1.gt_poses, pts, scene_s1.tracks
        )
        assert violations == 3
        assert used == 3
