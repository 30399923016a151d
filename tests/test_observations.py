import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import poseonly as po
from poseonly import observations
from poseonly.errors import AllPairsDegenerate, InputError
from poseonly.geometry import THETA_FLOOR, rotation_about
from poseonly.observations import (
    anchor_table,
    anchored_terms,
    base_pairs,
    build_table,
    pair_terms,
    pose_arrays,
    split_table,
)

from conftest import gram_identity_pairs, make_rng


def noisy_scene(seed, n_views=6, n_points=12):
    return po.generate_scene(
        po.SceneConfig(n_views=n_views, n_points=n_points, seed=seed, obs_noise_sigma=1e-3)
    )


class TestTable:
    def test_layout(self):
        prob = noisy_scene(1)
        selected, degenerate = anchor_table(prob.tracks, prob.rotations)
        assert degenerate == []
        # Drop one track from the anchors and shuffle the input order: the
        # table keeps the anchored tracks only, in id order.
        bases = base_pairs(selected.track_ids, selected.left, selected.right, selected.theta)
        del bases[3]
        shuffled = [prob.tracks[k] for k in make_rng(2).permutation(len(prob.tracks))]
        table = build_table(shuffled, bases, prob.rotations)
        kept = [t for t in prob.tracks if t.track_id != 3]
        assert table.track_ids.tolist() == [t.track_id for t in kept]
        for k, track in enumerate(kept):
            span = slice(table.track_start[k], table.track_start[k + 1])
            assert np.all(table.obs_track[span] == k)
            assert np.array_equal(table.obs_view[span], track.view_ids)
            assert np.array_equal(table.obs_xy[span], track.points)
            base = bases[track.track_id]
            assert (table.left[k], table.right[k], table.theta[k]) == (
                base.left, base.right, base.theta
            )
            assert table.obs_view[table.left_obs[k]] == base.left
            rows = table.rows[table.row_start[k]:table.row_start[k + 1]]
            assert table.obs_view[rows].tolist() == [
                v for v in track.view_ids.tolist() if v != base.left
            ]
            assert table.row_view[table.right_row[k]] == base.right

    def test_missing_anchor_view_rejected(self):
        track = po.Track(0, [0, 1], [[0.1, 0.2], [0.2, 0.1]])
        with pytest.raises(InputError, match=r"track 0: anchor pair \(0, 2\) is not two of"):
            anchor_table([track], np.stack([np.eye(3)] * 3), {0: po.BaseViewPair(0, 2, 0.1)})

    def test_anchor_pair_of_one_view_rejected(self):
        # Before, the pair (1, 1) silently became the pair (1, 2).
        track = po.Track(4, [0, 1, 2], [[0.1, 0.2], [0.2, 0.1], [0.3, 0.0]])
        with pytest.raises(InputError, match=r"track 4: anchor pair \(1, 1\) is not two of"):
            anchor_table([track], np.stack([np.eye(3)] * 3), {4: po.BaseViewPair(1, 1, 1.0)})

    @pytest.mark.parametrize("max_rows", [1, 6, 23, 1 << 40])
    def test_split_rebuilds_the_table(self, max_rows):
        # Tracks of 2 to 8 views, so runs cut after differing track counts
        # and at 6 rows some tracks are longer than a run.
        prob = noisy_scene(4, n_views=8, n_points=40)
        rng = make_rng(4)
        tracks = []
        for track in prob.tracks:
            keep = np.sort(rng.choice(len(track), size=rng.integers(2, len(track) + 1),
                                      replace=False))
            tracks.append(po.Track(track.track_id, track.view_ids[keep], track.points[keep]))
        table, _ = anchor_table(tracks, prob.rotations)
        terms = anchored_terms(table, prob.rotations, prob.gt_centers())
        runs = split_table(table, max_rows)

        # Consecutive runs of whole tracks cover every track and row once.
        track_cuts = np.cumsum([0] + [len(run.left) for run in runs]).tolist()
        row_cuts = np.cumsum([0] + [len(run.rows) for run in runs]).tolist()
        assert track_cuts[-1] == len(table.left)
        assert row_cuts == table.row_start[track_cuts].tolist()
        for run in runs:
            assert len(run.rows) <= max_rows or len(run.left) == 1

        # The re-based index arrays rebuild the table's.
        shift = {"none": [0] * len(runs),
                 "track": track_cuts[:-1],
                 "row": row_cuts[:-1],
                 "obs": table.track_start[track_cuts[:-1]].tolist()}

        def joined(field, offset):
            return np.concatenate([getattr(run, field) + s
                                   for run, s in zip(runs, shift[offset])])

        for field, offset in (("track_ids", "none"), ("obs_view", "none"), ("obs_xy", "none"),
                              ("left", "none"), ("right", "none"), ("theta", "none"),
                              ("obs_track", "track"), ("left_obs", "obs"), ("rows", "obs"),
                              ("right_row", "row")):
            assert np.array_equal(joined(field, offset), getattr(table, field))
        for field, offset in (("track_start", "obs"), ("row_start", "row")):
            for run, t0, t1, s in zip(runs, track_cuts, track_cuts[1:], shift[offset]):
                assert np.array_equal(getattr(run, field) + s, getattr(table, field)[t0:t1 + 1])

        # A run's table is a table of its own: the kernel on it gives the
        # run's slice of the whole table's terms.
        for run, t0, t1, r0, r1 in zip(runs, track_cuts, track_cuts[1:], row_cuts, row_cuts[1:]):
            own = anchored_terms(run, prob.rotations, prob.gt_centers())
            for name in ("x", "W", "T"):
                assert np.array_equal(getattr(own, name), getattr(terms, name)[r0:r1])
            for name in ("g", "a", "theta_sq", "depth"):
                assert np.array_equal(getattr(own, name), getattr(terms, name)[t0:t1])

    def test_split_of_an_empty_table_has_no_runs(self):
        assert split_table(anchor_table([], np.eye(3)[None])[0], 10) == []


class TestKernelAgainstPairOracle:
    """The batched kernel reproduces the independent two-view
    ``pair_geometry``/``linear_depths`` values pair by pair; the kernel's
    world-frame vectors are rotated into the oracle's camera frames."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_scenes(self, seed):
        prob = noisy_scene(700 + seed)
        poses = prob.gt_poses
        table, _ = anchor_table(prob.tracks, prob.rotations)
        Rs = np.stack([p.rotation for p in poses])
        Cs = np.stack([p.center for p in poses])
        terms = anchored_terms(table, Rs, Cs)
        for k, track in enumerate(prob.tracks):
            left, right = int(table.left[k]), int(table.right[k])
            x_left = track.point_in_view(left)
            anchor = po.pair_geometry(poses[left], poses[right], x_left, track.point_in_view(right))
            assert terms.theta_sq[k] == pytest.approx(anchor.theta**2, rel=1e-12)
            assert np.allclose(Rs[right] @ terms.a[k], anchor.a_vec, rtol=0, atol=1e-13)
            assert terms.depth[k] == pytest.approx(po.linear_depths(anchor)[0], rel=1e-10)
            for row in range(table.row_start[k], table.row_start[k + 1]):
                view = int(table.row_view[row])
                pair = po.pair_geometry(poses[left], poses[view], x_left, track.point_in_view(view))
                assert np.linalg.norm(terms.W[row]) == pytest.approx(pair.theta, rel=1e-12)
                assert np.allclose(Rs[view] @ terms.g[k], pair.ray_i, rtol=0, atol=1e-14)
                assert np.allclose(
                    Rs[view] @ terms.T[row], pair.rel_translation, rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_per_track_kernel_is_shared(self, seed):
        # pa runs the per-track kernel alone; the full kernel's per-track
        # terms are the same computation, bit for bit.
        prob = noisy_scene(700 + seed)
        Rs, Cs = pose_arrays(prob.gt_poses)
        table, _ = anchor_table(prob.tracks, Rs)
        pair, terms = pair_terms(table, Rs, Cs), anchored_terms(table, Rs, Cs)
        for name in (field.name for field in dataclasses.fields(pair)):
            assert np.array_equal(getattr(pair, name), getattr(terms, name)), name

    def test_rotations_only_leaves_center_terms_empty(self, scene_s1):
        table, _ = anchor_table(scene_s1.tracks, scene_s1.rotations)
        terms = anchored_terms(table, scene_s1.rotations)
        assert terms.T is None and terms.T_right is None and terms.depth is None
        # The kernel's theta^2 agrees with the selection's theta.
        assert np.allclose(terms.theta_sq, table.theta**2, rtol=1e-12)


class TestBatchedSelection:
    """One batched ``anchor_table`` call against an exhaustive loop over
    ``pair_geometry`` theta with a lexicographic tie-break."""

    N_VIEWS = 8

    @classmethod
    def selection_case(cls):
        rng = make_rng(31)
        rotations = np.stack(
            [np.eye(3)] * 3
            + [rotation_about(a / np.linalg.norm(a), rng.uniform(0.1, 1.0))
               for a in rng.normal(size=(cls.N_VIEWS - 3, 3))]
        )
        tracks = []
        for length in range(2, cls.N_VIEWS + 1):
            for _ in range(12):
                views = np.sort(rng.choice(cls.N_VIEWS, size=length, replace=False))
                tracks.append(po.Track(len(tracks), views, rng.uniform(-0.5, 0.5, (length, 2))))
        # Views 0-2 share the identity rotation, so the rays A, B, A give
        # pairs (0, 1) and (1, 2) exactly equal theta: the tie goes to (0, 1).
        a, b = [0.1, -0.2], [0.3, 0.25]
        tie = po.Track(len(tracks), [0, 1, 2], [a, b, a])
        # Every ray of this track is the rotated image of one direction.
        direction = np.array([0.2, -0.1, 1.0])
        cam = rotations @ direction
        rotation_only = po.Track(len(tracks) + 1, np.arange(cls.N_VIEWS), cam[:, :2] / cam[:, 2:])
        return rotations, tracks + [tie, rotation_only]

    @staticmethod
    def oracle(track, poses):
        best = None
        for p, q in itertools.combinations(range(len(track)), 2):
            left, right = int(track.view_ids[p]), int(track.view_ids[q])
            pair = po.pair_geometry(poses[left], poses[right], track.points[p], track.points[q])
            if best is None or pair.theta > best[2]:
                best = (left, right, pair.theta)
        return best

    @pytest.mark.parametrize("budget", [None, 64])
    def test_matches_oracle(self, budget, monkeypatch):
        if budget is not None:
            # Chunks of 16 two-view tracks down to one eight-view track.
            monkeypatch.setattr(observations, "_TABLE_ENTRIES", budget)
        rotations, tracks = self.selection_case()
        poses = [po.CameraPose(R, np.zeros(3)) for R in rotations]
        # Presets are kept as given, a theta of 0 included.
        preset = {0: po.BaseViewPair(*tracks[0].view_ids[:2].tolist(), 0.5),
                  50: po.BaseViewPair(*tracks[50].view_ids[[-1, 0]].tolist(), 0.0)}
        table, degenerate = anchor_table(tracks, rotations, preset)
        chosen = base_pairs(table.track_ids, table.left, table.right, table.theta)

        tie, rotation_only = tracks[-2:]
        assert degenerate == [rotation_only.track_id]
        assert (chosen[tie.track_id].left, chosen[tie.track_id].right) == (0, 1)
        assert chosen[0] == preset[0] and chosen[50] == preset[50]
        assert set(chosen) == {t.track_id for t in tracks} - {rotation_only.track_id}
        for track in tracks:
            if track.track_id in preset:
                continue
            left, right, theta = self.oracle(track, poses)
            if track is rotation_only:
                assert theta <= THETA_FLOOR
                with pytest.raises(AllPairsDegenerate):
                    observations.select_base_views(track, rotations)
                continue
            base = chosen[track.track_id]
            assert (base.left, base.right) == (left, right)
            assert base.theta == pytest.approx(theta, rel=1e-12)
            assert observations.select_base_views(track, rotations) == base

    @staticmethod
    def loop_table(tracks, rotations):
        """The anchored table and the degenerate ids as the batched
        selection has always computed them, one track at a time: world
        rays g = R_v' X, theta^2 tables v_p . w_q (see
        ``_max_theta_pairs``), the row-major first maximum, theta from the
        winner's cross product, kept tracks in id order."""
        anchored, degenerate = [], []
        for track in tracks:
            g = np.einsum("kji,kj->ki", rotations[track.view_ids], po.homogenize(track.points))
            sq = g * g
            mixed = np.sqrt(2.0) * g[:, [0, 0, 1]] * g[:, [1, 2, 2]]
            v = np.concatenate((sq, mixed), axis=1)
            w = np.concatenate((sq.sum(axis=1)[:, None] - sq, -mixed), axis=1)
            table = v @ w.T
            table[np.tri(len(g), dtype=bool)] = -np.inf
            p, q = np.divmod(int(table.argmax()), len(g))
            cross = np.cross(g[q], g[p])[None]
            theta = float(np.sqrt(np.einsum("ki,ki->k", cross, cross))[0])
            if theta <= THETA_FLOOR:
                degenerate.append(track.track_id)
            else:
                anchored.append((track.track_id, track, p, q, theta))
        anchored.sort(key=lambda entry: entry[0])
        fields = {name: [] for name in ("obs_track", "left", "right", "theta", "left_obs",
                                        "rows", "right_row")}
        obs, rows = [0], [0]
        for k, (_, track, p, q, theta) in enumerate(anchored):
            start, length = obs[-1], len(track)
            fields["obs_track"] += [k] * length
            fields["left"].append(track.view_ids[p])
            fields["right"].append(track.view_ids[q])
            fields["theta"].append(theta)
            fields["left_obs"].append(start + p)
            fields["rows"] += [start + i for i in range(length) if i != p]
            fields["right_row"].append(rows[-1] + q - (q > p))
            obs.append(start + length)
            rows.append(rows[-1] + length - 1)
        used = [entry[1] for entry in anchored]
        return dict(
            fields,
            track_ids=[entry[0] for entry in anchored],
            track_start=obs,
            row_start=rows,
            obs_view=np.concatenate([t.view_ids for t in used]),
            obs_xy=np.concatenate([t.points for t in used]),
        ), degenerate

    @pytest.mark.parametrize("budget", [None, 64])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_table_matches_track_by_track_selection(self, budget, shuffle, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(observations, "_TABLE_ENTRIES", budget)
        rotations, tracks = self.selection_case()
        if shuffle:
            tracks = [tracks[k] for k in make_rng(8).permutation(len(tracks))]
        table, degenerate = anchor_table(tracks, rotations)
        expected, expected_degenerate = self.loop_table(tracks, rotations)
        assert degenerate == expected_degenerate
        for name, value in expected.items():
            assert np.array_equal(getattr(table, name), value), name

    def test_transient_memory_bounded(self):
        # What the pass allocates and frees again stays under 64 B per
        # observation at 80,000 observations: no (N, 3, 3) rotation
        # stack (72 B) and no per-group copies of the input.
        prob = po.generate_scene(po.SceneConfig(n_views=20, n_points=4000, seed=5))
        observed = sum(len(t) for t in prob.tracks)
        tracemalloc.start()
        try:
            held = anchor_table(prob.tracks, prob.rotations)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del held
        assert (peak - current) / observed <= 64, (peak - current) / observed

    @pytest.mark.parametrize("length", range(2, 13))
    def test_matches_gram_identity(self, length):
        # theta^2 tables as one (K, 6) @ (6, K) product pick what the Gram
        # identity |g_p|^2 |g_q|^2 - (g_p . g_q)^2 picks.
        rng = make_rng(40 + length)
        rotations = np.stack(
            [rotation_about(a / np.linalg.norm(a), rng.uniform(0.0, np.pi))
             for a in rng.normal(size=(15, 3))]
        )
        views = np.stack([np.sort(rng.choice(15, size=length, replace=False)) for _ in range(200)])
        xy = rng.uniform(-0.5, 0.5, (200, length, 2))
        rays = np.einsum("tkji,tkj->tki", rotations[views], po.homogenize(xy))
        picks = observations._max_theta_pairs(rays)
        expected = gram_identity_pairs(rays)
        assert np.array_equal(picks, expected)


def stray_base(tracks):
    """Anchors of the stray track 998 that ends ``tracks``: its two views."""
    return {998: po.BaseViewPair(*tracks[-1].view_ids.tolist(), 1.0)}


class TestInputChecks:
    """Bad view ids and bad explicit anchors end in a named InputError."""

    @staticmethod
    def stray_scene(views):
        prob = noisy_scene(9)
        return prob, list(prob.tracks) + [po.Track(998, views, [[0.1, 0.2], [0.2, 0.1]])]

    ENTRIES = {
        "assemble_system": lambda prob, tracks: po.assemble_system(tracks, prob.rotations, 0),
        "pa_optimize": lambda prob, tracks: po.pa_optimize(prob.gt_poses, tracks),
        "reconstruct_all": lambda prob, tracks: po.reconstruct_all(tracks, prob.gt_poses),
        # The anchors given: the entry points of build_table.
        "pa_residuals": lambda prob, tracks: po.pa_residuals(
            prob.gt_poses, tracks, stray_base(tracks)),
        "pa_jacobian": lambda prob, tracks: po.pa_jacobian(
            prob.gt_poses, tracks, stray_base(tracks),
            po.PoseParameterization(prob.n_views, 0)),
        "reconstruct_point": lambda prob, tracks: po.reconstruct_point(
            tracks[-1], stray_base(tracks)[998], prob.gt_poses),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("views, bad", [([-1, 0], -1), ([0, 6], 6)])
    def test_view_out_of_range_rejected(self, entry, views, bad):
        # A negative id used to wrap to the last view, and one past the
        # last to raise a bare IndexError (with the anchors given, a
        # negative id in pa_jacobian crashed the interpreter).
        prob, tracks = self.stray_scene(views)
        with pytest.raises(InputError, match=f"track 998: view {bad} "):
            self.ENTRIES[entry](prob, tracks)

    ANCHORED = {
        "reconstruct_all": lambda prob, tracks, bases: po.reconstruct_all(
            tracks, prob.gt_poses, bases=bases),
        "pa_residuals": lambda prob, tracks, bases: po.pa_residuals(
            prob.gt_poses, tracks, bases),
        "pa_jacobian": lambda prob, tracks, bases: po.pa_jacobian(
            prob.gt_poses, tracks, bases, po.PoseParameterization(prob.n_views, 0)),
    }

    @pytest.mark.parametrize("entry", sorted(ANCHORED))
    @pytest.mark.parametrize("base", [po.BaseViewPair(0, 4, 0.5), po.BaseViewPair(1, 1, 1.0)])
    def test_explicit_anchor_checked(self, entry, base):
        prob = noisy_scene(9)
        first = prob.tracks[0]
        tracks = [po.Track(first.track_id, first.view_ids[:3], first.points[:3])]
        tracks += prob.tracks[1:]
        message = rf"track {first.track_id}: anchor pair \({base.left}, {base.right}\) is not"
        with pytest.raises(InputError, match=message):
            self.ANCHORED[entry](prob, tracks, {first.track_id: base})
