"""Property-based tests: file round-trips, CLI robustness under
single-token corruption of a valid problem or pose file, the block Gram
of small random scenes, and the anchor pass's invariances."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

import poseonly as po
from poseonly import observations
from poseonly.cli import run_cli
from poseonly.errors import DivergedNumerically, InsufficientParallax
from poseonly.observations import anchor_table, base_pairs
from poseonly.problem_io import quat_to_rotation
from poseonly.simulate import MOTIONS

from test_translation_solver import assert_block_gram_matches

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rotations(draw):
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    hypothesis.assume(np.linalg.norm(q) > 1e-3)
    return quat_to_rotation(q / np.linalg.norm(q))


@st.composite
def poses(draw, n_views):
    return [
        po.CameraPose(draw(rotations()), draw(st.lists(finite, min_size=3, max_size=3)))
        for _ in range(n_views)
    ]


@st.composite
def problems(draw):
    n_views = draw(st.integers(2, 4))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    tracks = []
    for track_id in ids:
        views = draw(st.lists(st.integers(0, n_views - 1), min_size=2, unique=True))
        points = draw(st.lists(st.tuples(finite, finite), min_size=len(views), max_size=len(views)))
        tracks.append(po.Track(track_id, sorted(views), points))
    gt = draw(st.none() | poses(n_views))
    return po.SceneProblem(
        rotations=np.stack([draw(rotations()) for _ in range(n_views)]),
        tracks=tracks,
        reference_view=draw(st.integers(0, n_views - 1)),
        gt_poses=gt,
        gt_points=None,
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_rotation(a, b) -> bool:
    # Files carry rotations as quaternions: the matrix -> quaternion ->
    # matrix conversion moves entries by a few ulps (up to 6 measured).
    return np.allclose(a, b, rtol=0, atol=4e-15)


def storable(pose_list) -> bool:
    """Whether every center has a finite squared norm, as the file formats
    require; a center such as (0, 0, 1.4e154) is finite but is not, and
    the writers refuse it."""
    with np.errstate(over="ignore"):
        return all(np.isfinite(p.center @ p.center) for p in pose_list)


@settings(max_examples=60)
@given(problems())
def test_problem_file_round_trip(problem):
    """Observations, ids, centers and the reference view come back bit
    for bit; rotations to the quaternion conversion's rounding."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.po"
        if not storable(problem.gt_poses or []):
            with pytest.raises(DivergedNumerically, match="squared norm"):
                po.write_problem(path, problem)
            assert not path.exists()
            return
        po.write_problem(path, problem)
        back = po.read_problem(path)
    assert back.reference_view == problem.reference_view
    assert all(same_rotation(a, b) for a, b in zip(back.rotations, problem.rotations))
    expected = sorted(problem.tracks, key=lambda t: t.track_id)
    assert [t.track_id for t in back.tracks] == [t.track_id for t in expected]
    for a, b in zip(back.tracks, expected):
        assert same_bits(a.view_ids, b.view_ids)
        assert same_bits(a.points, b.points)
    assert (back.gt_poses is None) == (problem.gt_poses is None)
    for a, b in zip(back.gt_poses or [], problem.gt_poses or []):
        assert same_bits(a.center, b.center)
        assert same_rotation(a.rotation, b.rotation)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(poses))
def test_pose_file_round_trip(pose_list):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.poses"
        if not storable(pose_list):
            with pytest.raises(DivergedNumerically, match="squared norm"):
                po.write_poses(path, pose_list)
            assert not path.exists()
            return
        po.write_poses(path, pose_list)
        back = po.read_poses(path)
    assert len(back) == len(pose_list)
    for a, b in zip(back, pose_list):
        assert same_bits(a.center, b.center)
        assert same_rotation(a.rotation, b.rotation)


_SCENE = po.generate_scene(po.SceneConfig(n_views=4, n_points=5, seed=5, obs_noise_sigma=1e-3))
_REPLACEMENTS = [
    "", "nan", "inf", "-inf", "0", "1", "-1", "2", "3", "7", "0.5", "-0.5",
    "1e-300", "1e300", "-1e300", "x", "O", "V", "G", "R", "P", "POSEONLY", "POSEONLY-POSES",
]


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    problem, poses = root / "scene.po", root / "scene.poses"
    po.write_problem(problem, _SCENE)
    po.write_poses(poses, _SCENE.gt_poses)
    return {"po": problem.read_text().splitlines(), "poses": poses.read_text().splitlines()}


@settings(max_examples=100)
@given(data=st.data())
def test_single_token_mutation_never_raises(scene_files, data):
    """One token of the problem file or of the pose file replaced: every
    stage that reads the file exits 0, 1 or 2, never with a traceback."""
    mutated = data.draw(st.sampled_from(sorted(scene_files)))
    lines = list(scene_files[mutated])
    line = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[line].split()
    field = data.draw(st.integers(0, len(tokens) - 1))
    tokens[field] = data.draw(st.sampled_from(_REPLACEMENTS))
    lines[line] = " ".join(tokens)
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        problem, poses, out = (str(Path(tmp) / name) for name in ("m.po", "m.poses", "out"))
        for path, kind in ((problem, "po"), (poses, "poses")):
            text = lines if kind == mutated else scene_files[kind]
            Path(path).write_text("\n".join(text) + "\n")
        if mutated == "po":
            first = ["solve", problem, "-o", out]
        else:
            first = ["pa", problem, "--init", poses, "--max-iter", "1", "-o", out]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [
                run_cli(first),
                run_cli(["reconstruct", problem, "--poses", poses, "-o", out + ".ply"]),
                run_cli(["eval", problem, "--poses", poses]),
            ]
    assert set(codes) <= {0, 1, 2}


@settings(max_examples=40)
@given(
    motion=st.sampled_from(MOTIONS),
    n_views=st.integers(3, 7),
    n_points=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    sigma=st.sampled_from([0.0, 1e-3]),
    data=st.data(),
)
def test_block_gram_matches_csr_gram(motion, n_views, n_points, seed, sigma, data):
    # The Gram is summed over runs of whole tracks of a drawn size: one
    # track each (1 row), a few, or the whole table in one.
    prob = po.generate_scene(po.SceneConfig(
        n_views=n_views, n_points=n_points, motion=motion, seed=seed, obs_noise_sigma=sigma
    ))
    reference = data.draw(st.integers(0, n_views - 1))
    run_rows = data.draw(st.integers(1, 40) | st.just(1 << 40))
    try:
        system = po.assemble_system(prob.tracks, prob.rotations, reference)
    except InsufficientParallax:
        hypothesis.assume(False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observations, "RUN_ROWS", run_rows)
        assert_block_gram_matches(system)


@settings(max_examples=40)
@given(
    motion=st.sampled_from(MOTIONS),
    n_views=st.integers(3, 7),
    n_points=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_anchor_table_ignores_track_order_and_chosen_presets(motion, n_views, n_points, seed,
                                                             data):
    # Partial tracks of every length; permuting them, or giving some of
    # the anchors the pass would choose, leaves the table as it was.
    prob = po.generate_scene(po.SceneConfig(
        n_views=n_views, n_points=n_points, motion=motion, seed=seed, obs_noise_sigma=1e-3
    ))
    tracks = []
    for track in prob.tracks:
        keep = sorted(data.draw(st.sets(st.integers(0, len(track) - 1), min_size=2)))
        tracks.append(po.Track(track.track_id, track.view_ids[keep], track.points[keep]))
    table, degenerate = anchor_table(tracks, prob.rotations)
    shuffled = data.draw(st.permutations(tracks))
    chosen = base_pairs(table.track_ids, table.left, table.right, table.theta)
    preset = data.draw(st.sets(st.sampled_from(sorted(chosen)))) if chosen else set()
    again, again_degenerate = anchor_table(
        shuffled, prob.rotations, {tid: chosen[tid] for tid in preset}
    )
    assert again_degenerate == [t.track_id for t in shuffled if t.track_id in set(degenerate)]
    for name in ("track_ids", "track_start", "obs_track", "obs_view", "obs_xy", "left", "right",
                 "theta", "left_obs", "rows", "row_start", "right_row"):
        assert np.array_equal(getattr(again, name), getattr(table, name)), name
