import warnings

import numpy as np
import pytest

import poseonly as po
from poseonly.errors import DivergedNumerically, ParseError, TooFewPoints, VersionUnsupported
from poseonly.geometry import rotation_about
from poseonly.problem_io import quat_to_rotation, rotation_to_quat, write_points

from conftest import make_rng


class TestQuaternions:
    def test_round_trip_random_rotations(self):
        rng = make_rng(30)
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            R = rotation_about(axis, rng.random() * 2 * np.pi)
            q = rotation_to_quat(R)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(quat_to_rotation(q), R, atol=1e-12)

    def test_canonical_sign(self):
        R = rotation_about(np.array([0.0, 0.0, 1.0]), 3.0)
        q = rotation_to_quat(R)
        nonzero = q[np.abs(q) > 1e-12]
        assert nonzero[0] > 0

    @pytest.mark.parametrize(
        "R",
        [
            np.diag([1.0, -1.0, -1.0]),  # half turn about x
            np.diag([-1.0, 1.0, -1.0]),  # about y
            np.diag([-1.0, -1.0, 1.0]),  # about z
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),  # (1,1,0)/sqrt2
            np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),  # (0,-1,1)/sqrt2
        ],
    )
    def test_half_turn_canonical_sign(self, R):
        # w = 0 at a half turn, so the sign rests on the first nonzero
        # vector component: the case the scalar-first rule leaves open.
        q = rotation_to_quat(R)
        assert q[0] == 0.0
        assert q[np.flatnonzero(q)[0]] > 0
        assert np.abs(quat_to_rotation(q) - R).max() <= 1e-15


class TestProblemRoundTrip:
    def test_s1_field_for_field(self, tmp_path, scene_s1):
        path = tmp_path / "s1.po"
        po.write_problem(path, scene_s1)
        back = po.read_problem(path)
        assert np.array_equal(back.rotations, scene_s1.rotations)
        assert back.reference_view == scene_s1.reference_view
        for a, b in zip(back.tracks, scene_s1.tracks):
            assert a.track_id == b.track_id
            assert np.array_equal(a.view_ids, b.view_ids)
            assert np.array_equal(a.points, b.points)
        for a, b in zip(back.gt_poses, scene_s1.gt_poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.center, b.center)

    def test_random_scene_round_trip(self, tmp_path):
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=12, seed=31, obs_noise_sigma=1e-3)
        )
        path = tmp_path / "scene.po"
        po.write_problem(path, prob)
        back = po.read_problem(path)
        # observations and centers serialize losslessly (repr round-trip);
        # rotations pass through a quaternion conversion once
        for a, b in zip(back.tracks, prob.tracks):
            assert np.array_equal(a.points, b.points)
        for a, b in zip(back.gt_poses, prob.gt_poses):
            assert np.array_equal(a.center, b.center)
        assert np.allclose(back.rotations, prob.rotations, atol=5e-16)
        # Re-serializing reproduces every non-rotation line byte for byte;
        # quaternion fields pass through a matrix conversion and may move
        # in the last ulp.
        path2 = tmp_path / "scene2.po"
        po.write_problem(path2, back)
        for line_a, line_b in zip(
            path.read_text().splitlines(), path2.read_text().splitlines()
        ):
            tag = line_a.split()[0]
            if tag in ("V", "G"):
                toks_a = [float(t) for t in line_a.split()[2:]]
                toks_b = [float(t) for t in line_b.split()[2:]]
                assert np.allclose(toks_a, toks_b, atol=4e-16)
            else:
                assert line_a == line_b

    def test_no_ground_truth_round_trip(self, tmp_path, scene_s1):
        bare = po.SceneProblem(
            rotations=scene_s1.rotations,
            tracks=scene_s1.tracks,
            reference_view=0,
        )
        path = tmp_path / "bare.po"
        po.write_problem(path, bare)
        back = po.read_problem(path)
        assert back.gt_poses is None


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.po"
        path.write_text(text)
        return path

    def test_truncated_file_names_line(self, tmp_path, scene_s1):
        path = tmp_path / "s1.po"
        po.write_problem(path, scene_s1)
        lines = path.read_text().splitlines()
        truncated = self.write(tmp_path, "\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError):
            po.read_problem(truncated)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "NOTAFORMAT 1\n")
        with pytest.raises(ParseError) as err:
            po.read_problem(path)
        assert err.value.line == 1

    def test_unsupported_version(self, tmp_path):
        path = self.write(tmp_path, "POSEONLY 2\n1 0 0\nR 0\n")
        with pytest.raises(VersionUnsupported):
            po.read_problem(path)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        text = (
            "POSEONLY 1\n"
            "2 1 2\n"
            "V 0 0.9 0.0 0.0 0.0\n"
            "V 1 1.0 0.0 0.0 0.0\n"
            "O 0 0 0.1 0.1\n"
            "O 0 1 0.2 0.1\n"
            "R 0\n"
        )
        path = self.write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            po.read_problem(path)
        assert err.value.line == 3
        assert "norm" in str(err.value)

    def test_duplicate_observation_rejected(self, tmp_path):
        text = (
            "POSEONLY 1\n"
            "2 1 2\n"
            "V 0 1.0 0.0 0.0 0.0\n"
            "V 1 1.0 0.0 0.0 0.0\n"
            "O 0 1 0.1 0.1\n"
            "O 0 1 0.2 0.1\n"
            "R 0\n"
        )
        with pytest.raises(ParseError) as err:
            po.read_problem(self.write(tmp_path, text))
        assert err.value.line == 6

    def test_counts_mismatch(self, tmp_path):
        text = (
            "POSEONLY 1\n"
            "2 2 2\n"
            "V 0 1.0 0.0 0.0 0.0\n"
            "V 1 1.0 0.0 0.0 0.0\n"
            "O 0 0 0.1 0.1\n"
            "O 0 1 0.2 0.1\n"
            "R 0\n"
        )
        with pytest.raises(ParseError):
            po.read_problem(self.write(tmp_path, text))

    def test_singleton_track_rejected(self, tmp_path):
        text = (
            "POSEONLY 1\n"
            "2 1 1\n"
            "V 0 1.0 0.0 0.0 0.0\n"
            "V 1 1.0 0.0 0.0 0.0\n"
            "O 0 0 0.1 0.1\n"
            "R 0\n"
        )
        with pytest.raises(ParseError):
            po.read_problem(self.write(tmp_path, text))


class TestNonFiniteFields:
    """Non-finite numbers are rejected at the file boundary, naming the
    offending line."""

    PROBLEM = (
        "POSEONLY 1\n"
        "2 1 2\n"
        "V 0 1.0 0.0 0.0 0.0\n"
        "V 1 1.0 0.0 0.0 0.0\n"
        "O 0 0 0.1 0.1\n"
        "O 0 1 0.2 0.1\n"
        "G 0 1.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
        "G 1 1.0 0.0 0.0 0.0 1.0 0.0 0.0\n"
        "R 0\n"
    )
    POSES = (
        "POSEONLY-POSES 1\n"
        "2\n"
        "P 0 1.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
        "P 1 1.0 0.0 0.0 0.0 1.0 0.0 0.0\n"
    )

    @staticmethod
    def mutated(text, line, field, value):
        lines = text.splitlines()
        tokens = lines[line - 1].split()
        tokens[field] = value
        lines[line - 1] = " ".join(tokens)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "line, field, value",
        [
            (3, 2, "nan"),  # V quaternion
            (4, 5, "NaN"),
            (3, 3, "inf"),
            (5, 3, "nan"),  # O x
            (6, 4, "-inf"),  # O y
            (7, 2, "nan"),  # G quaternion
            (8, 6, "inf"),  # G center
            (8, 7, "1e300"),  # G center whose squared norm overflows
            (8, 8, "-1e155"),
        ],
    )
    def test_problem_field_rejected(self, tmp_path, line, field, value):
        path = tmp_path / "bad.po"
        path.write_text(self.mutated(self.PROBLEM, line, field, value))
        with pytest.raises(ParseError) as err:
            po.read_problem(path)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "line, field, value",
        [(3, 2, "nan"), (4, 3, "inf"), (4, 6, "nan"), (3, 8, "-inf"), (4, 7, "-1e300"), (3, 6, "1e155")],
    )
    def test_poses_field_rejected(self, tmp_path, line, field, value):
        path = tmp_path / "bad.poses"
        path.write_text(self.mutated(self.POSES, line, field, value))
        with pytest.raises(ParseError) as err:
            po.read_poses(path)
        assert err.value.line == line

    @pytest.mark.parametrize("line_4", ["P 0 1.0 0.0 0.0 0.0 5.0 0.0 0.0", ""])
    def test_poses_center_named_before_later_defects(self, tmp_path, line_4):
        # A repeated P line or a missing view after a non-finite center
        # does not hide it: the earliest offending line is named.
        lines = self.mutated(self.POSES, 3, 6, "nan").splitlines()
        lines[3] = line_4
        path = tmp_path / "bad.poses"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            po.read_poses(path)
        assert err.value.line == 3

    def test_unmutated_files_parse(self, tmp_path):
        problem, poses = tmp_path / "ok.po", tmp_path / "ok.poses"
        problem.write_text(self.PROBLEM)
        poses.write_text(self.POSES)
        assert len(po.read_problem(problem).tracks) == 1
        assert len(po.read_poses(poses)) == 2


class TestRepeatedLines:
    """A repeated G, R or P line is rejected naming the repeat, as a
    repeated V or O line is; it never replaces the first one."""

    PROBLEM = TestNonFiniteFields.PROBLEM
    POSES = TestNonFiniteFields.POSES

    @pytest.mark.parametrize("extra", ["G 0 1.0 0.0 0.0 0.0 5.0 0.0 0.0", "R 1"])
    def test_problem_repeat_rejected(self, tmp_path, extra):
        path = tmp_path / "bad.po"
        path.write_text(self.PROBLEM + extra + "\n")
        with pytest.raises(ParseError, match="duplicate") as err:
            po.read_problem(path)
        assert err.value.line == 10

    def test_poses_repeat_rejected(self, tmp_path):
        path = tmp_path / "bad.poses"
        path.write_text(self.POSES + "P 0 1.0 0.0 0.0 0.0 5.0 0.0 0.0\n")
        with pytest.raises(ParseError, match="duplicate") as err:
            po.read_poses(path)
        assert err.value.line == 5

    def test_negative_pose_count_rejected(self, tmp_path):
        path = tmp_path / "bad.poses"
        path.write_text("POSEONLY-POSES 1\n-1\n")
        with pytest.raises(ParseError) as err:
            po.read_poses(path)
        assert err.value.line == 2


class TestPosesReader:
    """The pose reader breaks lines and reads integers as the problem
    reader does."""

    POSES = TestNonFiniteFields.POSES

    def read(self, tmp_path, text):
        path = tmp_path / "p.poses"
        path.write_bytes(text.encode())
        return po.read_poses(path)

    @pytest.mark.parametrize("token", ["0_1", "\u0661", "1.0", "1e0", ""])
    def test_view_count_is_a_strict_integer(self, tmp_path, token):
        lines = self.POSES.split("\n")
        lines[1] = token
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, "\n".join(lines))
        assert err.value.line == 2

    @pytest.mark.parametrize("token", ["0_1", "\u0661", "1.0", "1e0"])
    def test_view_id_is_a_strict_integer(self, tmp_path, token):
        lines = self.POSES.split("\n")
        lines[3] = lines[3].replace("P 1 ", f"P {token} ")
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, "\n".join(lines))
        assert err.value.line == 4

    def test_view_count_checked_before_use(self, tmp_path):
        lines = self.POSES.split("\n")
        lines[1] = "3"
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, "\n".join(lines))
        assert err.value.line == 2

    @pytest.mark.parametrize("separator", ["\f", "\v", "\u2028", "\x1c", "\x85"])
    def test_only_newlines_break_lines(self, tmp_path, separator):
        # Each of these is whitespace inside a line, never a line break.
        clean = self.read(tmp_path, self.POSES)
        text = self.POSES.replace("P 1 1.0 ", f"P 1{separator}1.0 ")
        for a, b in zip(self.read(tmp_path, text), clean):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.rotation, b.rotation)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_break_lines(self, tmp_path, newline):
        clean = self.read(tmp_path, self.POSES)
        back = self.read(tmp_path, self.POSES.replace("\n", newline))
        assert all(np.array_equal(a.center, b.center) for a, b in zip(back, clean))

    def test_non_utf8_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "p.poses"
        path.write_bytes(self.POSES.encode().replace(b"P 1 ", b"P 1\xff "))
        with pytest.raises(ParseError) as err:
            po.read_poses(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("value", ["1e300", "-1e300", "1e200"])
    def test_huge_quaternion_field_rejected_silently(self, tmp_path, value):
        # Squaring such a field overflows; the reader must reject it
        # without a numpy RuntimeWarning on stderr.
        text = self.POSES.replace("P 1 1.0 ", f"P 1 {value} ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="norm") as err:
                self.read(tmp_path, text)
        assert err.value.line == 4


class TestOneGrammar:
    """Pose files and G records go through the problem file's header,
    counts and pose-record rules; each case below is where the pose reader
    used to answer differently."""

    PROBLEM = TestNonFiniteFields.PROBLEM
    POSES = TestNonFiniteFields.POSES

    def write(self, tmp_path, text, name="f"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_pose_version_unsupported(self, tmp_path):
        path = self.write(tmp_path, self.POSES.replace("POSEONLY-POSES 1", "POSEONLY-POSES 2"))
        with pytest.raises(VersionUnsupported):
            po.read_poses(path)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ("2 1", "counts line needs n_views"),
            ("x", "counts must be integers"),
            ("-1", "counts must not be negative"),
            ("3", "counts declare 3 views but only 2 lines follow"),
        ],
    )
    def test_pose_count_errors_read_as_in_problem_files(self, tmp_path, counts, message):
        lines = self.POSES.split("\n")
        lines[1] = counts
        with pytest.raises(ParseError, match=message) as err:
            po.read_poses(self.write(tmp_path, "\n".join(lines)))
        assert err.value.line == 2

    def test_empty_problem_file_expects_the_header(self, tmp_path):
        with pytest.raises(ParseError, match="expected header 'POSEONLY 1'") as err:
            po.read_problem(self.write(tmp_path, ""))
        assert err.value.line == 1

    def test_missing_g_view_named(self, tmp_path):
        text = self.PROBLEM.replace("G 1 1.0 0.0 0.0 0.0 1.0 0.0 0.0\n", "")
        with pytest.raises(ParseError, match="missing G line for view 1"):
            po.read_problem(self.write(tmp_path, text))

    def test_defect_before_non_utf8_bytes_named_first(self, tmp_path):
        # Lines are decoded as they are read, as in the problem reader, so
        # the bad quaternion on line 3 is named before line 4's byte.
        path = tmp_path / "p.poses"
        path.write_bytes(
            self.POSES.encode().replace(b"P 0 1.0 ", b"P 0 0.5 ").replace(b"P 1 ", b"P 1\xff ")
        )
        with pytest.raises(ParseError, match="norm") as err:
            po.read_poses(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("view, message", [("0", "duplicate P line"), ("2", "out of range")])
    def test_p_view_checked_before_quaternion(self, tmp_path, view, message):
        text = self.POSES.replace("P 1 1.0 ", f"P {view} 0.5 ")
        with pytest.raises(ParseError, match=message) as err:
            po.read_poses(self.write(tmp_path, text))
        assert err.value.line == 4


class TestPosesRoundTrip:
    def test_round_trip(self, tmp_path, scene_s1):
        path = tmp_path / "poses.txt"
        po.write_poses(path, scene_s1.gt_poses)
        back = po.read_poses(path)
        for a, b in zip(back, scene_s1.gt_poses):
            assert np.array_equal(a.center, b.center)
            assert np.allclose(a.rotation, b.rotation, atol=5e-16)


class TestUnstorablePoses:
    # (0, 0, 1.4e154) is finite but its squared norm overflows, so the
    # readers refuse it; the writers refuse it first, naming the view.
    BAD = [[0.0, 0.0, 1.4e154], [np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0]]

    @pytest.mark.parametrize("center", BAD)
    def test_pose_writer_refuses_and_keeps_old_file(self, tmp_path, scene_s1, center):
        path = tmp_path / "poses.txt"
        path.write_text("old\n")
        poses = list(scene_s1.gt_poses)
        poses[2] = po.CameraPose(poses[2].rotation, np.array(center))
        with pytest.raises(DivergedNumerically, match="view 2"):
            po.write_poses(path, poses)
        assert path.read_text() == "old\n"

    def test_problem_writer_refuses_and_keeps_old_file(self, tmp_path, scene_s1):
        path = tmp_path / "p.po"
        path.write_text("old\n")
        scene_s1.gt_poses[1] = po.CameraPose(np.eye(3), np.array(self.BAD[0]))
        with pytest.raises(DivergedNumerically, match="view 1"):
            po.write_problem(path, scene_s1)
        assert path.read_text() == "old\n"


class TestPointsWriter:
    def test_lines_match_track_and_position(self, tmp_path, scene_s1):
        points = po.reconstruct_all(scene_s1.tracks, scene_s1.gt_poses).points
        path = tmp_path / "points.txt"
        write_points(path, points)
        expected = "".join(
            f"{p.track_id} " + " ".join(repr(float(c)) for c in p.position_w) + "\n"
            for p in points
        )
        assert len(points) == 2
        assert path.read_text() == expected

    def test_no_points_make_an_empty_file(self, tmp_path):
        path = tmp_path / "points.txt"
        write_points(path, [])
        assert path.read_bytes() == b""


class TestAlignment:
    def test_identical_sets(self):
        pts = make_rng(32).random((10, 3))
        t = po.align_similarity(pts, pts)
        assert t.scale == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(t.rotation, np.eye(3), atol=1e-9)
        assert t.rms < 1e-12

    def test_pure_scale(self):
        pts = make_rng(33).random((8, 3))
        t = po.align_similarity(pts, 2.0 * pts)
        assert t.scale == pytest.approx(2.0, rel=1e-12)
        assert t.rms < 1e-12

    def test_random_similarity_recovered(self):
        rng = make_rng(34)
        pts = rng.random((12, 3)) * 4
        Q = rotation_about(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), 1.2)
        mapped = 0.7 * pts @ Q.T + np.array([2.0, -1.0, 0.5])
        t = po.align_similarity(pts, mapped)
        assert t.rms < 1e-10
        assert np.allclose(t.apply(pts), mapped, atol=1e-10)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            po.align_similarity(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_collinear_flagged_degenerate(self):
        line = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
        t = po.align_similarity(line, 2.0 * line)
        assert t.degenerate
        assert t.rms < 1e-10  # best fit still found


class TestPlyExport:
    def read_ply(self, path):
        lines = path.read_text().splitlines()
        split = lines.index("end_header")
        return lines[: split + 1], lines[split + 1 :]

    def test_header_order_and_camera_only_export(self, tmp_path):
        path = tmp_path / "cams.ply"
        po.export_ply([], np.eye(3), path)
        header, body = self.read_ply(path)
        assert header == [
            "ply",
            "format ascii 1.0",
            "element vertex 3",
            "property float x",
            "property float y",
            "property float z",
            "property uchar red",
            "property uchar green",
            "property uchar blue",
            "end_header",
        ]
        assert len(body) == 3
        assert all(line.endswith("255 0 0") for line in body)

    def test_s1_reconstruction_vertex_count(self, tmp_path, scene_s1):
        result = po.reconstruct_all(scene_s1.tracks, scene_s1.gt_poses)
        path = tmp_path / "s1.ply"
        po.export_ply(result.points, scene_s1.gt_centers(), path)
        header, body = self.read_ply(path)
        assert "element vertex 5" in header
        assert len(body) == 5
        assert sum(line.endswith("255 255 255") for line in body) == 2
        # every vertex row parses as three floats + three ints
        for line in body:
            toks = line.split()
            [float(t) for t in toks[:3]]
            assert all(0 <= int(t) <= 255 for t in toks[3:])


def same_problem(a, b) -> bool:
    """Bit-identical SceneProblems: rotations, ids, view dtypes, points,
    ground truth and the reference view."""

    def bits(x):
        x = np.asarray(x)
        return x.dtype, x.shape, x.tobytes()

    return (
        bits(a.rotations) == bits(b.rotations)
        and a.reference_view == b.reference_view
        and [t.track_id for t in a.tracks] == [t.track_id for t in b.tracks]
        and all(
            bits(s.view_ids) == bits(t.view_ids) and bits(s.points) == bits(t.points)
            for s, t in zip(a.tracks, b.tracks)
        )
        and (a.gt_poses is None) == (b.gt_poses is None)
        and all(
            bits(s.rotation) == bits(t.rotation) and bits(s.center) == bits(t.center)
            for s, t in zip(a.gt_poses or [], b.gt_poses or [])
        )
    )


class TestReaderContract:
    """Every defect inside a large block of O records is a ParseError
    naming its line; with several defects the earliest line is named."""

    N_VIEWS = 6

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        prob = po.generate_scene(
            po.SceneConfig(n_views=self.N_VIEWS, n_points=400, seed=41, obs_noise_sigma=1e-3)
        )
        path = tmp_path_factory.mktemp("contract") / "clean.po"
        po.write_problem(path, prob)
        lines = path.read_text().splitlines()
        o_lines = [k + 1 for k, line in enumerate(lines) if line.startswith("O ")]
        assert len(o_lines) == 2400
        return lines, o_lines

    MUTATIONS = {
        "missing token": lambda t, lines: t[:4],
        "extra token": lambda t, lines: t + ["0.5"],
        "float track id": lambda t, lines: [t[0], "3.0"] + t[2:],
        "float view id": lambda t, lines: t[:2] + ["1.0"] + t[3:],
        "word track id": lambda t, lines: [t[0], "x"] + t[2:],
        "view out of range": lambda t, lines: t[:2] + ["6"] + t[3:],
        "negative view": lambda t, lines: t[:2] + ["-1"] + t[3:],
        "nan x": lambda t, lines: t[:3] + ["nan", t[4]],
        "inf y": lambda t, lines: t[:4] + ["-inf"],
        "unknown tag": lambda t, lines: ["Q"] + t[1:],
        # the first O record, repeated
        "duplicate": lambda t, lines: next(x for x in lines if x.startswith("O ")).split(),
    }

    @staticmethod
    def mutate(lines, line_no, kind):
        tokens = lines[line_no - 1].split()
        out = list(lines)
        out[line_no - 1] = " ".join(TestReaderContract.MUTATIONS[kind](tokens, lines))
        return out

    def read(self, tmp_path, lines):
        path = tmp_path / "bad.po"
        path.write_text("\n".join(lines) + "\n")
        return po.read_problem(path)

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @pytest.mark.parametrize("where", [0, 1234, -1])
    def test_defect_names_its_line(self, tmp_path, clean, kind, where):
        lines, o_lines = clean
        line_no = o_lines[where]
        if kind == "duplicate" and where == 0:
            line_no = o_lines[1]
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, self.mutate(lines, line_no, kind))
        assert err.value.line == line_no

    @pytest.mark.parametrize(
        "first, second",
        [
            ("nan x", "missing token"),
            ("missing token", "nan x"),
            ("duplicate", "float track id"),
            ("word track id", "duplicate"),
            ("unknown tag", "view out of range"),
            ("view out of range", "unknown tag"),
            ("inf y", "negative view"),
            ("extra token", "float view id"),
        ],
    )
    def test_two_defects_name_the_earlier(self, tmp_path, clean, first, second):
        lines, o_lines = clean
        early, late = o_lines[700], o_lines[1900]
        mutated = self.mutate(self.mutate(lines, late, second), early, first)
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, mutated)
        assert err.value.line == early

    @pytest.mark.parametrize("tag", ["V", "O", "G", "R"])
    @pytest.mark.parametrize("token", ["0_1", "\u0661", "1.0", "1e0"])
    def test_ids_are_strict_integers(self, tmp_path, clean, tag, token):
        # Python's int() takes "0_1" and the Arabic-Indic digit one
        lines, _ = clean
        k = next(k for k, line in enumerate(lines) if line.startswith(tag + " "))
        tokens = lines[k].split()
        tokens[1] = token
        mutated = lines[:k] + [" ".join(tokens)] + lines[k + 1:]
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, mutated)
        assert err.value.line == k + 1

    def test_defect_before_the_o_block_wins(self, tmp_path, clean):
        lines, o_lines = clean
        mutated = self.mutate(lines, o_lines[5], "float track id")
        mutated[3] = mutated[3] + " 0.0"  # a V line with 7 fields
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, mutated)
        assert err.value.line == 4

    @pytest.mark.parametrize("record", ["V", "O"])
    def test_non_utf8_bytes_name_the_line(self, tmp_path, clean, record):
        lines, o_lines = clean
        line_no = 3 if record == "V" else o_lines[1234]
        raw = [line.encode() for line in lines]
        raw[line_no - 1] = raw[line_no - 1][:-1] + b"\xff"
        path = tmp_path / "bad.po"
        path.write_bytes(b"\n".join(raw) + b"\n")
        with pytest.raises(ParseError) as err:
            po.read_problem(path)
        assert err.value.line == line_no

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_any_order_and_whitespace_parse_identically(self, tmp_path, clean, newline):
        lines, _ = clean
        rng = np.random.default_rng(42)
        records = [lines[k] for k in rng.permutation(np.arange(2, len(lines)))]
        messy = lines[:2]
        for k, record in enumerate(records):
            seps = rng.choice([" ", "\t", "  ", " \t "], size=len(record.split()) - 1)
            fields = record.split()
            text = fields[0] + "".join(s + f for s, f in zip(seps, fields[1:]))
            messy.append(["", " ", "\t", "  "][k % 4] + text + ["", " ", "\t"][k % 3])
            if k % 97 == 0:
                messy.append(["", "   ", "\t"][k % 3])
        path = tmp_path / "messy.po"
        path.write_bytes((newline.join(messy) + newline).encode())
        clean_path = tmp_path / "clean.po"
        clean_path.write_text("\n".join(lines) + "\n")
        assert same_problem(po.read_problem(path), po.read_problem(clean_path))

    @pytest.mark.parametrize(
        "counts", [f"{10**12} 1 2", "-1 1 2", "2 -1 2", "2 1 -2", "4 1 2"]
    )
    def test_counts_line_checked_before_use(self, tmp_path, counts):
        path = tmp_path / "bad.po"
        path.write_text(
            "POSEONLY 1\n" + counts + "\n"
            "V 0 1.0 0.0 0.0 0.0\n"
            "V 1 1.0 0.0 0.0 0.0\n"
            "R 0\n"
        )
        with pytest.raises(ParseError) as err:
            po.read_problem(path)
        assert err.value.line == 2
