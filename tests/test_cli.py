import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import poseonly as po
from poseonly import observations
from poseonly.cli import run_cli


def run(args, capsys):
    code = run_cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def s1_file(tmp_path, capsys):
    path = str(tmp_path / "s1.po")
    code, _, _ = run(
        ["simulate", "--motion", "collinear", "--views", "3", "--points", "2",
         "--sigma", "0", "--seed", "42", "-o", path],
        capsys,
    )
    assert code == 0
    return path


def kv(stdout):
    out = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestPipeline:
    def test_simulate_solve_eval(self, tmp_path, s1_file, capsys):
        code, _, _ = run(["solve", s1_file], capsys)
        assert code == 0
        poses_file = s1_file.replace(".po", ".poses")
        assert os.path.exists(poses_file)

        code, out, err = run(["eval", s1_file, "--poses", poses_file], capsys)
        assert code == 0
        report = kv(out)
        assert float(report["translation_rms_after_alignment"]) < 1e-8
        assert float(report["singular_gap"]) > 1e6
        assert "runtime" not in out
        assert "runtime" in err  # human table carries timings

    def test_eval_timings_only_add_runtime_lines(self, s1_file, capsys):
        assert run(["solve", s1_file], capsys)[0] == 0
        eval_args = ["eval", s1_file, "--poses", s1_file.replace(".po", ".poses")]
        code, plain, _ = run(eval_args, capsys)
        assert code == 0
        code, timed, _ = run([*eval_args, "--timings"], capsys)
        assert code == 0
        timed_lines = timed.splitlines()
        runtime = [line for line in timed_lines if line.startswith("runtime_ms_")]
        assert [line.partition("=")[0] for line in runtime] == [
            "runtime_ms_align", "runtime_ms_assemble_spectrum",
            "runtime_ms_reconstruct", "runtime_ms_reprojection",
        ]
        assert all(float(line.partition("=")[2]) >= 0 for line in runtime)
        assert [line for line in timed_lines if line not in runtime] == plain.splitlines()

    def test_full_stage_composition(self, tmp_path, capsys):
        problem = str(tmp_path / "ring.po")
        code, _, _ = run(
            ["simulate", "--motion", "generic_ring", "--views", "6", "--points", "30",
             "--sigma", "1e-3", "--seed", "7", "-o", problem],
            capsys,
        )
        assert code == 0
        code, _, _ = run(["solve", problem, "-o", str(tmp_path / "init.poses")], capsys)
        assert code == 0
        code, _, _ = run(
            ["pa", problem, "--init", str(tmp_path / "init.poses"),
             "-o", str(tmp_path / "refined.poses")],
            capsys,
        )
        assert code == 0
        ply = str(tmp_path / "scene.ply")
        pts = str(tmp_path / "points.txt")
        code, _, _ = run(
            ["reconstruct", problem, "--poses", str(tmp_path / "refined.poses"),
             "-o", ply, "--points-out", pts],
            capsys,
        )
        assert code == 0
        assert Path(ply).read_text().splitlines()[0].strip() == "ply"
        assert len(Path(pts).read_text().splitlines()) == 30

        code, out, _ = run(
            ["eval", problem, "--poses", str(tmp_path / "refined.poses")], capsys
        )
        assert code == 0
        assert float(kv(out)["reprojection_rms"]) < 5e-3

    def test_baseline_collinear_rank_deficient_exit_2(self, s1_file, capsys):
        code, _, err = run(["baseline", s1_file], capsys)
        assert code == 2
        assert "RankDeficient" in err

    def test_baseline_without_ground_truth_exit_1(self, tmp_path, s1_file, capsys):
        lines = Path(s1_file).read_text().splitlines()
        bare = tmp_path / "bare.po"
        bare.write_text("\n".join(line for line in lines if not line.startswith("G ")) + "\n")
        code, _, err = run(["baseline", str(bare)], capsys)
        assert code == 1
        assert "InputError" in err and "G lines" in err

    def test_eval_without_scored_points_is_not_a_perfect_fit(self, tmp_path, capsys):
        # Negated centers put every point behind its cameras: no point
        # survives, so nothing is scored and the rms must not read 0.
        problem = str(tmp_path / "exact.po")
        assert run(["simulate", "--views", "5", "--points", "10", "--sigma", "0",
                    "--seed", "3", "-o", problem], capsys)[0] == 0
        solved = str(tmp_path / "exact.poses")
        assert run(["solve", problem, "-o", solved], capsys)[0] == 0
        negated = str(tmp_path / "negated.poses")
        po.write_poses(negated, [po.CameraPose(p.rotation, -p.center)
                                 for p in po.read_poses(solved)])
        code, out, _ = run(["eval", problem, "--poses", negated], capsys)
        assert code == 0
        report = kv(out)
        assert report["points_accepted"] == "0"
        assert report["points_rejected_negative_depth"] == "10"
        assert report["reprojection_rms"] == "inf"

    def test_baseline_generic_succeeds(self, tmp_path, capsys):
        problem = str(tmp_path / "ring.po")
        run(
            ["simulate", "--motion", "generic_ring", "--views", "5", "--points", "12",
             "--sigma", "0", "--seed", "3", "-o", problem],
            capsys,
        )
        code, _, _ = run(["baseline", problem], capsys)
        assert code == 0
        code, out, _ = run(
            ["eval", problem, "--poses", problem.replace(".po", ".baseline.poses")],
            capsys,
        )
        assert code == 0
        assert float(kv(out)["translation_rms_after_alignment"]) < 1e-8


class TestErrorPaths:
    def test_unknown_flag_usage_error(self, capsys):
        code, _, err = run(["solve", "--frobnicate"], capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_command_usage_error(self, capsys):
        code, _, err = run(["transmogrify"], capsys)
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(["solve", "/nonexistent/problem.po"], capsys)
        assert code == 1

    def test_malformed_problem_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.po"
        bad.write_text("POSEONLY 1\nnot a counts line\n")
        code, _, err = run(["solve", str(bad)], capsys)
        assert code == 1
        assert "ParseError" in err

    def test_pure_rotation_problem_exit_2(self, tmp_path, capsys):
        # all cameras at a single center: insufficient parallax
        from poseonly.simulate import look_at_rotation

        center = np.array([0.0, 0.0, -6.0])
        poses = [
            po.CameraPose(look_at_rotation(center, [0.2 * k, 0.1, 1.0]), center)
            for k in range(3)
        ]
        points = np.array([[0.0, 0.0, 1.0], [0.5, -0.3, 1.5], [-0.4, 0.2, 0.8]])
        obs = np.stack([[po.project(p, X) for p in poses] for X in points])
        tracks = [po.Track(k, np.arange(3), obs[k]) for k in range(3)]
        problem = po.SceneProblem(
            rotations=np.stack([p.rotation for p in poses]),
            tracks=tracks,
            reference_view=0,
            gt_poses=poses,
            gt_points=points,
        )
        path = tmp_path / "rotonly.po"
        po.write_problem(path, problem)
        code, _, err = run(["solve", str(path)], capsys)
        assert code == 2
        assert "InsufficientParallax" in err

    @pytest.mark.parametrize("case", ["no tracks", "no parallax"])
    def test_pa_without_parallax_exit_2(self, tmp_path, capsys, case):
        # Three co-located views with one rotation see each point along the
        # same ray: pa has nothing to refine and must not report success.
        poses = [po.CameraPose(np.eye(3), np.zeros(3)) for _ in range(3)]
        tracks = [] if case == "no tracks" else [
            po.Track(k, [0, 1, 2], [[0.1 * k, -0.05 * k]] * 3) for k in range(4)
        ]
        problem = po.SceneProblem(rotations=np.stack([np.eye(3)] * 3), tracks=tracks)
        path, init = tmp_path / "flat.po", tmp_path / "flat.poses"
        po.write_problem(path, problem)
        po.write_poses(init, poses)
        code, _, err = run(["pa", str(path), "--init", str(init)], capsys)
        assert code == 2
        assert "InsufficientParallax" in err
        assert not (tmp_path / "flat.pa.poses").exists()

    def test_nan_quaternion_exit_1(self, tmp_path, s1_file, capsys):
        lines = Path(s1_file).read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("V 1 "))
        lines[k] = "V 1 nan 0.0 0.0 0.0"
        bad = tmp_path / "nanquat.po"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["solve", str(bad)], capsys)
        assert code == 1
        assert "ParseError" in err and f"line {k + 1}" in err

    def test_escaping_linalg_error_exit_2(self, s1_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("poseonly.cli.solve_translations", fail)
        code, _, err = run(["solve", s1_file], capsys)
        assert code == 2
        assert "NumericalError" in err and "SVD did not converge" in err

    def test_unstorable_pose_exit_2_keeps_output(self, tmp_path, s1_file, capsys, monkeypatch):
        # A refinement that drives a center out of float range must not
        # leave a pose file the next stage refuses, nor clobber the old one.
        def diverge(init, *args, **kwargs):
            poses = list(init)
            poses[1] = po.CameraPose(poses[1].rotation, np.array([0.0, 0.0, 1.4e154]))
            return poses, None

        init = str(tmp_path / "init.poses")
        assert run(["solve", s1_file, "-o", init], capsys)[0] == 0
        out = tmp_path / "refined.poses"
        out.write_text("old\n")
        monkeypatch.setattr("poseonly.cli.pa_optimize", diverge)
        code, _, err = run(["pa", s1_file, "--init", init, "-o", str(out)], capsys)
        assert code == 2
        assert "DivergedNumerically" in err and "view 1" in err
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize("command", ["pa", "reconstruct", "eval"])
    @pytest.mark.parametrize("extra_views", [1, -1])
    def test_pose_count_mismatch_exit_1(self, tmp_path, s1_file, capsys, command, extra_views):
        problem = po.read_problem(s1_file)
        poses = list(problem.gt_poses)
        poses = poses + poses[:1] if extra_views > 0 else poses[:-1]
        pose_file = str(tmp_path / "mismatch.poses")
        po.write_poses(pose_file, poses)
        flag = "--init" if command == "pa" else "--poses"
        out = str(tmp_path / "out")
        args = [command, s1_file, flag, pose_file]
        if command != "eval":
            args += ["-o", out]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "InputError" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["1e300", "-1e300"])
    @pytest.mark.parametrize("tag", ["P", "G"])
    def test_overflowing_center_exit_1(self, tmp_path, s1_file, capsys, tag, value):
        # A center whose squared norm overflows stops every stage at the
        # reader, naming its line, before numpy can warn about overflow.
        problem, poses = Path(s1_file), tmp_path / "s1.poses"
        po.write_poses(poses, po.read_problem(problem).gt_poses)
        path = poses if tag == "P" else problem
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} 1 "))
        tokens = lines[k].split()
        tokens[6] = value
        lines[k] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        for args in (
            ["pa", str(problem), "--init", str(poses), "-o", out],
            ["reconstruct", str(problem), "--poses", str(poses), "-o", out],
            ["eval", str(problem), "--poses", str(poses)],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(args, capsys)
            assert code == 1
            assert f"ParseError: line {k + 1}:" in err and "Warning" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ["simulate", "--sigma", "nan"],
        ["simulate", "--sigma", "inf"],
        ["simulate", "--rotation-noise-deg", "inf"],
        ["simulate", "--point-cloud", "shell", "--shell-radius", "nan"],
        ["pa", "--max-iter", "-1"],
        ["pa", "--gradient-tol", "nan"],
        ["pa", "--step-tol=-1"],
        ["simulate", "--seed", "-1"],
    ])
    def test_invalid_setting_exit_1(self, tmp_path, s1_file, capsys, flags):
        command, *settings = flags
        out = str(tmp_path / "out")
        if command == "simulate":
            args = ["simulate", "--views", "5", "--points", "10", *settings, "-o", out]
        else:
            init = str(tmp_path / "init.poses")
            po.write_poses(init, po.read_problem(s1_file).gt_poses)
            args = ["pa", s1_file, "--init", init, *settings, "-o", out]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "ConfigInvalid" in err
        assert not os.path.exists(out)

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(["--help"], capsys)
        assert code == 0


class TestDeterminism:
    def test_eval_stdout_byte_identical_across_processes(self, tmp_path):
        problem = str(tmp_path / "det.po")

        def invoke(args):
            return subprocess.run(
                [sys.executable, "-m", "poseonly.cli", *args],
                capture_output=True,
                check=False,
            )

        result = invoke(
            ["simulate", "--motion", "generic_ring", "--views", "5", "--points", "15",
             "--sigma", "1e-3", "--seed", "9", "-o", problem]
        )
        assert result.returncode == 0, result.stderr
        assert invoke(["solve", problem]).returncode == 0
        poses = problem.replace(".po", ".poses")
        first = invoke(["eval", problem, "--poses", poses])
        second = invoke(["eval", problem, "--poses", poses])
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_eval_stdout_independent_of_run_size(self, tmp_path, capsys, monkeypatch):
        # 280 rows: the Gram's sums are grouped by the runs, which moves
        # sigma_2 in its 10th digit; the report holds only the digits the
        # eigensolve resolves, so it reads the same at every run size.
        problem = str(tmp_path / "runs.po")
        code, _, _ = run(["simulate", "--views", "8", "--points", "40", "--sigma", "1e-3",
                          "--seed", "1", "-o", problem], capsys)
        assert code == 0 and run(["solve", problem], capsys)[0] == 0
        outputs = []
        for run_rows in (1, 100, 1 << 40):
            monkeypatch.setattr(observations, "RUN_ROWS", run_rows)
            code, out, _ = run(
                ["eval", problem, "--poses", problem.replace(".po", ".poses")], capsys
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
