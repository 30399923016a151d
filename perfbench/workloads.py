"""The benchmark's three workloads.

Each workload makes its inputs from the seed in a separate process
(``generate``), then, in the timing process, loads them (``load``), warms
up on a smaller input of the same kind (``warm_up``) and runs one scene
through its pipeline per ``run`` call. ``run`` returns the scene time,
the time to the final poses and whatever ``check`` needs to compare
against ground truth; checks run outside the timed region.

All three use the generic ring: a closed loop of cameras around a box of
points seen by every view, the configuration the acceptance suite uses
for timing and accuracy.
"""

import contextlib
import io
import pickle

import numpy as np

import checks
from spans import clock
from poseonly import cli, pose_adjust, problem_io, reconstruct, simulate, translation_solver
from poseonly.geometry import CameraPose

SIGMA = 1e-3  # observation noise of the noisy workloads, about 1 px at f = 1000


def _scene(n_views, n_points, seed, sigma=0.0):
    config = simulate.SceneConfig(n_views=n_views, n_points=n_points,
                                  obs_noise_sigma=sigma, seed=seed)
    return simulate.generate_scene(config)


def _save(path, obj):
    with open(path, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _linear_poses(problem):
    system = translation_solver.assemble_system(
        problem.tracks, problem.rotations, problem.reference_view)
    solution = translation_solver.solve_translations(system)
    return system, [CameraPose(R, c) for R, c in zip(problem.rotations, solution.translations)]


def _points_by_track(recon, n_tracks):
    checks.require(not recon.rejected, f"{len(recon.rejected)} tracks rejected")
    ids = [p.track_id for p in recon.points]
    checks.require(ids == list(range(n_tracks)), "reconstructed track ids are not 0..m-1")
    return np.stack([p.position_w for p in recon.points])


def _observation_arrays(tracks):
    point = np.concatenate([np.full(len(t), t.track_id) for t in tracks])
    view = np.concatenate([t.view_ids for t in tracks])
    xy = np.concatenate([t.points for t in tracks])
    return point, view, xy


class SmallScenes:
    """50 exact scenes of 20 views x 200 points, solved in memory."""

    name = "small_scenes"
    min_ops = 1
    n_scenes, n_views, n_points = 50, 20, 200

    def generate(self, seed, workdir):
        _save(workdir / "scenes.pkl", [
            _scene(self.n_views, self.n_points, (seed << 16) + k)
            for k in range(self.n_scenes)
        ])

    def load(self, workdir):
        self.scenes = _load(workdir / "scenes.pkl")

    def warm_up(self):
        for problem in self.scenes[:3]:
            self.check(problem, self.run(problem)[2])

    def round(self):
        return self.scenes

    def run(self, problem):
        start = clock()
        system = translation_solver.assemble_system(
            problem.tracks, problem.rotations, problem.reference_view)
        solution = translation_solver.solve_translations(system)
        poses_done = clock()
        poses = [CameraPose(R, c) for R, c in zip(problem.rotations, solution.translations)]
        recon = reconstruct.reconstruct_all(problem.tracks, poses)
        end = clock()
        return end - start, poses_done - start, (solution.translations, recon)

    def check(self, problem, output):
        centers, recon = output
        checks.check_gauge(centers, problem.reference_view)
        points = _points_by_track(recon, len(problem.tracks))
        checks.check_exact_scene(centers, points, problem.gt_centers(),
                                 problem.gt_points, rel_tol=1e-8)


class Refine:
    """One noisy 100 x 1000 scene: linear solve, a fixed number of pa
    iterations, reconstruction."""

    name = "refine"
    min_ops = 1
    n_views, n_points, iterations = 100, 1000, 3
    # Tolerances of 0 never stop the iteration early, so every scene does
    # the same number of Jacobians and factorizations.
    config = pose_adjust.PAConfig(max_iter=iterations, gradient_tol=0.0, step_tol=0.0)

    def generate(self, seed, workdir):
        _save(workdir / "scenes.pkl", {
            "scene": _scene(self.n_views, self.n_points, seed, SIGMA),
            "warmup": _scene(20, 100, seed, SIGMA),
        })

    def load(self, workdir):
        inputs = _load(workdir / "scenes.pkl")
        self.problem, self.warmup = inputs["scene"], inputs["warmup"]
        self.observations = _observation_arrays(self.problem.tracks)

    def warm_up(self):
        _, poses = _linear_poses(self.warmup)
        refined, _ = pose_adjust.pa_optimize(
            poses, self.warmup.tracks,
            pose_adjust.PAConfig(max_iter=1, gradient_tol=0.0, step_tol=0.0),
            reference_view=self.warmup.reference_view)
        reconstruct.reconstruct_all(self.warmup.tracks, refined)

    def round(self):
        return [self.problem]

    def run(self, problem):
        start = clock()
        _, poses = _linear_poses(problem)
        refined, report = pose_adjust.pa_optimize(
            poses, problem.tracks, self.config, reference_view=problem.reference_view)
        poses_done = clock()
        recon = reconstruct.reconstruct_all(problem.tracks, refined)
        end = clock()
        return end - start, poses_done - start, (refined, report, recon)

    def check(self, problem, output):
        refined, report, recon = output
        checks.require(report.iterations == self.iterations,
                       f"pa ran {report.iterations} of {self.iterations} iterations")
        checks.check_cost_history(report.cost_history, self.iterations)
        rotations = np.stack([p.rotation for p in refined])
        centers = np.stack([p.center for p in refined])
        # pa makes centers less accurate than its linear input on noisy
        # data, so the bound is an absolute one, not "better than before".
        checks.check_noisy_poses(rotations, centers, problem.gt_rotations(),
                                 problem.gt_centers(), SIGMA, factor=2.0)
        points = _points_by_track(recon, len(problem.tracks))
        rms = checks.reprojection_rms(rotations, centers, points, *self.observations)
        checks.require(rms <= 3.0 * SIGMA, f"reprojection RMS {rms!r} exceeds 3 sigma")

    def layer_calls(self, problem):
        """One timed public call each of pa_residuals and pa_jacobian at the
        linear poses, outside any scene."""
        system, poses = _linear_poses(problem)
        centers = np.stack([p.center for p in poses])
        anchor = pose_adjust.select_anchor_view(
            problem.tracks, problem.n_views, problem.reference_view, centers)
        param = pose_adjust.PoseParameterization(
            problem.n_views, problem.reference_view, anchor, True,
            float(np.linalg.norm(centers[anchor])))
        start = clock()
        pose_adjust.pa_residuals(poses, problem.tracks, system.bases)
        residuals_s = clock() - start
        start = clock()
        jacobian = pose_adjust.pa_jacobian(poses, problem.tracks, system.bases, param)
        jacobian_s = clock() - start
        return {"pose_adjust.pa_residuals_s": residuals_s,
                "pose_adjust.pa_jacobian_s": jacobian_s,
                "pose_adjust.jacobian_nnz": jacobian.nnz}


class LargeCli:
    """One noisy 100 x 5000 scene through the CLI's solve, reconstruct and
    eval subcommands, on files."""

    name = "large_cli"
    # eval's stdout is compared between passes, so every run makes two.
    min_ops = 2
    n_views, n_points = 100, 5000

    def generate(self, seed, workdir):
        problem = _scene(self.n_views, self.n_points, seed, SIGMA)
        problem_io.write_problem(workdir / "large.po", problem)
        problem_io.write_problem(workdir / "warmup.po", _scene(10, 100, seed, SIGMA))
        _save(workdir / "truth.pkl", {
            "rotations": problem.gt_rotations(), "centers": problem.gt_centers(),
            "points": problem.gt_points, "reference_view": problem.reference_view,
        })

    def load(self, workdir):
        self.workdir = workdir
        self.truth = _load(workdir / "truth.pkl")
        self.eval_stdout = None

    def _files(self, stem):
        d = self.workdir
        return d / f"{stem}.po", d / f"{stem}.poses", d / f"{stem}.ply"

    def warm_up(self):
        self.run(self._files("warmup"))

    def round(self):
        return [self._files("large")]

    def run(self, files):
        problem, poses, ply = (str(f) for f in files)
        sink, eval_out = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stderr(sink):
            with contextlib.redirect_stdout(sink):
                solve_rc = cli.run_cli(["solve", problem, "-o", poses])
                poses_done = clock()
                rec_rc = cli.run_cli(["reconstruct", problem, "--poses", poses, "-o", ply])
            with contextlib.redirect_stdout(eval_out):
                eval_rc = cli.run_cli(["eval", problem, "--poses", poses])
        end = clock()
        return end - start, poses_done - start, ((solve_rc, rec_rc, eval_rc),
                                                 eval_out.getvalue())

    def check(self, files, output):
        codes, eval_stdout = output
        checks.require(codes == (0, 0, 0), f"subcommand exit codes {codes}")
        _, pose_path, ply_path = files
        truth = self.truth
        rotations, centers = checks.parse_pose_file(pose_path.read_text(), self.n_views)
        checks.check_gauge(centers, truth["reference_view"])
        rms = checks.check_noisy_poses(rotations, centers, truth["rotations"],
                                       truth["centers"], SIGMA, factor=2.0)
        points, cameras = checks.parse_ply(ply_path.read_text(), self.n_points, self.n_views)
        checks.require(np.array_equal(cameras, centers), "PLY cameras differ from the poses")
        checks.check_noisy_points(centers, points, truth["centers"], truth["points"],
                                  SIGMA, factor=2.0)
        reported = float(checks.parse_eval(eval_stdout)["translation_rms_after_alignment"])
        checks.require(abs(reported - rms) <= 1e-9 * abs(rms),
                       f"eval translation RMS {reported!r} differs from {rms!r}")
        if self.eval_stdout is None:
            self.eval_stdout = eval_stdout
        checks.require(eval_stdout == self.eval_stdout, "eval stdout differs between passes")


WORKLOADS = {w.name: w for w in (SmallScenes, Refine, LargeCli)}
