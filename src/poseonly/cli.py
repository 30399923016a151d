"""Command-line driver wiring the pipeline stages into subcommands.

Stages compose through files only: ``simulate`` writes a problem,
``solve`` turns it into estimated poses, ``pa`` refines them,
``reconstruct`` turns poses into a point cloud, ``eval`` scores any pose
file against the problem, and ``baseline`` runs the direction-based
least-squares solver for comparison.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure
(e.g. RankDeficient, InsufficientParallax, or a linear-algebra routine
that did not converge); the error name is printed on stderr.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, evaluate, problem_io, simulate
from .errors import InputError, NumericalError, RankDeficient
from .geometry import CameraPose
from .pose_adjust import PAConfig, pa_optimize
from .reconstruct import reconstruct_all
from .translation_solver import assemble_system, solve_translations


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 1 and keep 2
    # reserved for numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="poseonly",
        description="Pose-only camera translation solving, refinement and "
        "analytic scene reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic problem file")
    sim.add_argument("--motion", default="generic_ring", choices=simulate.MOTIONS)
    sim.add_argument("--views", type=int, required=True)
    sim.add_argument("--points", type=int, required=True)
    sim.add_argument("--sigma", type=float, default=0.0,
                     help="observation noise std in normalized coordinates "
                     "(1e-3 is about 1 px at focal length 1000)")
    sim.add_argument("--rotation-noise-deg", type=float, default=0.0,
                     help="perturb solver-input rotations by this fixed angle")
    sim.add_argument("--point-cloud", default="box", choices=simulate.POINT_CLOUDS)
    sim.add_argument("--shell-radius", type=float, default=2.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="solve global translations (linear)")
    solve.add_argument("problem")
    solve.add_argument("-o", "--output", default=None,
                       help="poses output (default: <problem>.poses)")

    pa = sub.add_parser("pa", help="pose-only nonlinear refinement")
    pa.add_argument("problem")
    pa.add_argument("--init", required=True, help="initial poses file")
    pa.add_argument("-o", "--output", default=None,
                    help="poses output (default: <problem>.pa.poses)")
    pa.add_argument("--max-iter", type=int, default=100)
    pa.add_argument("--gradient-tol", type=float, default=1e-10)
    pa.add_argument("--step-tol", type=float, default=1e-12)
    pa.add_argument("--rotations-frozen", action="store_true",
                    help="hold rotations at their input values")

    rec = sub.add_parser("reconstruct", help="analytic scene reconstruction")
    rec.add_argument("problem")
    rec.add_argument("--poses", required=True)
    rec.add_argument("-o", "--output", default=None,
                     help="PLY output (default: <problem>.ply)")
    rec.add_argument("--points-out", default=None,
                     help="optional text output: track_id x y z per line")
    rec.add_argument("--min-track-len", type=int, default=2)

    base = sub.add_parser("baseline", help="direction-based least-squares solver")
    base.add_argument("problem")
    base.add_argument("-o", "--output", default=None,
                      help="poses output (default: <problem>.baseline.poses)")

    ev = sub.add_parser("eval", help="score estimated poses against a problem")
    ev.add_argument("problem")
    ev.add_argument("--poses", required=True)
    ev.add_argument("--min-track-len", type=int, default=2)
    ev.add_argument("--timings", action="store_true",
                    help="include runtime lines in the machine output "
                    "(non-deterministic)")
    return parser


def _default_out(path, suffix):
    return str(Path(path).with_suffix(suffix))


def _read_poses_for(problem, path):
    poses = problem_io.read_poses(path)
    if len(poses) != problem.n_views:
        raise InputError(
            f"{path} holds {len(poses)} poses but the problem has {problem.n_views} views"
        )
    return poses


def _cmd_simulate(args) -> int:
    config = simulate.SceneConfig(
        n_views=args.views,
        n_points=args.points,
        motion=args.motion,
        point_cloud=args.point_cloud,
        shell_radius=args.shell_radius,
        obs_noise_sigma=args.sigma,
        rotation_noise_deg=args.rotation_noise_deg,
        seed=args.seed,
    )
    problem = simulate.generate_scene(config)
    problem_io.write_problem(args.output, problem)
    print(
        f"wrote {args.output}: {problem.n_views} views, "
        f"{len(problem.tracks)} tracks, {problem.observation_count()} observations",
        file=sys.stderr,
    )
    return 0


def _cmd_solve(args) -> int:
    problem = problem_io.read_problem(args.problem)
    start = time.perf_counter()
    system = assemble_system(problem.tracks, problem.rotations, problem.reference_view)
    solution = solve_translations(system)
    elapsed = (time.perf_counter() - start) * 1e3
    out = args.output or _default_out(args.problem, ".poses")
    poses = [
        CameraPose(R, c) for R, c in zip(problem.rotations, solution.translations)
    ]
    problem_io.write_poses(out, poses)
    s1, s2 = solution.spectrum[0], solution.spectrum[1]
    print(
        f"wrote {out}: sign votes {solution.sign_votes}, "
        f"spectrum [{s1:.3e}, {s2:.3e}, ...], solve {elapsed:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_pa(args) -> int:
    problem = problem_io.read_problem(args.problem)
    init = _read_poses_for(problem, args.init)
    config = PAConfig(
        max_iter=args.max_iter,
        gradient_tol=args.gradient_tol,
        step_tol=args.step_tol,
        refine_rotations=not args.rotations_frozen,
    )
    poses, report = pa_optimize(
        init, problem.tracks, config, reference_view=problem.reference_view
    )
    out = args.output or _default_out(args.problem, ".pa.poses")
    problem_io.write_poses(out, poses)
    print(
        f"wrote {out}: {report.iterations} iterations, cost "
        f"{report.initial_cost:.6e} -> {report.final_cost:.6e}, "
        f"termination {report.termination}",
        file=sys.stderr,
    )
    return 0


def _cmd_reconstruct(args) -> int:
    problem = problem_io.read_problem(args.problem)
    poses = _read_poses_for(problem, args.poses)
    result = reconstruct_all(problem.tracks, poses, min_track_len=args.min_track_len)
    out = args.output or _default_out(args.problem, ".ply")
    centers = np.stack([p.center for p in poses])
    problem_io.export_ply(result.points, centers, out)
    if args.points_out:
        problem_io.write_points(args.points_out, result.points)
    counts = result.counts
    print(
        f"wrote {out}: {len(result.points)} points accepted, rejected {counts}",
        file=sys.stderr,
    )
    return 0


def _cmd_baseline(args) -> int:
    problem = problem_io.read_problem(args.problem)
    if problem.gt_poses is None:
        raise InputError(
            "baseline needs ground-truth poses (G lines) to form relative "
            "directions"
        )
    directions = baselines.directions_from_poses(problem.gt_poses)
    solution = baselines.direction_translations(
        directions, problem.rotations, problem.reference_view
    )
    if solution.singular_gap < 100.0:
        raise RankDeficient(
            f"direction system singular gap {solution.singular_gap:.3g} < 100; "
            f"camera placement along the motion line is unconstrained"
        )
    out = args.output or _default_out(args.problem, ".baseline.poses")
    poses = [
        CameraPose(R, c) for R, c in zip(problem.rotations, solution.translations)
    ]
    problem_io.write_poses(out, poses)
    print(f"wrote {out}: spectrum gap {solution.singular_gap:.3e}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    problem = problem_io.read_problem(args.problem)
    poses = _read_poses_for(problem, args.poses)
    report = evaluate.evaluate_poses(problem, poses, min_track_len=args.min_track_len)
    print(evaluate.format_report(report), file=sys.stderr)
    for line in evaluate.report_lines(report, include_timings=args.timings):
        print(line)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "pa": _cmd_pa,
    "reconstruct": _cmd_reconstruct,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return _COMMANDS[args.command](args)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LinAlgError: {exc}") from exc
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
