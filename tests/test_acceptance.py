"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a PASS/FAIL line that the conftest terminal-summary
hook prints at the end of the run.
"""

import subprocess
import sys
import time

import numpy as np

import poseonly as po
from poseonly.pose_adjust import (
    PAConfig,
    PoseParameterization,
    pa_jacobian,
    pa_residuals,
    select_anchor_view,
)
from poseonly.translation_solver import disambiguate_sign

from conftest import make_rng, record_acceptance
from test_reconstruct import random_track_scene


def solve_centers(problem, **kwargs):
    system = po.assemble_system(
        problem.tracks, problem.rotations, problem.reference_view, **kwargs
    )
    return po.solve_translations(system).translations, system


def linear_solution_poses(problem):
    centers, _ = solve_centers(problem)
    return [po.CameraPose(R, c) for R, c in zip(problem.rotations, centers)]


def scene_extent(problem):
    centers = problem.gt_centers()
    diffs = centers[:, None, :] - centers[None, :, :]
    return float(np.sqrt((diffs**2).sum(-1)).max())


def test_criterion_01_exact_recovery():
    start = time.perf_counter()
    worst_center = worst_point = 0.0
    for seed in range(50):
        prob = po.generate_scene(
            po.SceneConfig(n_views=20, n_points=200, motion="generic_ring", seed=1000 + seed)
        )
        centers, system = solve_centers(prob)
        transform = po.align_similarity(centers, prob.gt_centers())
        worst_center = max(worst_center, transform.rms)
        poses = [po.CameraPose(R, c) for R, c in zip(prob.rotations, centers)]
        recon = po.reconstruct_all(prob.tracks, poses, bases=system.bases)
        assert len(recon.points) == 200
        est = np.stack([p.position_w for p in recon.points])
        gt = np.stack([prob.gt_points[p.track_id] for p in recon.points])
        aligned = transform.apply(est)
        point_rms = float(np.sqrt(((aligned - gt) ** 2).sum(axis=1).mean()))
        worst_point = max(worst_point, point_rms)
    elapsed = time.perf_counter() - start
    passed = worst_center < 1e-8 and worst_point < 1e-8 and elapsed < 5.0
    record_acceptance(
        1,
        "exact recovery on 50 generic scenes (n=20, m=200)",
        passed,
        f"center rms {worst_center:.2e}, point rms {worst_point:.2e}, {elapsed:.2f}s",
    )
    assert worst_center < 1e-8
    assert worst_point < 1e-8
    assert elapsed < 5.0


def test_criterion_02_rank_law():
    failures = []
    for n_views in (3, 5, 10, 20):
        for seed in range(5):
            prob = po.generate_scene(
                po.SceneConfig(n_views=n_views, n_points=2, seed=2000 + 10 * n_views + seed)
            )
            system = po.assemble_system(prob.tracks, prob.rotations, 0)
            s = np.linalg.svd(system.full_matrix().toarray(), compute_uv=False)
            rank = int(np.sum(s > 1e-10 * s[0]))
            if rank != 3 * n_views - 4:
                failures.append((n_views, seed, rank))
    record_acceptance(
        2,
        "rank of the full system is 3n-4 for n in {3,5,10,20}, m=2",
        not failures,
        f"failures: {failures}" if failures else "20/20 trials",
    )
    assert not failures


def test_criterion_03_collinear_immunity():
    linear_gaps, linear_rms, base_gaps = [], [], []
    for seed in range(20):
        prob = po.generate_scene(
            po.SceneConfig(n_views=6, n_points=25, motion="collinear", seed=3000 + seed)
        )
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        linear_gaps.append(po.spectral_gap(system))
        sol = po.solve_translations(system)
        linear_rms.append(po.aligned_center_rms(sol.translations, prob.gt_centers()))
        directions = po.directions_from_poses(prob.gt_poses)
        base = po.direction_translations(directions, prob.rotations, 0)
        base_gaps.append(base.singular_gap)
    passed = (
        min(linear_gaps) > 1e6
        and max(linear_rms) < 1e-8
        and max(base_gaps) < 100
    )
    record_acceptance(
        3,
        "collinear motion: pose-only system stays well-posed, direction baseline degenerates",
        passed,
        f"min gap {min(linear_gaps):.2e}, max rms {max(linear_rms):.2e}, "
        f"max baseline gap {max(base_gaps):.3g}",
    )
    assert min(linear_gaps) > 1e6
    assert max(linear_rms) < 1e-8
    assert max(base_gaps) < 100


def test_criterion_04_local_pure_rotation():
    worst_rms = worst_split = 0.0
    for seed in range(10):
        prob = po.generate_scene(
            po.SceneConfig(
                n_views=5, n_points=25, motion="local_pure_rotation", seed=4000 + seed
            )
        )
        centers, _ = solve_centers(prob)
        transform = po.align_similarity(centers, prob.gt_centers())
        worst_rms = max(worst_rms, transform.rms)
        aligned = transform.apply(centers)
        worst_split = max(worst_split, float(np.linalg.norm(aligned[0] - aligned[1])))
    passed = worst_rms < 1e-8 and worst_split < 1e-8
    record_acceptance(
        4,
        "co-located views solve exactly and land on one center",
        passed,
        f"rms {worst_rms:.2e}, split {worst_split:.2e}",
    )
    assert worst_rms < 1e-8
    assert worst_split < 1e-8


def test_criterion_05_noise_behavior():
    sigma = 1e-3
    rms_values, improved, iterations, extents = [], 0, [], []
    for seed in range(20):
        prob = po.generate_scene(
            po.SceneConfig(
                n_views=10, n_points=60, motion="generic_ring",
                seed=5000 + seed, obs_noise_sigma=sigma,
            )
        )
        init = linear_solution_poses(prob)
        recon_init = po.reconstruct_all(prob.tracks, init)
        rms_init = po.reprojection_rms(init, recon_init.position_by_track(), prob.tracks)
        refined, report = po.pa_optimize(init, prob.tracks, reference_view=0)
        recon_ref = po.reconstruct_all(prob.tracks, refined)
        rms_ref = po.reprojection_rms(refined, recon_ref.position_by_track(), prob.tracks)
        if rms_ref < rms_init:
            improved += 1
        iterations.append(report.iterations)
        centers = np.stack([p.center for p in init])
        rms_values.append(po.aligned_center_rms(centers, prob.gt_centers()))
        extents.append(scene_extent(prob))
    median_rms = float(np.median(rms_values))
    bound = 50 * sigma * min(extents)
    passed = median_rms < bound and improved >= 19 and max(iterations) <= 100
    record_acceptance(
        5,
        "graceful degradation at sigma=1e-3; refinement reduces reprojection",
        passed,
        f"median rms {median_rms:.3g} < {bound:.3g}, improved {improved}/20, "
        f"max iters {max(iterations)}",
    )
    assert median_rms < bound
    assert improved >= 19
    assert max(iterations) <= 100


def test_criterion_06_near_optimality_of_linear_solution():
    sigma = 1e-3
    ratios = []
    for seed in range(20):
        prob = po.generate_scene(
            po.SceneConfig(
                n_views=10, n_points=60, motion="generic_ring",
                seed=6000 + seed, obs_noise_sigma=sigma,
            )
        )
        init = linear_solution_poses(prob)
        recon_init = po.reconstruct_all(prob.tracks, init)
        rms_init = po.reprojection_rms(init, recon_init.position_by_track(), prob.tracks)
        refined, _ = po.pa_optimize(init, prob.tracks, reference_view=0)
        recon_ref = po.reconstruct_all(prob.tracks, refined)
        rms_ref = po.reprojection_rms(refined, recon_ref.position_by_track(), prob.tracks)
        ratios.append(rms_init / rms_ref)
    median_ratio = float(np.median(ratios))
    record_acceptance(
        6,
        "linear solution within 3x of refined reprojection error (median)",
        median_ratio <= 3.0,
        f"median ratio {median_ratio:.3f}",
    )
    assert median_ratio <= 3.0


def test_criterion_07_oracle_equivalences():
    from conftest import random_exact_pair

    # depth magnitude forms vs linear forms, 1000 random exact pairs
    rng = make_rng(7000)
    depth_ok = 0
    depth_total = 0
    for _ in range(1000):
        pose_i, pose_j, point, x_i, x_j = random_exact_pair(rng)
        pg = po.pair_geometry(pose_i, pose_j, x_i, x_j)
        if pg.theta <= 1e-8:
            continue
        mag = po.pair_depths(pg)
        lin = po.linear_depths(pg)
        depth_total += 1
        if (
            abs(mag[0] - lin[0]) <= 1e-12 * abs(lin[0])
            and abs(mag[1] - lin[1]) <= 1e-12 * abs(lin[1])
        ):
            depth_ok += 1
    depths_pass = depth_ok == depth_total and depth_total > 900

    # fused reconstruction vs independent triangulation, 1000 tracks
    rng = make_rng(7100)
    recon_worst = 0.0
    for _ in range(1000):
        poses, track, point = random_track_scene(rng)
        rotations = np.stack([p.rotation for p in poses])
        base = po.select_base_views(track, rotations)
        fused = po.reconstruct_point(track, base, poses)
        dlt = po.triangulate_dlt(track, poses)
        recon_worst = max(recon_worst, float(np.linalg.norm(fused.position_w - dlt)))
    recon_pass = recon_worst < 1e-9

    # analytic Jacobian vs central finite differences, 20 scenes
    jac_worst = 0.0
    for seed in range(20):
        prob = po.generate_scene(
            po.SceneConfig(n_views=5, n_points=8, seed=7200 + seed, obs_noise_sigma=1e-3)
        )
        bases = {t.track_id: po.select_base_views(t, prob.rotations) for t in prob.tracks}
        centers = prob.gt_centers()
        anchor = select_anchor_view(prob.tracks, prob.n_views, 0, centers)
        param = PoseParameterization(
            prob.n_views, 0, anchor, True, float(np.linalg.norm(centers[anchor]))
        )
        J = pa_jacobian(prob.gt_poses, prob.tracks, bases, param).toarray()
        Rs = np.stack([p.rotation for p in prob.gt_poses])
        Cs = centers.copy()
        h = 1e-6

        def res_at(delta):
            Rs2, Cs2 = param.apply(Rs, Cs, delta)
            poses2 = [po.CameraPose(R, c) for R, c in zip(Rs2, Cs2)]
            r, _ = pa_residuals(poses2, prob.tracks, bases, on_degenerate="drop")
            return r

        J_fd = np.zeros_like(J)
        for k in range(param.n_params):
            step = np.zeros(param.n_params)
            step[k] = h
            J_fd[:, k] = (res_at(step) - res_at(-step)) / (2 * h)
        mask = np.abs(J_fd) > 1e-8
        # Absolute allowance: central differences round at
        # eps * |intermediate| / h, and the homogeneous coordinates
        # reach a few tens here, so the provable floor is ~4e-9.
        excess = np.abs(J - J_fd)[mask] - (1e-5 * np.abs(J_fd)[mask] + 4e-9)
        jac_worst = max(jac_worst, float(excess.max(initial=-np.inf)))
    jac_pass = jac_worst <= 0

    passed = depths_pass and recon_pass and jac_pass
    record_acceptance(
        7,
        "oracle equivalences: depths, triangulation, Jacobian",
        passed,
        f"depths {depth_ok}/{depth_total}, recon gap {recon_worst:.2e}, "
        f"jac excess {jac_worst:.2e}",
    )
    assert depths_pass
    assert recon_pass
    assert jac_pass


def test_criterion_08_invariances_and_sign():
    # gauge: reference view change
    gauge_worst = 0.0
    for seed in range(5):
        prob = po.generate_scene(po.SceneConfig(n_views=8, n_points=30, seed=8000 + seed))
        c_ref0, _ = solve_centers(prob)
        system = po.assemble_system(prob.tracks, prob.rotations, 3)
        c_ref3 = po.solve_translations(system).translations
        gauge_worst = max(gauge_worst, po.align_similarity(c_ref3, c_ref0).rms)

    # global scale
    scale_worst = 0.0
    for seed in range(5):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=20, seed=8100 + seed))
        sol_a, _ = solve_centers(prob)
        alpha = 2.5
        scaled = po.problem_from_poses(
            [po.CameraPose(p.rotation, alpha * p.center) for p in prob.gt_poses],
            alpha * prob.gt_points,
        )
        sol_b, _ = solve_centers(scaled)
        scale_worst = max(scale_worst, float(np.max(np.abs(sol_a - sol_b))))

    # global rigid transform
    rigid_worst = 0.0
    Q = po.geometry.rotation_about(np.array([1.0, -1.0, 2.0]) / np.sqrt(6.0), 0.8)
    shift = np.array([5.0, -3.0, 1.0])
    for seed in range(5):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=20, seed=8200 + seed))
        sol_a, _ = solve_centers(prob)
        moved = po.problem_from_poses(
            [po.CameraPose(p.rotation @ Q.T, Q @ p.center + shift) for p in prob.gt_poses],
            prob.gt_points @ Q.T + shift,
        )
        sol_b, _ = solve_centers(moved)
        rigid_worst = max(rigid_worst, po.align_similarity(sol_b, sol_a).rms)

    # sign disambiguation: 50 scenes x (solved + hand-negated) = 100 trials
    sign_ok = 0
    for seed in range(50):
        prob = po.generate_scene(po.SceneConfig(n_views=6, n_points=20, seed=8300 + seed))
        system = po.assemble_system(prob.tracks, prob.rotations, 0)
        sol = po.solve_translations(system)

        def cheirality_positive(t):
            return all(
                float(a_vec @ (system.rotations[right] @ (t[left] - t[right]))) > 0
                for left, right, a_vec in system.sign_probes
            )

        if cheirality_positive(sol.translations):
            sign_ok += 1
        negated, _ = disambiguate_sign(-sol.translations.copy(), system)
        if cheirality_positive(negated):
            sign_ok += 1

    passed = (
        gauge_worst < 1e-8
        and scale_worst < 1e-8
        and rigid_worst < 1e-8
        and sign_ok == 100
    )
    record_acceptance(
        8,
        "gauge/scale/rigid invariance and sign disambiguation",
        passed,
        f"gauge {gauge_worst:.2e}, scale {scale_worst:.2e}, rigid {rigid_worst:.2e}, "
        f"sign {sign_ok}/100",
    )
    assert gauge_worst < 1e-8
    assert scale_worst < 1e-8
    assert rigid_worst < 1e-8
    assert sign_ok == 100


def test_criterion_09_byte_deterministic_eval(tmp_path):
    def invoke(args):
        return subprocess.run(
            [sys.executable, "-m", "poseonly.cli", *args],
            capture_output=True,
            check=False,
        )

    problem = str(tmp_path / "det.po")
    assert (
        invoke(
            ["simulate", "--motion", "generic_ring", "--views", "6", "--points", "20",
             "--sigma", "1e-3", "--seed", "99", "-o", problem]
        ).returncode
        == 0
    )
    assert invoke(["solve", problem]).returncode == 0
    poses = problem.replace(".po", ".poses")
    first = invoke(["eval", problem, "--poses", poses])
    second = invoke(["eval", problem, "--poses", poses])
    passed = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    record_acceptance(
        9,
        "eval output byte-identical across two runs",
        passed,
        f"{len(first.stdout)} bytes",
    )
    assert passed


def test_criterion_10_scaling_smoke():
    prob = po.generate_scene(
        po.SceneConfig(
            n_views=100, n_points=5000, motion="generic_ring",
            seed=10_000, obs_noise_sigma=1e-3,
        )
    )
    start = time.perf_counter()
    system = po.assemble_system(prob.tracks, prob.rotations, 0)
    sol = po.solve_translations(system)
    t_linear = time.perf_counter() - start

    init = [po.CameraPose(R, c) for R, c in zip(prob.rotations, sol.translations)]
    start = time.perf_counter()
    # Capped iteration budget: understates the full optimization time, so
    # the linear-solve <= 1/5 bound below is conservative.
    _, report = po.pa_optimize(init, prob.tracks, PAConfig(max_iter=8), reference_view=0)
    t_refine = time.perf_counter() - start

    passed = t_linear < 60.0 and t_linear <= t_refine / 5.0
    record_acceptance(
        10,
        "n=100, m=5000: linear solve < 60 s and <= 1/5 of refinement time",
        passed,
        f"linear {t_linear:.2f}s, refinement {t_refine:.2f}s "
        f"({report.iterations} iterations)",
    )
    assert t_linear < 60.0
    assert t_linear <= t_refine / 5.0
