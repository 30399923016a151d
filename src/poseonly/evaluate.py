"""Gauge-aware evaluation: similarity alignment and metric reports.

Recovered poses are only defined up to a global similarity (rotation,
translation, scale), so every comparison against ground truth first fits
the least-squares similarity mapping the estimate onto the truth and
reports residuals after that alignment.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import TooFewPoints
from .geometry import rotation_geodesic_deg
from .pose_adjust import reprojection_stats
from .reconstruct import reconstruct_all
from .translation_solver import assemble_system, spectral_gap


@dataclass(frozen=True)
class SimilarityTransform:
    """Least-squares similarity mapping source points onto targets.

    ``degenerate`` flags source sets (collinear or coincident) whose
    rotation is not uniquely determined; the returned transform is still
    the best fit.
    """

    scale: float
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    rms: float
    degenerate: bool

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(points) @ self.rotation.T) + self.translation


def align_similarity(estimated: np.ndarray, gt: np.ndarray) -> SimilarityTransform:
    """Umeyama fit of scale, rotation and translation minimizing
    ``sum || s R p + t - q ||^2`` over the correspondences."""
    est = np.asarray(estimated, dtype=float).reshape(-1, 3)
    ref = np.asarray(gt, dtype=float).reshape(-1, 3)
    if est.shape != ref.shape:
        raise ValueError("point sets must have matching shapes")
    n = len(est)
    if n < 2:
        raise TooFewPoints(f"alignment needs at least 2 points, got {n}")

    mu_e = est.mean(axis=0)
    mu_r = ref.mean(axis=0)
    de = est - mu_e
    dr = ref - mu_r
    cov = dr.T @ de / n
    U, S, Vt = np.linalg.svd(cov)
    d = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        d[2] = -1.0
    R = U @ np.diag(d) @ Vt
    var_e = float((de * de).sum()) / n
    degenerate = bool(S[1] <= 1e-9 * max(S[0], 1e-300)) or var_e <= 1e-300
    scale = float(S @ d) / var_e if var_e > 1e-300 else 1.0
    t = mu_r - scale * (R @ mu_e)
    res = scale * (est @ R.T) + t - ref
    rms = float(np.sqrt((res * res).sum(axis=1).mean()))
    return SimilarityTransform(scale, R, t, rms, degenerate)


def aligned_center_rms(est_centers, gt_centers) -> float:
    return align_similarity(est_centers, gt_centers).rms


def rotation_gauge(est_rotations, gt_rotations) -> np.ndarray:
    """Best world-frame correction Q aligning estimated rotations to truth.

    Minimizes ``sum || R_est Q - R_gt ||_F^2`` (orthogonal Procrustes);
    independent of camera centers, so it stays well-defined on collinear
    trajectories where the center-based alignment is degenerate.
    """
    M = np.zeros((3, 3))
    for R_est, R_gt in zip(est_rotations, gt_rotations):
        M += R_est.T @ R_gt
    U, _, Vt = np.linalg.svd(M)
    d = np.ones(3)
    if np.linalg.det(U @ Vt) < 0:
        d[2] = -1.0
    return U @ np.diag(d) @ Vt


def mean_rotation_error_deg(est_rotations, gt_rotations) -> float:
    Q = rotation_gauge(est_rotations, gt_rotations)
    angles = [
        rotation_geodesic_deg(R_est @ Q, R_gt)
        for R_est, R_gt in zip(est_rotations, gt_rotations)
    ]
    return float(np.mean(angles))


@dataclass
class EvalReport:
    """Metrics of one estimated-pose set against a problem.

    Alignment metrics are None when the problem carries no ground truth.
    ``runtime_ms`` is diagnostic only and excluded from the deterministic
    machine output unless explicitly requested.
    """

    n_views: int
    n_tracks: int
    n_obs: int
    reference_view: int
    singular_gap: float
    reprojection_rms: float
    cheirality_violations: int
    points_accepted: int
    rejected_points: dict
    translation_rms_after_alignment: float | None = None
    rotation_error_deg_mean: float | None = None
    alignment_degenerate: bool | None = None
    runtime_ms: dict = field(default_factory=dict)


def evaluate_poses(problem, est_poses, min_track_len: int = 2) -> EvalReport:
    """Full evaluation of estimated poses on a problem.

    Reconstructs the scene analytically from the estimated poses and
    scores the reprojection of those points through the same poses; the
    identical code path serves every solver under comparison so errors
    are regularized uniformly.
    """
    timings = {}

    start = time.perf_counter()
    # The system is freed here, before reconstruction's transient peak.
    singular_gap = spectral_gap(
        assemble_system(problem.tracks, problem.rotations, problem.reference_view)
    )
    timings["assemble_spectrum"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    recon = reconstruct_all(problem.tracks, est_poses, min_track_len=min_track_len)
    timings["reconstruct"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    rms, violations, _ = reprojection_stats(
        est_poses, recon.position_by_track(), problem.tracks
    )
    timings["reprojection"] = (time.perf_counter() - start) * 1e3

    report = EvalReport(
        n_views=problem.n_views,
        n_tracks=len(problem.tracks),
        n_obs=problem.observation_count(),
        reference_view=problem.reference_view,
        singular_gap=singular_gap,
        reprojection_rms=rms,
        cheirality_violations=violations,
        points_accepted=len(recon.points),
        rejected_points=recon.counts,
        runtime_ms=timings,
    )

    if problem.gt_poses is not None:
        start = time.perf_counter()
        est_centers = np.stack([p.center for p in est_poses])
        transform = align_similarity(est_centers, problem.gt_centers())
        report.translation_rms_after_alignment = transform.rms
        report.alignment_degenerate = transform.degenerate
        report.rotation_error_deg_mean = mean_rotation_error_deg(
            [p.rotation for p in est_poses], problem.gt_rotations()
        )
        timings["align"] = (time.perf_counter() - start) * 1e3
    return report


def report_lines(report: EvalReport, include_timings: bool = False) -> list:
    """Flat ``key=value`` lines, deterministic for identical inputs.

    Timings vary run to run, so they are emitted only on request.
    """
    lines = [
        f"n_views={report.n_views}",
        f"n_tracks={report.n_tracks}",
        f"n_obs={report.n_obs}",
        f"reference_view={report.reference_view}",
        # The eigensolve resolves sigma_2 to about 1e-10 of itself, and its
        # last digits move with the order of the Gram's sums.
        f"singular_gap={report.singular_gap:.6g}",
        f"reprojection_rms={report.reprojection_rms!r}",
        f"cheirality_violations={report.cheirality_violations}",
        f"points_accepted={report.points_accepted}",
    ]
    for reason in sorted(report.rejected_points):
        lines.append(f"points_rejected_{reason}={report.rejected_points[reason]}")
    if report.translation_rms_after_alignment is not None:
        lines.append(
            f"translation_rms_after_alignment={report.translation_rms_after_alignment!r}"
        )
        lines.append(f"rotation_error_deg_mean={report.rotation_error_deg_mean!r}")
        lines.append(f"alignment_degenerate={int(bool(report.alignment_degenerate))}")
    if include_timings:
        for stage in sorted(report.runtime_ms):
            lines.append(f"runtime_ms_{stage}={report.runtime_ms[stage]!r}")
    return lines


def format_report(report: EvalReport) -> str:
    """Human-readable table, timings included."""
    rows = [("views", report.n_views), ("tracks", report.n_tracks),
            ("observations", report.n_obs),
            ("reference view", report.reference_view),
            ("singular gap (s2/s1)", f"{report.singular_gap:.6g}"),
            ("reprojection rms", f"{report.reprojection_rms:.6g}"),
            ("cheirality violations", report.cheirality_violations),
            ("points accepted", report.points_accepted)]
    for reason, count in sorted(report.rejected_points.items()):
        rows.append((f"rejected: {reason}", count))
    if report.translation_rms_after_alignment is not None:
        rows.append(("translation rms (aligned)",
                     f"{report.translation_rms_after_alignment:.6g}"))
        rows.append(("rotation error mean (deg)",
                     f"{report.rotation_error_deg_mean:.6g}"))
        if report.alignment_degenerate:
            rows.append(("alignment", "degenerate (collinear centers)"))
    for stage, ms in sorted(report.runtime_ms.items()):
        rows.append((f"runtime {stage} (ms)", f"{ms:.2f}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
