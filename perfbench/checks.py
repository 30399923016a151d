"""Correctness checks for benchmark outputs, computed apart from the program.

Nothing here imports ``poseonly``: the similarity fit, the rotation gauge,
the reprojection, and the pose-file, PLY and ``eval`` parsers are this
module's own, so a fault in the program's alignment or I/O code cannot
hide itself by agreeing with its own check. Every check raises
:class:`CheckFailed` with a message naming what disagreed.
"""

import math

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the independent reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- geometry ---------------------------------------------------------------


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to the rotation matrix it represents."""
    w, x, y, z = (float(c) for c in q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def fit_similarity(src, dst):
    """Scale, rotation and translation minimizing sum ||s R src + t - dst||^2.

    Horn's closed-form quaternion method: the rotation is the eigenvector
    of the largest eigenvalue of a 4x4 symmetric matrix built from the
    cross-covariance, so it is proper by construction. The scale is the
    least-squares optimum for that rotation. Returns (s, R, t, rms) where
    ``rms`` is the root mean square over points of the residual norm.
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    require(src.shape == dst.shape and len(src) >= 2,
            f"similarity fit needs matching point sets, got {src.shape} and {dst.shape}")
    p = src - src.mean(axis=0)
    q = dst - dst.mean(axis=0)
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = p.T @ q
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ])
    _, vectors = np.linalg.eigh(n)
    rotation = quat_to_matrix(vectors[:, -1])
    rotated = p @ rotation.T
    denom = float(np.sum(p * p))
    require(denom > 0.0, "similarity fit: source points coincide")
    scale = float(np.sum(q * rotated)) / denom
    translation = dst.mean(axis=0) - scale * (rotation @ src.mean(axis=0))
    residual = scale * (src @ rotation.T) + translation - dst
    rms = math.sqrt(float(np.mean(np.sum(residual * residual, axis=1))))
    return scale, rotation, translation, rms


def apply_similarity(fit, points) -> np.ndarray:
    scale, rotation, translation, _ = fit
    return scale * (np.asarray(points, dtype=float) @ rotation.T) + translation


def extent(gt_centers) -> float:
    """Scene extent: RMS distance of the true camera centers from their centroid."""
    c = np.asarray(gt_centers, dtype=float)
    return math.sqrt(float(np.mean(np.sum((c - c.mean(axis=0)) ** 2, axis=1))))


def rotation_error_deg(est_rotations, gt_rotations) -> float:
    """Mean geodesic angle after the best common world-frame correction.

    The correction Q maximizes trace(sum R_est^T R_gt Q^T) over proper
    rotations (orthogonal Procrustes), so a global gauge rotation costs
    nothing while per-view disagreement does.
    """
    est = np.asarray(est_rotations, dtype=float)
    gt = np.asarray(gt_rotations, dtype=float)
    m = np.einsum("kji,kjl->il", est, gt)
    u, _, vt = np.linalg.svd(m)
    d = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    q = u @ d @ vt
    rel = np.einsum("kij,jl,kml->kim", est, q, gt)
    # atan2 of the axis and trace parts keeps small angles exact, where
    # arccos of the trace alone bottoms out near 1e-8 rad.
    axis = np.stack([rel[:, 2, 1] - rel[:, 1, 2], rel[:, 0, 2] - rel[:, 2, 0],
                     rel[:, 1, 0] - rel[:, 0, 1]], axis=1)
    sin = np.linalg.norm(axis, axis=1) / 2.0
    cos = (np.trace(rel, axis1=1, axis2=2) - 1.0) / 2.0
    return float(np.degrees(np.arctan2(sin, cos)).mean())


def reprojection_rms(rotations, centers, points, obs_point, obs_view, obs_xy) -> float:
    """RMS over observations of the 2-vector reprojection error.

    Observation k sees point ``obs_point[k]`` from view ``obs_view[k]`` at
    normalized image position ``obs_xy[k]``. Raises CheckFailed if any
    observed point lies on or behind the camera that observes it.
    """
    r = np.asarray(rotations, dtype=float)[obs_view]
    c = np.asarray(centers, dtype=float)[obs_view]
    x = np.asarray(points, dtype=float)[obs_point]
    cam = np.einsum("kij,kj->ki", r, x - c)
    behind = int(np.sum(~(cam[:, 2] > 0.0)))
    require(behind == 0, f"{behind} observations lie behind their camera")
    err = cam[:, :2] / cam[:, 2:3] - np.asarray(obs_xy, dtype=float)
    return math.sqrt(float(np.mean(np.sum(err * err, axis=1))))


# --- checks -----------------------------------------------------------------


def check_gauge(centers, reference_view: int) -> None:
    """The reference center is exactly zero; the others stack to unit norm."""
    centers = np.asarray(centers, dtype=float)
    require(np.all(centers[reference_view] == 0.0),
            f"reference center {centers[reference_view]} is not exactly 0")
    others = np.delete(centers, reference_view, axis=0)
    norm = float(np.linalg.norm(others))
    require(abs(norm - 1.0) <= 1e-12, f"non-reference centers have norm {norm!r}, not 1")


def check_exact_scene(centers, points, gt_centers, gt_points, rel_tol: float) -> None:
    """Centers and points match the truth within ``rel_tol`` of the extent,
    after the similarity fitted on the centers alone."""
    fit = fit_similarity(centers, gt_centers)
    tol = rel_tol * extent(gt_centers)
    center_err = float(np.max(np.linalg.norm(
        apply_similarity(fit, centers) - gt_centers, axis=1)))
    require(center_err <= tol, f"center error {center_err!r} exceeds {tol!r}")
    point_err = float(np.max(np.linalg.norm(
        apply_similarity(fit, points) - gt_points, axis=1)))
    require(point_err <= tol, f"point error {point_err!r} exceeds {tol!r}")


def check_noisy_poses(rotations, centers, gt_rotations, gt_centers, sigma: float,
                      factor: float) -> float:
    """Aligned center RMS within ``factor * sigma * extent`` and mean rotation
    error within ``factor * sigma`` radians; returns the center RMS.

    A center error of e at scene extent L shifts a projection by about
    e / L, and a rotation error of a radians shifts it by about a, so both
    bounds say: no pose may be off by more than ``factor`` times the image
    noise, although every view sees hundreds of points.
    """
    rms = fit_similarity(centers, gt_centers)[3]
    bound = factor * sigma * extent(gt_centers)
    require(rms <= bound, f"aligned center RMS {rms!r} exceeds {bound!r}")
    rot = rotation_error_deg(rotations, gt_rotations)
    rot_bound = math.degrees(factor * sigma)
    require(rot <= rot_bound, f"rotation error {rot!r} deg exceeds {rot_bound!r}")
    return rms


def check_noisy_points(centers, points, gt_centers, gt_points, sigma: float,
                       factor: float) -> None:
    """Points, aligned by the similarity fitted on the centers, have RMS
    error within ``factor * sigma * extent``."""
    fit = fit_similarity(centers, gt_centers)
    err = apply_similarity(fit, points) - np.asarray(gt_points, dtype=float)
    rms = math.sqrt(float(np.mean(np.sum(err * err, axis=1))))
    bound = factor * sigma * extent(gt_centers)
    require(rms <= bound, f"aligned point RMS {rms!r} exceeds {bound!r}")


def check_cost_history(history, iterations: int) -> None:
    """The requested iterations ran, the cost never rose and ended lower."""
    history = [float(c) for c in history]
    require(len(history) == iterations + 1,
            f"cost history has {len(history)} entries, expected {iterations + 1}")
    require(all(math.isfinite(c) for c in history), "cost history is not finite")
    rises = [k for k in range(1, len(history)) if history[k] > history[k - 1]]
    require(not rises, f"cost rises at iterations {rises}")
    require(history[-1] < history[0],
            f"final cost {history[-1]!r} is not below the start {history[0]!r}")


# --- parsers ----------------------------------------------------------------


def parse_pose_file(text: str, n_views: int):
    """Rotations (n, 3, 3) and centers (n, 3) from ``POSEONLY-POSES 1`` text.

    Every view must appear exactly once with finite fields and a unit
    quaternion.
    """
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0] == "POSEONLY-POSES 1", "pose file header missing")
    require(lines[1].strip() == str(n_views), f"pose file declares {lines[1]!r} views")
    rotations = np.full((n_views, 3, 3), np.nan)
    centers = np.full((n_views, 3), np.nan)
    seen = set()
    for line in lines[2:]:
        tokens = line.split()
        require(len(tokens) == 9 and tokens[0] == "P", f"bad pose line {line!r}")
        view = int(tokens[1])
        require(0 <= view < n_views and view not in seen, f"bad or repeated view {view}")
        seen.add(view)
        values = np.array([float(t) for t in tokens[2:]])
        require(np.all(np.isfinite(values)), f"non-finite pose line {line!r}")
        require(abs(np.linalg.norm(values[:4]) - 1.0) <= 1e-9, f"non-unit quaternion {line!r}")
        rotations[view] = quat_to_matrix(values[:4])
        centers[view] = values[4:]
    require(len(seen) == n_views, f"pose file holds {len(seen)} of {n_views} views")
    return rotations, centers


def parse_ply(text: str, n_points: int, n_cameras: int):
    """Points (white) and camera centers (red) from the program's ASCII PLY."""
    lines = text.splitlines()
    require("end_header" in lines, "PLY header not terminated")
    body = lines.index("end_header") + 1
    require(f"element vertex {n_points + n_cameras}" in lines[:body],
            f"PLY does not declare {n_points + n_cameras} vertices")
    rows = [line.split() for line in lines[body:]]
    require(len(rows) == n_points + n_cameras,
            f"PLY holds {len(rows)} vertices, expected {n_points + n_cameras}")
    require(all(len(r) == 6 for r in rows), "PLY vertex line without 6 fields")
    xyz = np.array([[float(v) for v in r[:3]] for r in rows])
    colors = [tuple(r[3:]) for r in rows]
    require(all(c == ("255", "255", "255") for c in colors[:n_points]),
            "PLY point not white")
    require(all(c == ("255", "0", "0") for c in colors[n_points:]), "PLY camera not red")
    require(np.all(np.isfinite(xyz)), "PLY vertex not finite")
    return xyz[:n_points], xyz[n_points:]


def parse_eval(text: str) -> dict:
    """``key=value`` lines of the ``eval`` machine output."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        require(sep == "=" and key not in out, f"bad eval line {line!r}")
        out[key] = value
    return out
