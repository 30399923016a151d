"""Camera, track and pair types, vector and rotation helpers, and the
two-view pose-only oracle.

The multi-view constraint lives in the batched anchored-depth kernel of
:mod:`poseonly.observations`; the two-view quantities here
(:class:`PairGeometry`, :func:`pair_depths`, :func:`linear_depths`) are
the independent oracle its tests check it against.

Conventions used throughout the package:

* A camera pose is a world-to-camera rotation ``R`` plus the camera
  center ``c`` expressed in the world frame; a world point maps into the
  camera frame as ``X_cam = R @ (X_world - c)``.
* A normalized image point is a plain ``(x, y)`` array on the ``z = 1``
  plane; the third homogeneous coordinate is always exactly 1 (see
  :func:`homogenize`) and is never stored.
* For a view pair ``(i, j)`` the relative pose is
  ``R_ij = R_j @ R_i.T`` and ``t_ij = R_j @ (c_i - c_j)`` (pose of view
  i expressed in view j's frame).
* The parallax indicator of a pair is
  ``theta = || X_j x (R_ij @ X_i) ||`` with both rays homogenized; it is
  zero exactly when the pair is related by a pure rotation.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NonPositiveDepth

# Hard floor guarding divisions by theta**2; rays on the z=1 plane keep
# theta at O(1) scale, so anything at 1e-12 is rounding noise, not parallax.
THETA_FLOOR = 1e-12

ROTATION_TOL = 1e-9  # bound on a rotation's ||R'R - I|| and |det R - 1|

# Depth at or below this counts as "behind the camera" for projection.
MIN_PROJECTION_DEPTH = 1e-12


def skew_batch(V: np.ndarray) -> np.ndarray:
    """Skew matrices ``[v]x`` (``[v]x @ w == cross(v, w)``) of a batch of
    vectors, (..., 3) -> (..., 3, 3); a single (3,) vector gives one 3x3."""
    out = np.zeros(V.shape[:-1] + (3, 3))
    out[..., 0, 1] = -V[..., 2]
    out[..., 0, 2] = V[..., 1]
    out[..., 1, 0] = V[..., 2]
    out[..., 1, 2] = -V[..., 0]
    out[..., 2, 0] = -V[..., 1]
    out[..., 2, 1] = V[..., 0]
    return out


def homogenize(points: np.ndarray) -> np.ndarray:
    """Append the implicit third coordinate 1 to (x, y) points.

    Accepts a single (2,) point or an (N, 2) batch.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[:-1] + (3,))
    out[..., :2] = points
    out[..., 2] = 1.0
    return out


def cross_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of two (..., 3) arrays, whose
    leading axes broadcast; the same bits as ``np.cross``."""
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    out[..., 0] = A[..., 1] * B[..., 2] - A[..., 2] * B[..., 1]
    out[..., 1] = A[..., 2] * B[..., 0] - A[..., 0] * B[..., 2]
    out[..., 2] = A[..., 0] * B[..., 1] - A[..., 1] * B[..., 0]
    return out


def rotation_about(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rotation matrix for a unit axis and an angle (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    K = skew_batch(axis)
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def rotation_geodesic_deg(R_a: np.ndarray, R_b: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees: atan2 of the sine
    (half the norm of vee(D - D')) and cosine of D = R_a R_b'; arccos of the
    cosine alone reads rounding noise of 1e-16 as an angle of 1e-8 rad."""
    D = R_a @ R_b.T
    sine = 0.5 * np.linalg.norm([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]])
    return float(np.degrees(np.arctan2(sine, (np.trace(D) - 1.0) / 2.0)))


def check_rotation(R: np.ndarray) -> np.ndarray:
    """Validate a rotation matrix; returns it as a float64 array."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {R.shape}")
    ortho = np.linalg.norm(R.T @ R - np.eye(3))
    if ortho >= ROTATION_TOL:
        raise ValueError(f"matrix is not orthonormal (||R'R - I|| = {ortho:.3e})")
    det = np.linalg.det(R)
    if abs(det - 1.0) >= ROTATION_TOL:
        raise ValueError(f"matrix is not a proper rotation (det = {det!r})")
    return R


@dataclass(frozen=True)
class CameraPose:
    """World-to-camera rotation plus camera center in the world frame."""

    rotation: np.ndarray  # (3, 3), world -> camera
    center: np.ndarray  # (3,), camera position in world units

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        center = np.asarray(self.center, dtype=float).reshape(3)
        object.__setattr__(self, "center", center)

    def to_camera(self, points_w: np.ndarray) -> np.ndarray:
        """Map world points (3,) or (N, 3) into this camera's frame."""
        return (np.asarray(points_w, dtype=float) - self.center) @ self.rotation.T


@dataclass(frozen=True)
class Track:
    """All observations of one 3D feature across views.

    ``view_ids`` are strictly increasing and ``points[k]`` is the
    normalized image coordinate seen in ``view_ids[k]``.
    """

    track_id: int
    view_ids: np.ndarray  # (K,) int
    points: np.ndarray  # (K, 2) float

    def __post_init__(self):
        view_ids = np.asarray(self.view_ids, dtype=int).reshape(-1)
        points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(view_ids) < 2:
            raise ValueError(
                f"track {self.track_id} needs at least 2 observations"
            )
        if len(view_ids) != len(points):
            raise ValueError("view_ids and points lengths differ")
        if (view_ids[1:] <= view_ids[:-1]).any():
            raise ValueError(
                f"track {self.track_id}: view ids must be strictly increasing"
            )
        object.__setattr__(self, "view_ids", view_ids)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.view_ids)

    def point_in_view(self, view_id: int) -> np.ndarray:
        k = int(np.searchsorted(self.view_ids, view_id))
        if k >= len(self.view_ids) or self.view_ids[k] != view_id:
            raise KeyError(f"track {self.track_id} has no view {view_id}")
        return self.points[k]


@dataclass(frozen=True)
class PairGeometry:
    """Derived two-view quantities for a pair (i, j).

    ``ray_i`` is the left ray rotated into the right frame
    (``R_ij @ X_i``), ``ray_j`` the homogenized right observation; both
    are cached for :func:`pair_depths` and the kernel's tests.
    ``a_vec`` and ``b_vec`` are the vectors that express the left/right
    depths linearly in the relative translation:
    ``d_i = a_vec . t / theta**2`` and ``d_j = b_vec . t / theta**2``.
    """

    rel_rotation: np.ndarray  # (3, 3)
    rel_translation: np.ndarray  # (3,)
    theta: float
    a_vec: np.ndarray  # (3,)
    b_vec: np.ndarray  # (3,)
    ray_i: np.ndarray  # (3,)  R_ij @ homogenize(x_i)
    ray_j: np.ndarray  # (3,)  homogenize(x_j)


def project(pose: CameraPose, point_w: np.ndarray) -> np.ndarray:
    """Project a world point to a normalized image point.

    Raises NonPositiveDepth when the point sits behind or on the camera
    plane (depth <= 1e-12).
    """
    X_cam = pose.rotation @ (np.asarray(point_w, dtype=float) - pose.center)
    z = X_cam[2]
    if z <= MIN_PROJECTION_DEPTH:
        raise NonPositiveDepth(f"depth {z!r} is not positive")
    return X_cam[:2] / z


def project_points(
    rotations: np.ndarray, centers: np.ndarray, points_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project M points into N cameras at once.

    Returns ``(obs, depths)`` with shapes (N, M, 2) and (N, M); no
    cheirality check is applied, callers inspect ``depths``.
    """
    rotations = np.asarray(rotations, dtype=float)
    centers = np.asarray(centers, dtype=float)
    points_w = np.asarray(points_w, dtype=float)
    # (N, M, 3): R_v @ (X_m - c_v)
    cam = np.einsum("vij,vmj->vmi", rotations, points_w[None, :, :] - centers[:, None, :])
    depths = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        obs = cam[..., :2] / depths[..., None]
    return obs, depths


def relative_pose(pose_i: CameraPose, pose_j: CameraPose):
    """Pose of view i expressed in view j's frame: (R_ij, t_ij)."""
    R_ij = pose_j.rotation @ pose_i.rotation.T
    t_ij = pose_j.rotation @ (pose_i.center - pose_j.center)
    return R_ij, t_ij


def compute_pair_geometry(rel, x_i: np.ndarray, x_j: np.ndarray) -> PairGeometry:
    """Derive theta and the depth coefficient vectors for one pair.

    ``rel`` is the (R_ij, t_ij) tuple of :func:`relative_pose`. A zero
    theta is a valid output; degeneracy is flagged by the consumers.
    """
    R_ij, t_ij = rel
    u = R_ij @ homogenize(x_i)  # left ray in the right frame
    v = homogenize(x_j)
    theta = float(np.linalg.norm(np.cross(v, u)))
    uv = float(u @ v)
    a_vec = v * uv - u * float(v @ v)
    b_vec = v * float(u @ u) - u * uv
    return PairGeometry(
        rel_rotation=np.asarray(R_ij, dtype=float),
        rel_translation=np.asarray(t_ij, dtype=float),
        theta=theta,
        a_vec=a_vec,
        b_vec=b_vec,
        ray_i=u,
        ray_j=v,
    )


def pair_geometry(pose_i: CameraPose, pose_j: CameraPose, x_i, x_j) -> PairGeometry:
    """Convenience wrapper building the pair geometry from two poses."""
    return compute_pair_geometry(relative_pose(pose_i, pose_j), x_i, x_j)


def _require_theta(pg: PairGeometry) -> None:
    if pg.theta <= THETA_FLOOR:
        raise DegeneratePair(
            f"theta {pg.theta!r} at or below floor {THETA_FLOOR!r} (pure-rotation pair)"
        )


def pair_depths(pg: PairGeometry):
    """Closed-form depth magnitudes (d_i, d_j) of the pair's feature.

    ``d_i = ||X_j x t|| / theta`` and ``d_j = ||(R_ij X_i) x t|| / theta``.
    Values equal the signed linear forms of :func:`linear_depths` on
    consistent front-of-camera geometry.
    """
    _require_theta(pg)
    t = pg.rel_translation
    d_i = float(np.linalg.norm(np.cross(pg.ray_j, t))) / pg.theta
    d_j = float(np.linalg.norm(np.cross(pg.ray_i, t))) / pg.theta
    return d_i, d_j


def linear_depths(pg: PairGeometry):
    """Signed depths (a.t / theta^2, b.t / theta^2).

    Reported unclamped: the sign carries the cheirality information the
    translation solver's disambiguation step relies on.
    """
    _require_theta(pg)
    t = pg.rel_translation
    theta_sq = pg.theta * pg.theta
    return float(pg.a_vec @ t) / theta_sq, float(pg.b_vec @ t) / theta_sq
