"""Deterministic synthetic scene generation for the solver test bench.

Randomness contract: every draw comes from a numpy ``Generator`` backed
by the PCG64 bit generator seeded with the config's 64-bit seed, and
Gaussian samples are produced by the Box-Muller transform applied to
that uniform stream (see :func:`gaussian`). Identical (config, seed)
therefore reproduces bit-identical scenes across runs and platforms.

Observation noise is expressed in normalized image coordinates; a sigma
of 1e-3 corresponds to roughly one pixel at a focal length of 1000.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigInvalid, GeometryInfeasible
from .geometry import (
    CameraPose,
    Track,
    project_points,
    rotation_about,
)

MOTIONS = ("generic_ring", "collinear", "local_pure_rotation", "loop_closure")
POINT_CLOUDS = ("box", "shell")
# The cameras aim at this box, which holds the "box" point cloud.
_BOX_CENTER = np.zeros(3)
_BOX_EXTENT = np.array([4.0, 4.0, 4.0])

# Points must keep at least this depth in every view; guards against
# features grazing a camera plane and blowing up normalized coordinates.
_MIN_SCENE_DEPTH = 0.25
_MAX_POINT_RETRIES = 200


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal samples via Box-Muller on the uniform stream.

    Implemented explicitly (rather than ``rng.standard_normal``) so the
    mapping from the uniform stream to Gaussians is algorithmically
    pinned and reproducible outside numpy.
    """
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    # u1 in (0, 1] keeps log(u1) finite.
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


def look_at_rotation(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at ``center`` looking at
    ``target`` (camera z axis along the viewing direction)."""
    forward = np.asarray(target, dtype=float) - np.asarray(center, dtype=float)
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("look-at target coincides with the camera center")
    forward = forward / norm
    up_hint = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up_hint) > 0.99:
        up_hint = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up_hint)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene parameters. ``motion`` picks the trajectory family."""

    n_views: int
    n_points: int
    motion: str = "generic_ring"
    point_cloud: str = "box"
    shell_radius: float = 2.0
    obs_noise_sigma: float = 0.0
    rotation_noise_deg: float = 0.0
    seed: int = 0

    def validate(self):
        min_views = 3 if self.motion == "local_pure_rotation" else 2
        if self.n_views < min_views:
            raise ConfigInvalid(
                f"motion {self.motion!r} needs at least {min_views} views, "
                f"got {self.n_views}"
            )
        if self.n_points < 2:
            raise ConfigInvalid(f"need at least 2 points, got {self.n_points}")
        if self.motion not in MOTIONS:
            raise ConfigInvalid(f"unknown motion {self.motion!r}")
        if self.point_cloud not in POINT_CLOUDS:
            raise ConfigInvalid(f"unknown point cloud {self.point_cloud!r}")
        if self.obs_noise_sigma < 0 or self.rotation_noise_deg < 0:
            raise ConfigInvalid("noise magnitudes must be non-negative")
        if self.shell_radius <= 0:
            raise ConfigInvalid("shell_radius must be positive")


@dataclass
class SceneProblem:
    """Solver inputs plus optional ground truth for evaluation.

    ``rotations`` are the solver-input rotations (possibly perturbed);
    ``gt_poses``/``gt_points`` always hold the exact generating values.
    ``gt_points[k]`` corresponds to the track with ``track_id == k``.
    """

    rotations: np.ndarray  # (n, 3, 3)
    tracks: list = field(default_factory=list)
    reference_view: int = 0
    gt_poses: list | None = None  # list[CameraPose]
    gt_points: np.ndarray | None = None  # (m, 3)

    @property
    def n_views(self) -> int:
        return len(self.rotations)

    def gt_centers(self) -> np.ndarray:
        if self.gt_poses is None:
            raise ValueError("problem carries no ground-truth poses")
        return np.array([p.center for p in self.gt_poses])

    def gt_rotations(self) -> np.ndarray:
        if self.gt_poses is None:
            raise ValueError("problem carries no ground-truth poses")
        return np.array([p.rotation for p in self.gt_poses])

    def observation_count(self) -> int:
        return sum(len(t) for t in self.tracks)


def _camera_centers(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    n = config.n_views
    ring_radius = 8.0
    if config.motion == "generic_ring":
        phi = 2.0 * np.pi * np.arange(n) / n + 0.15 * gaussian(rng, n)
        centers = np.stack(
            [ring_radius * np.cos(phi), ring_radius * np.sin(phi), 0.5 * gaussian(rng, n)],
            axis=1,
        )
        return centers + _BOX_CENTER
    if config.motion == "loop_closure":
        # Exact closed circle traversed once in view order.
        phi = 2.0 * np.pi * np.arange(n) / n
        centers = np.stack(
            [ring_radius * np.cos(phi), ring_radius * np.sin(phi), np.zeros(n)], axis=1
        )
        return centers + _BOX_CENTER
    if config.motion == "collinear":
        # All centers exactly on one line, sideways to the viewing axis.
        offsets = np.arange(n) - (n - 1) / 2.0
        offsets = offsets + 0.3 * (rng.random(n) - 0.5)  # stays strictly increasing
        line_origin = _BOX_CENTER + np.array([0.0, 0.0, -ring_radius])
        centers = line_origin + offsets[:, None] * np.array([1.0, 0.0, 0.0])
        return centers
    if config.motion == "local_pure_rotation":
        phi = 2.0 * np.pi * np.arange(n - 1) / max(n - 1, 1)
        ring = np.stack(
            [ring_radius * np.cos(phi), ring_radius * np.sin(phi), np.zeros(n - 1)],
            axis=1,
        ) + _BOX_CENTER
        # Views 0 and 1 share the first ring position exactly.
        return np.vstack([ring[0], ring])
    raise ConfigInvalid(f"unknown motion {config.motion!r}")


def _aim_rotations(config, centers, rng) -> np.ndarray:
    scale = max(np.linalg.norm(_BOX_EXTENT), config.shell_radius)
    # Stronger aim scatter for co-located views so their rotations differ.
    wobble = np.full(len(centers), 0.05 * scale)
    if config.motion == "local_pure_rotation":
        wobble[:2] = 0.4 * scale
    targets = _BOX_CENTER + wobble[:, None] * gaussian(rng, (len(centers), 3))
    return np.stack(
        [look_at_rotation(c, t) for c, t in zip(centers, targets)]
    )


def _sample_points(config, rng, count) -> np.ndarray:
    if config.point_cloud == "box":
        return _BOX_CENTER + (rng.random((count, 3)) - 0.5) * _BOX_EXTENT
    directions = gaussian(rng, (count, 3))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return _BOX_CENTER + config.shell_radius * directions / norms


def generate_scene(config: SceneConfig) -> SceneProblem:
    """Generate a fully observed synthetic problem.

    Deterministic for a given (config, seed). Every point is visible
    (positive depth) in every view; points failing that are resampled a
    bounded number of times before GeometryInfeasible is raised.
    """
    config.validate()
    rng = make_rng(config.seed)

    centers = _camera_centers(config, rng)
    rotations = _aim_rotations(config, centers, rng)

    points = _sample_points(config, rng, config.n_points)
    for _ in range(_MAX_POINT_RETRIES):
        _, depths = project_points(rotations, centers, points)
        bad = np.any(depths <= _MIN_SCENE_DEPTH, axis=0)
        if not bad.any():
            break
        points[bad] = _sample_points(config, rng, int(bad.sum()))
    else:
        raise GeometryInfeasible(
            "could not place points visible to all views; widen the cloud "
            "or move the cameras"
        )

    obs, _ = project_points(rotations, centers, points)
    tracks = [
        Track(k, np.arange(config.n_views), obs[:, k, :].copy())
        for k in range(config.n_points)
    ]
    gt_poses = [CameraPose(R, c) for R, c in zip(rotations, centers)]
    problem = SceneProblem(
        rotations=rotations.copy(),
        tracks=tracks,
        reference_view=0,
        gt_poses=gt_poses,
        gt_points=points,
    )
    if config.obs_noise_sigma > 0:
        problem = add_observation_noise(
            problem, config.obs_noise_sigma, seed=int(rng.integers(0, 2**63 - 1))
        )
    if config.rotation_noise_deg > 0:
        problem = perturb_rotations(
            problem, config.rotation_noise_deg, seed=int(rng.integers(0, 2**63 - 1))
        )
    return problem


def add_observation_noise(problem: SceneProblem, sigma: float, seed: int) -> SceneProblem:
    """Add i.i.d. zero-mean Gaussian noise to every observation.

    Ground-truth fields and solver rotations are untouched; noise is
    independent of the scene content by construction (separate stream).
    """
    if sigma < 0:
        raise ConfigInvalid("sigma must be non-negative")
    if sigma == 0:
        return problem
    rng = make_rng(seed)
    tracks = []
    for track in problem.tracks:
        noisy = track.points + sigma * gaussian(rng, track.points.shape)
        tracks.append(Track(track.track_id, track.view_ids, noisy))
    return replace(problem, tracks=tracks)


def perturb_rotations(problem: SceneProblem, degrees: float, seed: int) -> SceneProblem:
    """Right-multiply each solver rotation by a random axis, fixed-angle
    rotation of exactly ``degrees``; ground truth is untouched."""
    if degrees < 0:
        raise ConfigInvalid("perturbation magnitude must be non-negative")
    if degrees == 0:
        return problem
    rng = make_rng(seed)
    angle = math.radians(degrees)
    rotations = []
    for R in problem.rotations:
        axis = gaussian(rng, 3)
        while np.linalg.norm(axis) < 1e-9:
            axis = gaussian(rng, 3)
        axis = axis / np.linalg.norm(axis)
        rotations.append(R @ rotation_about(axis, angle))
    return replace(problem, rotations=np.stack(rotations))


def problem_from_poses(
    poses: list, points_w: np.ndarray, reference_view: int = 0
) -> SceneProblem:
    """Build a fully observed exact problem from explicit poses/points."""
    rotations = np.stack([p.rotation for p in poses])
    centers = np.stack([p.center for p in poses])
    points_w = np.asarray(points_w, dtype=float)
    obs, depths = project_points(rotations, centers, points_w)
    if np.any(depths <= 0):
        raise GeometryInfeasible("a point lies behind one of the cameras")
    tracks = [
        Track(k, np.arange(len(poses)), obs[:, k, :].copy())
        for k in range(len(points_w))
    ]
    return SceneProblem(
        rotations=rotations.copy(),
        tracks=tracks,
        reference_view=reference_view,
        gt_poses=list(poses),
        gt_points=points_w.copy(),
    )


def scene_s1() -> SceneProblem:
    """The canonical worked fixture: three identity-rotation cameras on
    the x axis at (0,0,0), (-1,0,0), (1,0,0) observing (0,0,5) and
    (1,1,6). Collinear motion with hand-checkable observations."""
    eye = np.eye(3)
    poses = [
        CameraPose(eye, np.array([0.0, 0.0, 0.0])),
        CameraPose(eye, np.array([-1.0, 0.0, 0.0])),
        CameraPose(eye, np.array([1.0, 0.0, 0.0])),
    ]
    points = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 6.0]])
    return problem_from_poses(poses, points, reference_view=0)
