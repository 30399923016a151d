"""Classical direction-based least-squares translation solver.

Stacks ``dir_ij x R_j (t_i - t_j) = 0`` rows over unit relative-translation
directions. Serves as the degeneracy foil for the linear constraint
solver: direction-only rows say nothing about where each camera sits
along a shared motion line, so collinear trajectories leave a null space
of dimension >= 2 here while the pose-only system keeps exactly one.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedViewGraph
from .geometry import skew_batch
from .translation_solver import floored_gap

# Relative resolution of the SVD's singular values: the rank test's floor.
SVD_RESOLUTION = 1e-14


@dataclass(frozen=True)
class DirectionSolution:
    """Direction-solver output: gauge-fixed centers, the three smallest
    singular values of the reduced system (ascending) and the floored
    sigma2/sigma1 gap. A well-posed problem has exactly one near-zero
    singular value and a large gap."""

    translations: np.ndarray  # (n, 3)
    spectrum: np.ndarray  # 3 smallest, ascending
    singular_gap: float


@dataclass(frozen=True)
class RelativeDirection:
    """Unit direction of the relative translation of views (i, j),
    expressed in view j's frame."""

    i: int
    j: int
    dir: np.ndarray  # (3,), unit norm

    def __post_init__(self):
        d = np.asarray(self.dir, dtype=float).reshape(3)
        norm = np.linalg.norm(d)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction norm {norm!r} is not 1")
        object.__setattr__(self, "dir", d)


def directions_from_poses(poses, pairs=None):
    """Exact relative directions from known poses.

    Defaults to the complete view graph; pairs with baseline at or below
    1e-12 (co-located cameras) carry no direction and are skipped.
    """
    n = len(poses)
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for i, j in pairs:
        rel = poses[j].rotation @ (poses[i].center - poses[j].center)
        norm = np.linalg.norm(rel)
        if norm <= 1e-12:
            continue
        out.append(RelativeDirection(i, j, rel / norm))
    return out


def _check_connected(directions, n_views):
    adjacency = [[] for _ in range(n_views)]
    for d in directions:
        adjacency[d.i].append(d.j)
        adjacency[d.j].append(d.i)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n_views:
        missing = sorted(set(range(n_views)) - seen)
        raise DisconnectedViewGraph(f"views {missing} unreachable from view 0")


def direction_translations(directions, rotations, reference_view: int = 0) -> DirectionSolution:
    """Least-squares camera centers from relative directions.

    The solution is gauge-fixed (reference center zero, unit norm) and
    sign-disambiguated by voting ``dir . R_j (t_i - t_j) >= 0``. The
    spectrum is always returned, even when degenerate, so callers can
    inspect the null-space structure; under collinear motion the
    along-line placement of each camera is unconstrained by direction
    rows, which shows up as >= 2 near-zero singular values.
    """
    rotations = np.asarray(rotations, dtype=float)
    n = len(rotations)
    if not 0 <= reference_view < n:
        raise ValueError(f"reference view {reference_view} out of range")
    if not directions:
        raise DisconnectedViewGraph("no relative directions supplied")
    _check_connected(directions, n)

    others = np.delete(np.arange(n), reference_view)
    first = np.array([d.i for d in directions])
    second = np.array([d.j for d in directions])
    dirs = np.stack([d.dir for d in directions])
    # Row block r is dir_r x R_j (t_i - t_j): +K in view i's columns and
    # -K in view j's, then the reference view's columns go.
    K = skew_batch(dirs) @ rotations[second]
    rows = np.arange(len(directions))
    blocks = np.zeros((len(directions), 3, n, 3))
    blocks[rows, :, first, :] = K
    blocks[rows, :, second, :] = -K
    mat = np.delete(
        blocks.reshape(3 * len(directions), 3 * n), 3 * reference_view + np.arange(3), axis=1
    )

    _, s, Vt = np.linalg.svd(mat, full_matrices=False)
    spectrum = s[::-1][:3]  # n >= 2 views leave at least 3 columns
    floor = SVD_RESOLUTION * float(s[0])
    gap = floored_gap(float(spectrum[0]), float(spectrum[1]), floor)
    translations = np.zeros((n, 3))
    translations[others] = Vt[-1].reshape(-1, 3)

    scores = np.einsum(
        "ka,kab,kb->k", dirs, rotations[second], translations[first] - translations[second]
    )
    if (scores < 0).sum() > (scores > 0).sum():
        translations = -translations
    translations = translations / np.linalg.norm(translations[others])
    translations[reference_view] = 0.0  # not -0.0 after a flip
    return DirectionSolution(translations, spectrum, gap)
