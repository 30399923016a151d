"""Observation table and the anchored-depth kernel.

In the pose-only representation a feature's depth in its anchor-left
view is a closed-form function of its anchor pair's observed rays and the
camera poses. The linear translation system, pose-only refinement and
analytic reconstruction all consume it, so they share one table of the
anchored tracks' observations, sorted by (track, view)
(:func:`build_table`), and one batched kernel over it
(:func:`anchored_terms`). For every observation i outside its track's
anchor-left view the kernel gives ``U = R_i R_left' X_left``,
``T = R_i (C_left - C_i)`` and ``W = X_i x U``; per track it gives the
anchor vector ``a = v (u.v) - u (v.v)`` (u, v: U and X_i in the
anchor-right view), ``theta^2 = |u x v|^2`` and the anchored depth
``a . T_right / theta^2``. The feature sits at ``depth U + T`` in view i.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AllPairsDegenerate
from .geometry import THETA_FLOOR, Track, cross3, cross_rows, homogenize


@dataclass(frozen=True)
class BaseViewPair:
    """A track's anchor views: the observation pair of maximal theta."""

    left: int
    right: int
    theta: float


def _pair_theta_sq_table(g: np.ndarray) -> np.ndarray:
    """theta^2 for all ray pairs via the Gram identity
    ||g_i x g_j||^2 = |g_i|^2 |g_j|^2 - (g_i . g_j)^2.

    ``g`` are the world-frame rays R_v' X_v; rotating both rays into one
    frame leaves the cross-product norm unchanged.
    """
    gram = g @ g.T
    sq = np.einsum("ki,ki->k", g, g)
    table = np.multiply.outer(sq, sq) - gram * gram
    return np.maximum(table, 0.0)


@lru_cache(maxsize=128)
def _upper_pairs(k: int):
    iu, ju = np.triu_indices(k, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _canonical_theta(rotations, x_left, x_right, v_left, v_right) -> float:
    R_rel = rotations[v_right] @ rotations[v_left].T
    u = R_rel @ homogenize(x_left)
    v = homogenize(x_right)
    return float(np.linalg.norm(cross3(v, u)))


def select_base_views(track: Track, rotations: np.ndarray, theta_min: float = 0.0) -> BaseViewPair:
    """Pick the track's observation pair of maximal theta.

    Ties break to the lexicographically smallest (i, j); the winning
    theta is recomputed from the cross product itself so that a track
    whose apparent maximum is pure rounding noise is still rejected.
    """
    floor = max(theta_min, THETA_FLOOR)
    rays = homogenize(track.points)
    g = np.einsum("kji,kj->ki", rotations[track.view_ids], rays)
    table = _pair_theta_sq_table(g)
    iu, ju = _upper_pairs(len(track))
    flat = table[iu, ju]
    best = int(np.argmax(flat))
    p, q = int(iu[best]), int(ju[best])
    left, right = int(track.view_ids[p]), int(track.view_ids[q])
    theta = _canonical_theta(rotations, track.points[p], track.points[q], left, right)
    if theta <= floor:
        raise AllPairsDegenerate(
            f"track {track.track_id}: max theta {theta!r} at or below {floor!r}"
        )
    return BaseViewPair(left, right, theta)


def select_bases(tracks, rotations, theta_min: float = 0.0, bases: dict | None = None):
    """Anchor pairs of every track: entries of ``bases`` are kept, the
    others are selected from ``rotations``. Returns (bases, ids of the
    tracks whose every pair is parallax-free)."""
    chosen, degenerate = dict(bases or {}), []
    for track in tracks:
        if track.track_id in chosen:
            continue
        try:
            chosen[track.track_id] = select_base_views(track, rotations, theta_min)
        except AllPairsDegenerate:
            degenerate.append(track.track_id)
    return chosen, degenerate


def pose_arrays(poses):
    """Stacked rotations (n, 3, 3) and centers (n, 3) of a pose list."""
    return np.stack([p.rotation for p in poses]), np.stack([p.center for p in poses])


def flatten_tracks(tracks):
    """Owner index, view and image point of every observation, in order."""
    lengths = np.fromiter((len(t) for t in tracks), dtype=np.intp, count=len(tracks))
    owner = np.repeat(np.arange(len(tracks)), lengths)
    if not tracks:
        return owner, np.zeros(0, dtype=int), np.zeros((0, 2))
    views = np.concatenate([t.view_ids for t in tracks])
    xy = np.concatenate([t.points for t in tracks])
    return owner, views, xy


@dataclass(frozen=True)
class ObservationTable:
    """Table track k owns observations ``track_start[k]:track_start[k+1]``
    and rows ``row_start[k]:row_start[k+1]``; a row is an observation
    outside the track's anchor-left view, in table order."""

    track_ids: np.ndarray  # (T,) ascending
    track_start: np.ndarray  # (T+1,)
    obs_track: np.ndarray  # (N,) table index of the owning track
    obs_view: np.ndarray  # (N,)
    obs_xy: np.ndarray  # (N, 2)
    left: np.ndarray  # (T,) anchor-left view
    right: np.ndarray  # (T,) anchor-right view
    theta: np.ndarray  # (T,) anchor theta at selection
    left_obs: np.ndarray  # (T,) observation index of the anchor-left view
    rows: np.ndarray  # (N-T,) observation index of every row
    row_start: np.ndarray  # (T+1,)
    right_row: np.ndarray  # (T,) row index of the anchor-right view

    @property
    def row_track(self) -> np.ndarray:
        return self.obs_track[self.rows]

    @property
    def row_view(self) -> np.ndarray:
        return self.obs_view[self.rows]


def build_table(tracks, bases: dict) -> ObservationTable:
    """Table of the tracks that have an entry in ``bases`` (track_id ->
    BaseViewPair), in ascending track-id order."""
    used = sorted((t for t in tracks if t.track_id in bases), key=lambda t: t.track_id)
    anchors = [bases[t.track_id] for t in used]
    n = len(used)
    obs_track, obs_view, obs_xy = flatten_tracks(used)
    track_start = np.searchsorted(obs_track, np.arange(n + 1))
    left = np.array([b.left for b in anchors], dtype=int)
    right = np.array([b.right for b in anchors], dtype=int)
    left_obs = np.flatnonzero(obs_view == left[obs_track])
    right_obs = np.flatnonzero(obs_view == right[obs_track])
    if len(left_obs) != n or len(right_obs) != n:
        raise KeyError("an anchor view is not among its track's observations")
    return ObservationTable(
        track_ids=np.array([t.track_id for t in used], dtype=int),
        track_start=track_start,
        obs_track=obs_track,
        obs_view=obs_view,
        obs_xy=obs_xy,
        left=left,
        right=right,
        theta=np.array([b.theta for b in anchors], dtype=float),
        left_obs=left_obs,
        rows=np.flatnonzero(obs_view != left[obs_track]),
        row_start=track_start - np.arange(n + 1),
        right_row=right_obs - np.arange(n) - (right_obs > left_obs),
    )


@dataclass(frozen=True)
class AnchorTerms:
    """Per-row (M) and per-track (T) output of :func:`anchored_terms`."""

    X: np.ndarray  # (M, 3) homogenized row observations
    R: np.ndarray  # (M, 3, 3) rotation of each row's view
    U: np.ndarray  # (M, 3) anchor-left ray rotated into the row's view
    W: np.ndarray  # (M, 3) X x U; its norm is the pair (left, i) theta
    g: np.ndarray  # (T, 3) world-frame anchor-left ray R_left' X_left
    a: np.ndarray  # (T, 3)
    theta_sq: np.ndarray  # (T,)
    T: np.ndarray | None = None  # (M, 3) R_i (C_left - C_i)
    depth: np.ndarray | None = None  # (T,) anchored depth, 0 where theta = 0


def _dot_rows(A, B) -> np.ndarray:
    return np.einsum("ki,ki->k", A, B)


def anchored_terms(table: ObservationTable, rotations, centers=None) -> AnchorTerms:
    """Batched anchor-pair quantities of every row and track; ``T`` and
    ``depth`` need the camera centers and stay None without them."""
    row_track = table.row_track
    R = rotations[table.row_view]
    X = homogenize(table.obs_xy[table.rows])
    x_left = homogenize(table.obs_xy[table.left_obs])
    g = np.einsum("tji,tj->ti", rotations[table.left], x_left)
    U = np.einsum("kij,kj->ki", R, g[row_track])
    W = cross_rows(X, U)
    u, v, w = U[table.right_row], X[table.right_row], W[table.right_row]
    a = v * _dot_rows(u, v)[:, None] - u * _dot_rows(v, v)[:, None]
    theta_sq = _dot_rows(w, w)
    if centers is None:
        return AnchorTerms(X, R, U, W, g, a, theta_sq)
    offsets = centers[table.left][row_track] - centers[table.row_view]
    T = np.einsum("kij,kj->ki", R, offsets)
    along = _dot_rows(a, T[table.right_row])
    depth = np.divide(along, theta_sq, out=np.zeros_like(along), where=theta_sq > 0)
    return AnchorTerms(X, R, U, W, g, a, theta_sq, T, depth)
