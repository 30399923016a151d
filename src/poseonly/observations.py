"""Observation table and the anchored-depth kernel.

In the pose-only representation a feature's depth in its anchor-left
view is a closed-form function of its anchor pair's observed rays and the
camera poses. The linear translation system, pose-only refinement and
analytic reconstruction all consume it, so they share one table of the
anchored tracks' observations, sorted by (track, view)
(:func:`build_table`), and one batched kernel over it
(:func:`anchored_terms`). The kernel works in the world frame: with
``x_i = R_i' X_i`` the world-frame ray of observation i and ``g`` the
track's anchor-left ray, the feature sits at ``P = C_left + depth g``
and every observation i outside the anchor-left view satisfies
``theta^2 x_i x (P - C_i) = 0``. Per row the kernel gives ``x_i``,
``W = x_i x g`` and ``T = C_left - C_i``; per track it gives ``g``, the
anchor vector ``a = x_r (x_r.g) - g |x_r|^2`` (x_r: the anchor-right
ray), ``theta^2 = |x_r x g|^2`` and the anchored depth
``a . T_right / theta^2``.

Pose-only refinement runs its residual pass (this kernel, then the
projection) and its normal-equation build over the runs of
:func:`split_table`, so their temporaries stay one run's; its Jacobian
oracle takes the whole table as one run.

This module alone holds the anchor policy: a track's anchor pair is its
observation pair of maximal theta, chosen for all tracks in one batched
pass (:func:`select_bases`), and theta at or below ``THETA_FLOOR`` is
no parallax: such a track is degenerate at selection
(:func:`select_base_views`), a refined pose set that collapses its
anchor pair drops it (:attr:`AnchorTerms.collapsed`), and such a pair
adds nothing to a fused depth (:meth:`AnchorTerms.pair_theta`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllPairsDegenerate
from .geometry import THETA_FLOOR, Track, cross_rows, homogenize


@dataclass(frozen=True)
class BaseViewPair:
    """A track's anchor views: the observation pair of maximal theta."""

    left: int
    right: int
    theta: float


# Anchor selection builds K x K theta^2 tables for at most this many
# entries at once (2 MB of float64): memory stays bounded whatever the
# track count, and the working set stays in cache.
_TABLE_ENTRIES = 1 << 18


def _world_rays(rotations, views, xy) -> np.ndarray:
    """World-frame rays ``R_v' X`` of image points ``xy`` (N, 2) seen in
    ``views`` (N,)."""
    return np.einsum("kji,kj->ki", rotations[views], homogenize(xy))


def _max_theta_pairs(views, xy, rotations):
    """Row-major first (p, q), p < q, of maximal theta^2 per track, for
    tracks of one length K: ``views`` (T, K), ``xy`` (T, K, 2).

    theta^2 of every pair is ||g_p x g_q||^2 = v_p . w_q over the
    world-frame rays g = R_v' X_v, with
    v = (g0^2, g1^2, g2^2, r g0 g1, r g0 g2, r g1 g2), r = sqrt(2), and
    w = (|g|^2 - g0^2, |g|^2 - g1^2, |g|^2 - g2^2, -r g0 g1, -r g0 g2,
    -r g1 g2), so a track's table is one (K, 6) @ (6, K) product, p >= q
    masked by -inf. Tracks go in chunks whose tables hold at most
    ``_TABLE_ENTRIES`` entries together (one track per chunk when K^2
    alone exceeds it).
    """
    n, k = views.shape
    mask = np.where(np.tri(k, dtype=bool), -np.inf, 0.0)
    best = np.empty(n, dtype=np.intp)
    step = max(1, _TABLE_ENTRIES // (k * k))
    for s in range(0, n, step):
        g = _world_rays(rotations, views[s:s + step].reshape(-1), xy[s:s + step].reshape(-1, 2))
        sq = g * g
        mixed = np.sqrt(2.0) * g[:, [0, 0, 1]] * g[:, [1, 2, 2]]
        v = np.concatenate((sq, mixed), axis=1).reshape(-1, k, 6)
        w = np.concatenate((sq.sum(axis=1)[:, None] - sq, -mixed), axis=1).reshape(-1, k, 6)
        table = v @ w.transpose(0, 2, 1) + mask
        best[s:s + step] = table.reshape(len(v), -1).argmax(axis=1)
    return np.divmod(best, k)


def _anchor_pairs(tracks, rotations):
    """Anchor (left, right, theta) arrays of ``tracks``, in input order:
    the observation pair of maximal theta, ties to the lexicographically
    smallest (p, q). theta is recomputed from the winning pair's cross
    product, so a track whose apparent maximum is rounding noise keeps a
    theta at the noise level."""
    n = len(tracks)
    left, right = np.empty(n, dtype=int), np.empty(n, dtype=int)
    x_left, x_right = np.empty((n, 2)), np.empty((n, 2))
    groups = {}
    for i, track in enumerate(tracks):
        groups.setdefault(len(track), []).append(i)
    for members in groups.values():
        views = np.stack([tracks[i].view_ids for i in members])
        xy = np.stack([tracks[i].points for i in members])
        p, q = _max_theta_pairs(views, xy, rotations)
        rows = np.arange(len(members))
        left[members], right[members] = views[rows, p], views[rows, q]
        x_left[members], x_right[members] = xy[rows, p], xy[rows, q]
    w = cross_rows(_world_rays(rotations, right, x_right), _world_rays(rotations, left, x_left))
    return left, right, np.sqrt(np.einsum("ki,ki->k", w, w))


def select_bases(tracks, rotations, bases: dict | None = None):
    """Anchor pairs of every track: entries of ``bases`` are kept, the
    others are selected from ``rotations`` in one batched pass. Returns
    (bases, ids of the tracks whose maximal theta is at or below
    THETA_FLOOR, in input order)."""
    chosen = dict(bases or {})
    todo = [t for t in tracks if t.track_id not in chosen]
    left, right, theta = _anchor_pairs(todo, np.asarray(rotations, dtype=float))
    degenerate = []
    for track, *pair in zip(todo, left.tolist(), right.tolist(), theta.tolist()):
        if pair[2] <= THETA_FLOOR:
            degenerate.append(track.track_id)
        else:
            chosen[track.track_id] = BaseViewPair(*pair)
    return chosen, degenerate


def select_base_views(track: Track, rotations: np.ndarray) -> BaseViewPair:
    """One track's anchor pair, as :func:`select_bases` picks it; raises
    AllPairsDegenerate when the track has no parallax."""
    chosen, degenerate = select_bases([track], rotations)
    if degenerate:
        raise AllPairsDegenerate(
            f"track {track.track_id}: no pair's theta exceeds {THETA_FLOOR!r}"
        )
    return chosen[track.track_id]


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


def split_table(table: ObservationTable, max_rows: int) -> list:
    """The table cut into consecutive runs of whole tracks of at most
    ``max_rows`` rows each; a longer track is a run of its own. Each run
    is a table of its own, whose index arrays are re-based to it and
    whose other arrays are views; a run's tracks and rows follow the
    previous runs', ``len(run.left)`` and ``len(run.rows)`` of them."""
    row_start, track_start = table.row_start, table.track_start
    cuts = [0]
    while cuts[-1] < len(table.left):
        t = cuts[-1]
        end = int(np.searchsorted(row_start, row_start[t] + max_rows, side="right")) - 1
        cuts.append(max(end, t + 1))
    runs = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        (o0, o1), (r0, r1) = track_start[[t0, t1]].tolist(), row_start[[t0, t1]].tolist()
        runs.append(ObservationTable(
            track_ids=table.track_ids[t0:t1],
            track_start=track_start[t0:t1 + 1] - o0,
            obs_track=table.obs_track[o0:o1] - t0,
            obs_view=table.obs_view[o0:o1],
            obs_xy=table.obs_xy[o0:o1],
            left=table.left[t0:t1],
            right=table.right[t0:t1],
            theta=table.theta[t0:t1],
            left_obs=table.left_obs[t0:t1] - o0,
            rows=table.rows[r0:r1] - o0,
            row_start=row_start[t0:t1 + 1] - r0,
            right_row=table.right_row[t0:t1] - r0,
        ))
    return runs


@dataclass(frozen=True)
class AnchorTerms:
    """Per-row (M) and per-track (T) output of :func:`anchored_terms`,
    all in the world frame."""

    x: np.ndarray  # (M, 3) row ray R_i' X_i
    W: np.ndarray  # (M, 3) x x g; its norm is the pair (left, i) theta
    g: np.ndarray  # (T, 3) anchor-left ray R_left' X_left
    a: np.ndarray  # (T, 3) x_r (x_r . g) - g |x_r|^2, x_r the anchor-right ray
    theta_sq: np.ndarray  # (T,) |x_r x g|^2
    T: np.ndarray | None = None  # (M, 3) C_left - C_i
    depth: np.ndarray | None = None  # (T,) anchored depth, 0 where theta = 0

    @property
    def collapsed(self) -> np.ndarray:
        """(T,) tracks whose anchor theta fell to THETA_FLOOR or below."""
        return self.theta_sq <= THETA_FLOOR**2

    def pair_theta(self) -> np.ndarray:
        """(M,) theta of each row's pair (anchor left, row view); 0 where
        it is at or below THETA_FLOOR."""
        theta = np.linalg.norm(self.W, axis=1)
        return np.where(theta > THETA_FLOOR, theta, 0.0)


def _dot_rows(A, B) -> np.ndarray:
    return np.einsum("ki,ki->k", A, B)


def anchored_terms(table: ObservationTable, rotations, centers=None) -> AnchorTerms:
    """Batched world-frame anchor-pair quantities of every row and track;
    ``T`` and ``depth`` need the camera centers and stay None without
    them."""
    row_track = table.row_track
    x = _world_rays(rotations, table.row_view, table.obs_xy[table.rows])
    g = _world_rays(rotations, table.left, table.obs_xy[table.left_obs])
    W = cross_rows(x, g[row_track])
    v, w = x[table.right_row], W[table.right_row]
    a = v * _dot_rows(g, v)[:, None] - g * _dot_rows(v, v)[:, None]
    theta_sq = _dot_rows(w, w)
    if centers is None:
        return AnchorTerms(x, W, g, a, theta_sq)
    T = centers[table.left][row_track] - centers[table.row_view]
    along = _dot_rows(a, T[table.right_row])
    depth = np.divide(along, theta_sq, out=np.zeros_like(along), where=theta_sq > 0)
    return AnchorTerms(x, W, g, a, theta_sq, T, depth)
