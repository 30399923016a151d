"""Observation table and the anchored-depth kernel.

In the pose-only representation a feature's depth in its anchor-left
view is a closed-form function of its anchor pair's observed rays and the
camera poses. The linear translation system, pose-only refinement and
analytic reconstruction all consume it, so they share one table of the
anchored tracks' observations, sorted by (track, view), and one batched
kernel over it. The kernel works in the world frame: with
``x_i = R_i' X_i`` the world-frame ray of observation i and ``g`` the
track's anchor-left ray, the feature sits at ``P = C_left + depth g``
and every observation i outside the anchor-left view satisfies
``theta^2 x_i x (P - C_i) = 0``.

The per-track kernel (:func:`pair_terms`) reads only a track's two
anchor observations: it gives ``g``, the anchor-right ray ``x_r``, the
anchor vector ``a = x_r (x_r.g) - g |x_r|^2``, ``theta^2 = |x_r x g|^2``,
``T_right = C_left - C_right`` and the anchored depth
``a . T_right / theta^2``. Its formulas are written once, and
:func:`anchored_terms` adds to the same per-track output, per row,
``x_i``, ``W = x_i x g`` and ``T = C_left - C_i``. The translation
system's Gram and reconstruction read those per-row terms; pose-only
refinement needs none of them and runs the per-track kernel alone.

Every stage walks the table in the runs of :func:`split_table`, whole
tracks of at most ``RUN_ROWS`` rows, so per-row terms exist one run at a
time and nothing holds them; only the oracles take the whole table.

This module alone holds the anchor policy. The selection pass
(:func:`anchor_table`) builds the table: it flattens the tracks once,
checks their view ids against the rotations and writes each track's
anchor pair, its observation pair of maximal theta, straight into the
table's arrays; :func:`build_table` (anchors given) and
:func:`select_base_views` (one track's anchors) are that pass too, so
every entry point's anchors are checked there. theta at or below
``THETA_FLOOR`` is no parallax: such a track is degenerate at selection,
a refined pose set that collapses its anchor pair drops it
(:attr:`PairTerms.collapsed`), and such a pair adds nothing to a fused
depth.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllPairsDegenerate, InputError
from .geometry import THETA_FLOOR, Track, cross_rows, homogenize


@dataclass(frozen=True)
class BaseViewPair:
    """A track's anchor views: the observation pair of maximal theta."""

    left: int
    right: int
    theta: float


def base_pairs(track_ids, left, right, theta) -> dict:
    """track_id -> BaseViewPair of per-track anchor arrays."""
    return {
        tid: BaseViewPair(*pair)
        for tid, *pair in zip(track_ids.tolist(), left.tolist(), right.tolist(), theta.tolist())
    }


def pose_arrays(poses):
    """Stacked rotations (n, 3, 3) and centers (n, 3) of a pose list."""
    return np.stack([p.rotation for p in poses]), np.stack([p.center for p in poses])


def flatten_tracks(tracks):
    """Owner index, view and image point of every observation, in order."""
    views = [t.view_ids for t in tracks]
    lengths = np.fromiter(map(len, views), dtype=np.intp, count=len(views))
    owner = np.repeat(np.arange(len(views)), lengths)
    if not tracks:
        return owner, np.zeros(0, dtype=int), np.zeros((0, 2))
    return owner, np.concatenate(views), np.concatenate([t.points for t in tracks])


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


# The max-theta kernel takes tracks in chunks whose K x K theta^2 tables
# and (K, 6) factors hold at most this many entries together (2 MB of
# float64): memory stays bounded whatever the track count, and the
# working set stays in cache.
_TABLE_ENTRIES = 1 << 18

# Rows per run of split_table, the unit every per-row kernel and the
# reprojection check take at once (or one longer track), so their working
# set stays bounded at any observation count.
RUN_ROWS = 1 << 14

# _world_rays gathers the rotations of at most this many observations at
# once (288 KB), never an (N, 3, 3) stack of the whole input.
_RAY_CHUNK = 1 << 12


def _world_rays(rotations, views, xy, index=None) -> np.ndarray:
    """World-frame rays ``R_v' X`` of the observations ``index`` (all when
    None) of ``views`` (N,) and image points ``xy`` (N, 2), computed
    ``_RAY_CHUNK`` at a time."""
    n = len(views) if index is None else len(index)
    out = np.empty((n, 3))
    for s in range(0, n, _RAY_CHUNK):
        pick = slice(s, s + _RAY_CHUNK) if index is None else index[s:s + _RAY_CHUNK]
        np.einsum("kji,kj->ki", rotations[views[pick]], homogenize(xy[pick]),
                  out=out[s:s + _RAY_CHUNK])
    return out


def _max_theta_pairs(rays):
    """Row-major first (p, q), p < q, of maximal theta^2 per track, for
    tracks of one length K given by their world-frame rays (T, K, 3).

    theta^2 of every pair is ||g_p x g_q||^2 = v_p . w_q with
    v = (g0^2, g1^2, g2^2, r g0 g1, r g0 g2, r g1 g2), r = sqrt(2), and
    w = (|g|^2 - g0^2, |g|^2 - g1^2, |g|^2 - g2^2, -r g0 g1, -r g0 g2,
    -r g1 g2), so a track's table is one (K, 6) @ (6, K) product, p >= q
    masked by -inf. Tracks go in chunks whose v, w and tables hold at
    most ``_TABLE_ENTRIES`` entries together (one track per chunk when
    one alone exceeds it), written into buffers allocated once.
    """
    n, k, _ = rays.shape
    step = min(n, max(1, _TABLE_ENTRIES // (k * k + 12 * k)))
    v, w, table = np.empty((step, k, 6)), np.empty((step, k, 6)), np.empty((step, k, k))
    mask = np.where(np.tri(k, dtype=bool), -np.inf, 0.0)
    r = np.sqrt(2.0)
    best = np.empty(n, dtype=np.intp)
    for s in range(0, n, step):
        g = rays[s:s + step]
        c = len(g)
        vc, wc, tc = v[:c], w[:c], table[:c]
        np.multiply(g, g, out=vc[..., :3])
        for col, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
            np.multiply(g[..., i], r, out=vc[..., col])
            vc[..., col] *= g[..., j]
        np.subtract((vc[..., 0] + vc[..., 1] + vc[..., 2])[..., None], vc[..., :3],
                    out=wc[..., :3])
        np.negative(vc[..., 3:], out=wc[..., 3:])
        np.matmul(vc, wc.transpose(0, 2, 1), out=tc)
        tc += mask
        best[s:s + c] = tc.reshape(c, -1).argmax(axis=1)
    return np.divmod(best, k)


def _preset_anchors(bases, ids, preset, obs_track, obs_view, track_start):
    """Positions in their tracks of the anchor-left and anchor-right
    views, and theta, of the ``preset`` tracks' entries in ``bases``;
    raises InputError for a pair that is not two of its track's views."""
    at = np.flatnonzero(preset)
    pairs = [bases[tid] for tid in ids[at].tolist()]
    found = []
    for views in ([b.left for b in pairs], [b.right for b in pairs]):
        want = np.zeros(len(ids), dtype=int)
        want[at] = views
        hit = np.flatnonzero(preset[obs_track] & (obs_view == want[obs_track]))
        where = np.full(len(ids), -1)
        where[obs_track[hit]] = hit - track_start[obs_track[hit]]
        found.append(where[at])
    bad = np.flatnonzero((found[0] < 0) | (found[1] < 0) | (found[0] == found[1]))
    if len(bad):
        k = bad[0]
        raise InputError(f"track {ids[at[k]]}: anchor pair ({pairs[k].left}, {pairs[k].right}) "
                         f"is not two of its views")
    return at, *found, [b.theta for b in pairs]


def anchor_table(tracks, rotations, bases: dict | None = None):
    """Observation table of ``tracks`` and the ids of those left out as
    degenerate, in input order.

    A track keeps its entry in ``bases`` (track_id -> BaseViewPair); the
    others, flattened once and grouped by length, take the pair of
    maximal theta of their world-frame rays at ``rotations`` (ties to the
    lexicographically smallest (p, q)), with theta recomputed from the
    winner's cross product. A track whose theta is at or below
    THETA_FLOOR is degenerate. Raises InputError for a view id that
    indexes no rotation and for a bad entry in ``bases``.
    """
    given = np.fromiter((t.track_id for t in tracks), dtype=int, count=len(tracks))
    order = np.argsort(given, kind="stable")
    obs_track, obs_view, obs_xy = flatten_tracks([tracks[i] for i in order.tolist()])
    ids, n = given[order], len(tracks)
    track_start = np.searchsorted(obs_track, np.arange(n + 1))
    lengths = np.diff(track_start)
    rotations = np.asarray(rotations, dtype=float)
    if len(obs_view) and not 0 <= obs_view.min() <= obs_view.max() < len(rotations):
        i = np.argmax((obs_view < 0) | (obs_view >= len(rotations)))
        raise InputError(f"track {ids[obs_track[i]]}: view {obs_view[i]} is not "
                         f"among the {len(rotations)} views")

    p, q, theta = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp), np.empty(n)
    preset = np.zeros(n, dtype=bool)
    if bases:
        preset = np.fromiter((tid in bases for tid in ids.tolist()), dtype=bool, count=n)
        at, *anchors = _preset_anchors(bases, ids, preset, obs_track, obs_view, track_start)
        p[at], q[at], theta[at] = anchors
    todo = np.flatnonzero(~preset)
    for k in np.unique(lengths[todo]).tolist():
        members = todo[lengths[todo] == k]
        # A group of every track covers the whole table in order.
        index = None if len(members) == n else (track_start[members, None] + np.arange(k)).ravel()
        rays = _world_rays(rotations, obs_view, obs_xy, index).reshape(-1, k, 3)
        left, right = _max_theta_pairs(rays)
        p[members], q[members] = left, right
        each = np.arange(len(members))
        w = cross_rows(rays[each, right], rays[each, left])
        theta[members] = np.sqrt(np.einsum("ki,ki->k", w, w))

    keep = preset | (theta > THETA_FLOOR)
    degenerate = given[np.sort(order[~keep])].tolist()
    if degenerate:
        kept_obs = np.repeat(keep, lengths)
        obs_view, obs_xy = obs_view[kept_obs], obs_xy[kept_obs]
        ids, lengths, p, q, theta = ids[keep], lengths[keep], p[keep], q[keep], theta[keep]
        n = len(ids)
        obs_track = np.repeat(np.arange(n), lengths)
        track_start = np.concatenate(([0], np.cumsum(lengths)))
    left_obs, right_obs = track_start[:-1] + p, track_start[:-1] + q
    row_start = track_start - np.arange(n + 1)
    is_row = np.ones(len(obs_view), dtype=bool)
    is_row[left_obs] = False
    return ObservationTable(
        track_ids=ids,
        track_start=track_start,
        obs_track=obs_track,
        obs_view=obs_view,
        obs_xy=obs_xy,
        left=obs_view[left_obs],
        right=obs_view[right_obs],
        theta=theta,
        left_obs=left_obs,
        rows=np.flatnonzero(is_row),
        row_start=row_start,
        right_row=row_start[:-1] + q - (q > p),
    ), degenerate


def build_table(tracks, bases: dict, rotations) -> ObservationTable:
    """Table of the tracks that have an entry in ``bases`` (track_id ->
    BaseViewPair), in ascending track-id order: :func:`anchor_table` with
    every anchor given."""
    return anchor_table([t for t in tracks if t.track_id in bases], rotations, bases)[0]


def select_base_views(track: Track, rotations: np.ndarray) -> BaseViewPair:
    """One track's anchor pair, as :func:`anchor_table` picks it; raises
    AllPairsDegenerate when the track has no parallax."""
    table, degenerate = anchor_table([track], rotations)
    if degenerate:
        raise AllPairsDegenerate(
            f"track {track.track_id}: no pair's theta exceeds {THETA_FLOOR!r}"
        )
    return base_pairs(table.track_ids, table.left, table.right, table.theta)[track.track_id]


def split_table(table: ObservationTable, max_rows: int | None = None):
    """Yield the table in consecutive runs of whole tracks of at most
    ``max_rows`` rows (``RUN_ROWS``, read at the call, when None); a
    longer track is a run of its own. Each run is a table of its own,
    made as it is taken, whose index arrays are re-based to it and whose
    other arrays are views; a run's tracks and rows follow the previous
    runs', ``len(run.left)`` and ``len(run.rows)`` of them."""
    max_rows = RUN_ROWS if max_rows is None else max_rows
    row_start, track_start = table.row_start, table.track_start
    t0 = 0
    while t0 < len(table.left):
        t1 = max(int(np.searchsorted(row_start, row_start[t0] + max_rows, "right")) - 1, t0 + 1)
        (o0, o1), (r0, r1) = track_start[[t0, t1]].tolist(), row_start[[t0, t1]].tolist()
        yield ObservationTable(
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
        )
        t0 = t1


@dataclass(frozen=True)
class PairTerms:
    """Per-track (T) anchor-pair quantities of :func:`pair_terms`, all in
    the world frame."""

    g: np.ndarray  # (T, 3) anchor-left ray R_left' X_left
    x_r: np.ndarray  # (T, 3) anchor-right ray R_right' X_right
    a: np.ndarray  # (T, 3) x_r (x_r . g) - g |x_r|^2
    theta_sq: np.ndarray  # (T,) |x_r x g|^2
    T_right: np.ndarray | None = None  # (T, 3) C_left - C_right
    depth: np.ndarray | None = None  # (T,) anchored depth, 0 where theta = 0

    @property
    def collapsed(self) -> np.ndarray:
        """(T,) tracks whose anchor theta fell to THETA_FLOOR or below."""
        return self.theta_sq <= THETA_FLOOR**2


@dataclass(frozen=True, kw_only=True)
class AnchorTerms(PairTerms):
    """:class:`PairTerms` plus the per-row (M) output of
    :func:`anchored_terms`, all in the world frame."""

    x: np.ndarray  # (M, 3) row ray R_i' X_i
    W: np.ndarray  # (M, 3) x x g; its norm is the pair (left, i) theta
    T: np.ndarray | None = None  # (M, 3) C_left - C_i


def _dot_rows(A, B) -> np.ndarray:
    return np.einsum("ki,ki->k", A, B)


def _pair_fields(g, x_r, T_right=None) -> dict:
    """The per-track kernel: the :class:`PairTerms` fields of tracks with
    anchor rays ``g`` and ``x_r``; ``depth`` needs ``T_right``."""
    a = x_r * _dot_rows(g, x_r)[:, None] - g * _dot_rows(x_r, x_r)[:, None]
    w = cross_rows(x_r, g)
    theta_sq = _dot_rows(w, w)
    depth = None
    if T_right is not None:
        along = _dot_rows(a, T_right)
        depth = np.divide(along, theta_sq, out=np.zeros_like(along), where=theta_sq > 0)
    return dict(g=g, x_r=x_r, a=a, theta_sq=theta_sq, T_right=T_right, depth=depth)


def pair_terms(table: ObservationTable, rotations, centers=None) -> PairTerms:
    """Batched world-frame anchor-pair quantities of every track, from its
    two anchor observations alone: no per-row ray is computed. Without
    centers ``T_right`` and ``depth`` stay None."""
    n = len(table.left)
    rays = _world_rays(rotations, table.obs_view, table.obs_xy,
                       np.concatenate((table.left_obs, table.rows[table.right_row])))
    T_right = None if centers is None else centers[table.left] - centers[table.right]
    return PairTerms(**_pair_fields(rays[:n], rays[n:], T_right))


def anchored_terms(table: ObservationTable, rotations, centers=None) -> AnchorTerms:
    """:func:`pair_terms` plus the rays ``x``, their cross products ``W``
    with ``g`` and, given the camera centers, ``T`` of every row; without
    centers ``T``, ``T_right`` and ``depth`` stay None."""
    row_track = table.row_track
    x = _world_rays(rotations, table.obs_view, table.obs_xy, table.rows)
    g = _world_rays(rotations, table.obs_view, table.obs_xy, table.left_obs)
    W = cross_rows(x, g[row_track])
    T = None if centers is None else centers[table.left][row_track] - centers[table.row_view]
    T_right = None if T is None else T[table.right_row]
    return AnchorTerms(**_pair_fields(g, x[table.right_row], T_right), x=x, W=W, T=T)
