"""Analytical 3D reconstruction from camera poses.

A track's position follows in closed form from its poses: each pair
(anchor-left, i) yields a signed depth of the feature in the anchor-left
view, the per-pair depths are fused with parallax weights proportional
to theta (zero-parallax pairs contribute nothing), and the fused depth
is pushed back along the anchor ray, one run of the observation table
at a time. An independent least-squares triangulation is provided
purely as a cross-check oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllPairsDegenerate, DegenerateTriangulation, NegativeDepth
from .geometry import THETA_FLOOR, Track, cross_rows, homogenize, skew_batch
from .observations import (
    BaseViewPair,
    anchor_table,
    anchored_terms,
    build_table,
    pose_arrays,
    split_table,
)

_REASON_SHORT = "below_min_track_len"
_REASON_DEGENERATE = "all_pairs_degenerate"
_REASON_NEGATIVE = "negative_depth"


@dataclass(frozen=True)
class ReconstructedPoint:
    """One accepted track position with its fusion diagnostics."""

    track_id: int
    position_w: np.ndarray  # (3,)
    fused_depth: float  # depth in the anchor-left view
    weight_sum: float  # sum of theta over contributing pairs
    contributing_views: int


@dataclass
class ReconstructionResult:
    """Accepted points (ordered by track_id) plus rejection bookkeeping."""

    points: list
    rejected: list  # (track_id, reason) pairs

    @property
    def counts(self) -> dict:
        out = {_REASON_DEGENERATE: 0, _REASON_NEGATIVE: 0, _REASON_SHORT: 0}
        for _, reason in self.rejected:
            out[reason] += 1
        return out

    def position_by_track(self) -> dict:
        return {p.track_id: p.position_w for p in self.points}


def _fuse(table, R, C):
    """Fused anchor-left depth, theta weight sum, contributing pair count
    and world position of every table track.

    Pair (left, i) has theta_i = |x_i x g| and signed depth
    a_i . T_i / theta_i^2 with a_i = x_i x (x_i x g), in the world frame
    of :func:`anchored_terms`; the theta-weighted mean over the pairs
    with parallax (theta above THETA_FLOOR) is a segment sum over each
    track's rows, taken one run of whole tracks at a time
    (:func:`split_table`). A track without such a pair has weight sum 0
    and no contributing pairs.
    """
    n, stop = len(table.left), 0
    fused, weight_sum, positions = np.zeros(n), np.zeros(n), np.zeros((n, 3))
    contributing = np.zeros(n, dtype=int)
    for run in split_table(table):
        k, starts = slice(stop, stop + len(run.left)), run.row_start[:-1]
        stop = k.stop
        terms = anchored_terms(run, R, C)
        theta = np.linalg.norm(terms.W, axis=1)
        usable = theta > THETA_FLOOR
        weights = np.where(usable, theta, 0.0)
        a = cross_rows(terms.x, terms.W)
        weighted = np.einsum("ki,ki->k", a, terms.T) / np.where(usable, theta, 1.0)
        weight_sum[k] = np.add.reduceat(weights, starts)
        total = np.add.reduceat(np.where(usable, weighted, 0.0), starts)
        np.divide(total, weight_sum[k], out=fused[k], where=weight_sum[k] > 0)
        contributing[k] = np.add.reduceat(usable.astype(int), starts)
        positions[k] = fused[k, None] * terms.g + C[run.left]
    return fused, weight_sum, contributing, positions


def reconstruct_point(track: Track, base: BaseViewPair, poses) -> ReconstructedPoint:
    """Push the parallax-weighted fused depth of the track in its
    anchor-left view back along the anchor-left ray into the world.

    Weights are theta / sum(theta) over usable pairs, so they sum to one
    and pairs nearing pure rotation fade out smoothly.
    """
    R, C = pose_arrays(poses)
    table = build_table([track], {track.track_id: base}, R)
    (fused,), (weight_sum,), (contributing,), (position,) = _fuse(table, R, C)
    if contributing == 0:
        raise AllPairsDegenerate(f"track {track.track_id}: no pair carries parallax")
    if fused <= 0:
        raise NegativeDepth(
            f"track {track.track_id}: fused depth {float(fused)!r} is not positive"
        )
    return ReconstructedPoint(
        track.track_id, position, float(fused), float(weight_sum), int(contributing)
    )


def reconstruct_all(
    tracks,
    poses,
    bases: dict | None = None,
    min_track_len: int = 2,
) -> ReconstructionResult:
    """Reconstruct every track; rejected tracks are reported, not raised.

    ``bases`` maps track_id to a previously selected anchor pair; anchors
    for missing tracks are selected from the supplied poses. Raising
    ``min_track_len`` to 3 drops two-view tracks, which on weak data
    removes the least-constrained points.
    """
    R, C = pose_arrays(poses)
    long_tracks = [t for t in tracks if len(t) >= min_track_len]
    rejected = [(t.track_id, _REASON_SHORT) for t in tracks if len(t) < min_track_len]
    table, degenerate = anchor_table(long_tracks, R, bases)
    rejected += [(tid, _REASON_DEGENERATE) for tid in degenerate]
    fused, weight_sum, contributing, positions = _fuse(table, R, C)
    flat = contributing == 0
    behind = ~flat & (fused <= 0)
    rejected += [(tid, _REASON_DEGENERATE) for tid in table.track_ids[flat].tolist()]
    rejected += [(tid, _REASON_NEGATIVE) for tid in table.track_ids[behind].tolist()]
    accepted = np.flatnonzero(~(flat | behind))
    points = [
        ReconstructedPoint(tid, position, depth, weight, count)
        for tid, position, depth, weight, count in zip(
            table.track_ids[accepted].tolist(), positions[accepted],
            fused[accepted].tolist(), weight_sum[accepted].tolist(),
            contributing[accepted].tolist(),
        )
    ]
    rejected.sort(key=lambda item: item[0])
    return ReconstructionResult(points=points, rejected=rejected)


def triangulate_dlt(track: Track, poses) -> np.ndarray:
    """Independent linear triangulation used as a cross-check oracle.

    Stacks ``[X_i]x R_i (X - c_i) = 0`` rows and solves the resulting
    least-squares system directly; shares no code path with the fused
    reconstruction above.
    """
    rows = []
    rhs = []
    for view, xy in zip(track.view_ids, track.points):
        pose = poses[view]
        K = skew_batch(homogenize(xy)) @ pose.rotation
        rows.append(K)
        rhs.append(K @ pose.center)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    s = np.linalg.svd(A, compute_uv=False)
    if s[2] <= 1e-10 * s[0]:
        raise DegenerateTriangulation(
            f"track {track.track_id}: stacked system rank < 3"
        )
    solution, *_ = np.linalg.lstsq(A, b, rcond=None)
    return solution
