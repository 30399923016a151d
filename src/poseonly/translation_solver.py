"""Linear global-translation solver.

Given per-view global rotations and tracked normalized image points,
every track contributes homogeneous linear constraints on the stacked
camera centers: with a track's anchor views (left, right) fixed, each
further observation i yields

    B @ t_right + C @ t_i + D @ t_left = 0
    B = [X_i]x R_(left,i) X_left a' R_right
    C = theta^2 [X_i]x R_i
    D = -(B + C)

where ``a`` and ``theta`` belong to the anchor pair. Stacking all rows
gives a sparse homogeneous system whose one-dimensional null space (after
fixing a reference view's center to zero) is the global translation, up
to sign and scale. The formulation needs no relative translations, which
is what keeps it well-posed under collinear motion and under views that
only rotate in place.

The null vector and the spectrum come from QR+SVD of the reduced matrix
while it is small, and from an eigensolve of its Gram matrix, built
straight from the blocks, beyond that; the reduced shape alone decides
(:func:`_spectrum`), and each way floors the rank test at its own
resolution.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InsufficientParallax, RankDeficient
from .geometry import skew_batch
from .observations import (  # noqa: F401  BaseViewPair, select_base_views: re-exported
    BaseViewPair,
    anchored_terms,
    build_table,
    select_base_views,
    select_bases,
)

# Above this reduced-matrix size the dense SVD becomes a memory hazard;
# fall back to the Gram-matrix eigenvector path.
_DENSE_MAX_COLS = 1500
_DENSE_MAX_ENTRIES = 40_000_000
_MATRIX_CHUNK = 1 << 13  # blocks expanded at once by _block_gram
# Relative resolution of the dense SVD's singular values.
SVD_RESOLUTION = 1e-14

# sigma_2 / sigma_1 below this means the null space is not unique.
# Exact-data rank gaps exceed 1e6 and genuinely ambiguous systems sit
# near 1; healthy systems under 1e-3 observation noise measure gaps of
# roughly 30-100, so the refusal threshold must stay below that band.
RANK_RATIO_MIN = 10.0


@dataclass(frozen=True)
class TranslationSolution:
    """Solved camera centers, gauge-fixed and unit-normalized.

    ``translations[reference_view]`` is exactly zero and the remaining
    centers concatenate to a unit-norm vector. ``spectrum`` holds the
    four smallest singular values of the reduced system, ascending.
    """

    translations: np.ndarray  # (n, 3)
    sign_votes: tuple  # (positive, negative)
    spectrum: np.ndarray
    scale_norm: float


@dataclass(frozen=True)
class TranslationSystem:
    """Assembled sparse constraint system over stacked camera centers.

    Block k holds 3 rows touching the anchor-right view (``B[k]``), the
    observing view (``C[k]``) and the anchor-left view (``D = -(B + C)``),
    in (track_id, row_view) order. When the observing ray is parallel to
    the rotated anchor ray, B vanishes but C does not (C carries the
    anchor pair's theta^2, not the row's own parallax); the surviving
    C (t_i - t_left) = 0 content is what pins a camera that only rotates
    in place to its co-located partner. The reference view's columns are
    dropped from the reduced matrix, which fixes the translation gauge.
    """

    n_views: int
    reference_view: int
    row_views: np.ndarray  # (m,) observing view of each block
    lefts: np.ndarray  # (m,) anchor-left view of each block
    rights: np.ndarray  # (m,) anchor-right view of each block
    B: np.ndarray  # (m, 3, 3)
    C: np.ndarray  # (m, 3, 3)
    bases: dict  # track_id -> BaseViewPair of every track with rows
    probe_views: np.ndarray  # (k, 2) anchor (left, right) of those tracks
    probe_a: np.ndarray  # (k, 3) their anchor vectors a
    rotations: np.ndarray

    @property
    def sign_probes(self):
        """(left, right, a_vec) per track: the anchored depth has the sign
        of ``a_vec . R_right (t_left - t_right)``."""
        return list(zip(*self.probe_views.T.tolist(), self.probe_a))

    def _matrix(self, col_of_view, n_cols) -> sp.csr_matrix:
        # Direct CSR assembly: block k holds entries for the anchor-right,
        # observing and anchor-left views in that order, 9 per row before
        # the reference-view columns are masked out. Duplicate column
        # indices (observing view == anchor right) are left non-canonical;
        # downstream sparse ops sum them. Every row is a run of 3-entry
        # groups, one per unmasked view slot, so the blocks are expanded
        # to (block, row, slot) groups and the masked slots dropped.
        cols = col_of_view[np.stack((self.rights, self.row_views, self.lefts), axis=1)]  # (m, 3)
        valid = cols >= 0
        indptr = np.zeros(3 * len(cols) + 1, dtype=np.int64)
        np.cumsum(np.repeat(3 * np.count_nonzero(valid, axis=1), 3), out=indptr[1:])
        keep = np.repeat(valid, 3, axis=0).reshape(-1)
        groups = np.stack((self.B, self.C, -(self.B + self.C)), axis=2).reshape(-1, 3)
        first_col = np.compress(keep, np.repeat(3 * cols.astype(np.int32), 3, axis=0))
        indices = first_col[:, None] + np.arange(3, dtype=np.int32)
        data = np.compress(keep, groups, axis=0)
        return sp.csr_matrix(
            (data.reshape(-1), indices.reshape(-1), indptr), shape=(len(indptr) - 1, n_cols)
        )

    def reduced_matrix(self) -> sp.csr_matrix:
        """Constraint matrix with the reference view's columns removed."""
        col_of_view = np.full(self.n_views, -1, dtype=int)
        keep = [v for v in range(self.n_views) if v != self.reference_view]
        col_of_view[keep] = np.arange(self.n_views - 1)
        return self._matrix(col_of_view, 3 * (self.n_views - 1))

    def full_matrix(self) -> sp.csr_matrix:
        """Constraint matrix over all 3n center coordinates (no gauge)."""
        return self._matrix(np.arange(self.n_views), 3 * self.n_views)


def assemble_system(tracks: list, rotations: np.ndarray, reference_view: int) -> TranslationSystem:
    """Assemble the homogeneous system over stacked camera centers.

    Anchors come from one batched selection and every track's rows from
    one pass of the anchored-depth kernel over the observation table
    (:mod:`poseonly.observations`):
    ``B = (X_i x U_i) (R_right' a)'`` and ``C = theta^2 [X_i]x R_i``.

    Tracks whose every pair is parallax-free are dropped; at least two
    usable tracks are required (a globally rotating-in-place camera set
    cannot constrain translation at all). Rows whose own parallax
    ``|X_i x U_i|`` vanishes are kept: they are what glues a camera that
    only rotates in place to its partner.
    """
    rotations = np.asarray(rotations, dtype=float)
    n_views = len(rotations)
    if not 0 <= reference_view < n_views:
        raise ValueError(f"reference view {reference_view} out of range")

    bases, _ = select_bases(tracks, rotations)
    if len(bases) < 2:
        raise InsufficientParallax(
            f"only {len(bases)} track(s) carry parallax; need at least 2"
        )
    table = build_table(tracks, bases)
    terms = anchored_terms(table, rotations)
    row_track = table.row_track
    a_world = np.einsum("tji,tj->ti", rotations[table.right], terms.a)
    B = terms.W[:, :, None] * a_world[row_track][:, None, :]
    C = terms.theta_sq[row_track][:, None, None] * (skew_batch(terms.X) @ terms.R)
    return TranslationSystem(
        n_views=n_views,
        reference_view=reference_view,
        row_views=table.row_view,
        lefts=table.left[row_track],
        rights=table.right[row_track],
        B=B,
        C=C,
        bases={tid: bases[tid] for tid in table.track_ids.tolist()},
        probe_views=np.stack((table.left, table.right), axis=1),
        probe_a=terms.a,
        rotations=rotations,
    )


def _block_gram(system: TranslationSystem) -> np.ndarray:
    """Gram matrix ``R' R`` of the reduced constraint matrix R, accumulated
    straight from the 3x3 blocks a chunk at a time; R is never built.

    With ``P = B'B``, ``Q = B'C`` and ``S = C'C`` a block adds ``P``,
    ``Q``, ``-(P + Q)``, ``S``, ``-(Q' + S)`` and ``P + Q + Q' + S`` to the
    (right, right), (right, row), (right, left), (row, row), (row, left)
    and (left, left) view blocks, and their transposes to the mirrored
    blocks; D = -(B + C) is never multiplied. Only one half of each
    symmetric pair is scattered (diagonal terms at 1/2), and the Gram
    matrix is that half plus its transpose. The three terms keyed by
    (right, left) alone are first summed over each run of equal keys;
    rows come in track order, so a run is usually one track.
    """
    n = system.n_views
    half = np.zeros((9, n * n))
    for lo in range(0, len(system.B), _MATRIX_CHUNK):
        hi = min(lo + _MATRIX_CHUNK, len(system.B))
        BC = np.concatenate((system.B[lo:hi], system.C[lo:hi]), axis=2)
        M = BC.transpose(0, 2, 1) @ BC  # [[P, Q], [Q', S]]
        P, Q, Qt, S = M[:, :3, :3], M[:, :3, 3:], M[:, 3:, :3], M[:, 3:, 3:]
        right, row, left = system.rights[lo:hi], system.row_views[lo:hi], system.lefts[lo:hi]
        starts = np.flatnonzero(
            np.concatenate(([True], (right[1:] != right[:-1]) | (left[1:] != left[:-1])))
        )
        Pk, Qk, Sk = (np.add.reduceat(X, starts) for X in (P, Q, S))
        r, l = right[starts], left[starts]
        keys = np.concatenate(
            (r * n + r, r * n + l, l * n + l, right * n + row, row * n + row, row * n + left)
        )
        values = np.concatenate(
            (0.5 * Pk, -(Pk + Qk), Qk + 0.5 * (Pk + Sk), Q, 0.5 * S, -(Qt + S))
        ).reshape(-1, 9).T.copy()
        for e in range(9):
            half[e] += np.bincount(keys, weights=values[e], minlength=n * n)
    half = half.reshape(3, 3, n, n).transpose(2, 0, 3, 1).reshape(3 * n, 3 * n)
    keep = np.delete(np.arange(3 * n), np.arange(3) + 3 * system.reference_view)
    half = half[np.ix_(keep, keep)]
    return half + half.T


def _spectrum(system: TranslationSystem, k: int):
    """At most k smallest singular values (ascending) of the reduced
    system, the right-singular vector of the smallest one, and the
    resolution floor of the path that computed them.

    The reduced shape alone picks the path, without building either
    matrix. Up to ``_DENSE_MAX_COLS`` columns and ``_DENSE_MAX_ENTRIES``
    entries, QR then SVD of the dense matrix resolves singular values
    down to ``SVD_RESOLUTION`` of sigma_max. Larger systems take the
    eigenvectors of the block Gram matrix R'R; ``eigh`` resolves its
    eigenvalues only to about ``cols * eps`` of sigma_max^2, so singular
    values below ``sqrt(cols * eps)`` of sigma_max are rounding noise.
    """
    rows, cols = 3 * len(system.B), 3 * (system.n_views - 1)
    k = min(k, cols)
    if cols <= _DENSE_MAX_COLS and rows * cols <= _DENSE_MAX_ENTRIES:
        dense = system.reduced_matrix().toarray()
        if dense.shape[0] > 3 * dense.shape[1]:
            # A tall matrix shares singular values and right-singular
            # vectors with its QR triangle; factoring first avoids the
            # tall left factor entirely.
            dense = np.linalg.qr(dense, mode="r")
        _, s, Vt = np.linalg.svd(dense, full_matrices=False)
        return s[::-1][:k], Vt[-1], SVD_RESOLUTION * float(s[0])
    w, V = np.linalg.eigh(_block_gram(system))
    sigma = np.sqrt(np.clip(w[:k], 0.0, None))
    sigma_max = float(np.sqrt(max(w[-1], 0.0)))
    return sigma, V[:, 0], float(np.sqrt(cols * np.finfo(float).eps)) * sigma_max


def floored_gap(sigma_1: float, sigma_2: float, floor: float) -> float:
    """sigma2/sigma1 with both values floored at the resolution ``floor``
    of the factorization that computed them.

    Singular values below that floor are indistinguishable from exact
    zeros, and the raw ratio of two rounding-level zeros is meaningless;
    flooring makes the gap test stable: a system with >= 2 true zeros
    reports a gap near 1, a well-posed one reports a huge gap.
    """
    floor = max(floor, 1e-300)
    return max(sigma_2, floor) / max(sigma_1, floor)


def disambiguate_sign(translations: np.ndarray, system: TranslationSystem):
    """Resolve the global sign of a null-space solution.

    Each surviving track votes with the sign of ``a . t_rel`` of its
    anchor pair, which is positive exactly when the anchored depth is
    positive (feature in front of the camera). One vote per track; the
    majority wins.
    """

    def count(t):
        left, right = system.probe_views.T
        s = np.einsum(
            "ki,kij,kj->k", system.probe_a, system.rotations[right], t[left] - t[right]
        )
        return int((s > 0).sum()), int((s < 0).sum())

    pos, neg = count(translations)
    if neg > pos:
        translations = -translations
        translations[system.reference_view] = 0.0
        pos, neg = count(translations)
    return translations, (pos, neg)


def solve_translations(system: TranslationSystem) -> TranslationSolution:
    """Solve for camera centers as the reduced system's null vector.

    Raises RankDeficient when the two smallest singular values are within
    ``RANK_RATIO_MIN`` of each other: the null space is then ambiguous
    and any single vector from it would be arbitrary.
    """
    spectrum, null_vec, floor = _spectrum(system, 4)
    if len(spectrum) >= 2:
        ratio = floored_gap(float(spectrum[0]), float(spectrum[1]), floor)
        if ratio < RANK_RATIO_MIN:
            raise RankDeficient(
                f"singular gap sigma2/sigma1 = {ratio:.3g} < {RANK_RATIO_MIN:g}"
            )

    n = system.n_views
    translations = np.zeros((n, 3))
    others = [v for v in range(n) if v != system.reference_view]
    translations[others] = null_vec.reshape(-1, 3)
    translations, votes = disambiguate_sign(translations, system)
    scale_norm = float(np.linalg.norm(translations[others]))
    translations = translations / scale_norm
    translations[system.reference_view] = 0.0
    return TranslationSolution(
        translations=translations,
        sign_votes=votes,
        spectrum=np.asarray(spectrum),
        scale_norm=scale_norm,
    )


def singular_spectrum(system: TranslationSystem, k: int) -> np.ndarray:
    """The k smallest singular values of the reduced system, ascending."""
    cols = 3 * (system.n_views - 1)
    if k > cols:
        raise ValueError(f"k={k} exceeds column count {cols}")
    return _spectrum(system, k)[0]


def spectral_gap(system: TranslationSystem) -> float:
    """Floored sigma2/sigma1 of the reduced system; the rank diagnostic."""
    spectrum, _, floor = _spectrum(system, 2)
    if len(spectrum) < 2:
        return float("inf")
    return floored_gap(float(spectrum[0]), float(spectrum[1]), floor)
