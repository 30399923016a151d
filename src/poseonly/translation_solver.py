"""Linear global-translation solver.

Given per-view global rotations and tracked normalized image points,
every track contributes homogeneous linear constraints on the stacked
camera centers: with a track's anchor views (left, right) fixed, each
further observation i yields ``theta^2 x_i x (P_t - C_i) = 0``, the
world-frame ray ``x_i = R_i' X_i`` crossed with the feature
``P_t = C_left + depth g`` seen from view i (:mod:`poseonly.observations`):

    B @ t_right + C @ t_i + D @ t_left = 0
    B = (x_i x g) a'
    C = theta^2 [x_i]x
    D = -(B + C)

where ``g`` is the anchor-left ray and ``a`` and ``theta`` belong to the
anchor pair. Stacking all rows gives a sparse homogeneous system whose
one-dimensional null space (after fixing a reference view's center to
zero) is the global translation, up to sign and scale. The formulation
needs no relative translations, which is what keeps it well-posed under
collinear motion and under views that only rotate in place.

The system stores the blocks' terms, not the blocks. The null vector and
the spectrum come from them without building the tall reduced matrix:
while it is small, from the SVD of its triangle, QR-factored from 2 rows
per block (:func:`_dense_triangle`), and beyond that from an eigensolve
of its Gram matrix (:func:`_block_gram`). The reduced shape alone decides
(:func:`_spectrum`), and each way floors the rank test at its own resolution.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InsufficientParallax, RankDeficient
from .geometry import cross_rows, skew_batch
from .observations import (  # noqa: F401  BaseViewPair, select_base_views: re-exported
    BaseViewPair,
    anchored_terms,
    build_table,
    select_base_views,
    select_bases,
)

# The dense/Gram crossover: up to this reduced shape the chunked QR+SVD
# costs little and resolves singular values to SVD_RESOLUTION; beyond it
# the block Gram's eigensolve is far faster, at the coarser resolution
# sqrt(cols * eps). Neither path builds the tall matrix.
_DENSE_MAX_COLS = 1500
_DENSE_MAX_ENTRIES = 40_000_000
_MATRIX_CHUNK = 1 << 13  # blocks expanded at once by _block_gram
# Rows factored at once by _dense_triangle: eight times the column count,
# so a chunk stays cache-sized yet tall next to its triangle, but no
# fewer than 1024, below which the cost of each QR call dominates.
_QR_CHUNK_ROWS_PER_COL = 8
_QR_CHUNK_MIN_ROWS = 1024
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
    in (track_id, row_view) order; ``B = W a'`` and ``C = theta^2 [x]x``
    are built from the stored terms on demand. When the observing ray is
    parallel to the anchor-left ray, B vanishes but C does not (C carries
    the anchor pair's theta^2, not the row's own parallax); the surviving
    C (t_i - t_left) = 0 content is what pins a camera that only rotates
    in place to its co-located partner. The reference view's columns are
    dropped from the reduced matrix, which fixes the translation gauge.
    """

    n_views: int
    reference_view: int
    row_views: np.ndarray  # (m,) observing view of each block
    lefts: np.ndarray  # (m,) anchor-left view of each block
    rights: np.ndarray  # (m,) anchor-right view of each block
    row_track: np.ndarray  # (m,) index of each block's track into the probes
    x: np.ndarray  # (m, 3) world-frame ray of each block's observation
    W: np.ndarray  # (m, 3) x x g, g the track's anchor-left ray
    bases: dict  # track_id -> BaseViewPair of every track with rows
    probe_views: np.ndarray  # (k, 2) anchor (left, right) of those tracks
    probe_a: np.ndarray  # (k, 3) their world-frame anchor vectors a
    theta_sq: np.ndarray  # (k,) their anchor theta^2
    rotations: np.ndarray

    def _blocks(self, rows=slice(None)):
        """B and C, (k, 3, 3) each, of the blocks ``rows``."""
        track = self.row_track[rows]
        B = self.W[rows, :, None] * self.probe_a[track][:, None, :]
        return B, self.theta_sq[track][:, None, None] * skew_batch(self.x[rows])

    B = property(lambda self: self._blocks()[0], doc="(m, 3, 3) blocks, built per access")
    C = property(lambda self: self._blocks()[1], doc="(m, 3, 3) blocks, built per access")

    @property
    def sign_probes(self):
        """(left, right, a_vec) per track, ``a_vec`` in the anchor-right
        view's frame: the anchored depth has the sign of
        ``a_vec . R_right (t_left - t_right)``."""
        a_right = self.rotations[self.probe_views[:, 1]] @ self.probe_a[:, :, None]
        return list(zip(*self.probe_views.T.tolist(), a_right[:, :, 0]))

    @property
    def free_columns(self) -> np.ndarray:
        """Columns of every center coordinate but the reference view's;
        dropping the reference columns fixes the translation gauge."""
        return np.delete(np.arange(3 * self.n_views), 3 * self.reference_view + np.arange(3))

    def full_matrix(self) -> sp.csr_matrix:
        """Constraint matrix over all 3n center coordinates (no gauge).

        Every row holds 9 entries: its rows of B, C and D = -(B + C) at
        the anchor-right, observing and anchor-left views' columns. An
        observing view equal to the anchor right repeats column indices;
        the matrix is left non-canonical and sparse ops sum them.
        """
        views = np.stack((self.rights, self.row_views, self.lefts), axis=1)  # (m, 3)
        data = np.stack((self.B, self.C, -(self.B + self.C)), axis=2)  # (m, row, view, col)
        first = 3 * views.astype(np.int32)[:, None, :, None] + np.arange(3, dtype=np.int32)
        indices = np.broadcast_to(first, data.shape).reshape(-1)
        indptr = np.arange(0, len(indices) + 1, 9)
        return sp.csr_matrix(
            (data.reshape(-1), indices, indptr), shape=(len(indptr) - 1, 3 * self.n_views)
        )

    def reduced_matrix(self) -> sp.csr_matrix:
        """Constraint matrix with the reference view's columns removed.

        The solver never builds it or :meth:`full_matrix`; both stay as
        the oracles the tests check ``_dense_triangle`` and
        ``_block_gram`` against.
        """
        return self.full_matrix()[:, self.free_columns]


def assemble_system(tracks: list, rotations: np.ndarray, reference_view: int) -> TranslationSystem:
    """Assemble the homogeneous system over stacked camera centers.

    Anchors come from one batched selection and every track's rows from
    one pass of the anchored-depth kernel over the observation table
    (:mod:`poseonly.observations`), all in the world frame:
    ``B = (x_i x g) a'`` and ``C = theta^2 [x_i]x``.

    Tracks whose every pair is parallax-free are dropped; at least two
    usable tracks are required (a globally rotating-in-place camera set
    cannot constrain translation at all). Rows whose own parallax
    ``|x_i x g|`` vanishes are kept: they are what glues a camera that
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
    return TranslationSystem(
        n_views=n_views,
        reference_view=reference_view,
        row_views=table.row_view,
        lefts=table.left[row_track],
        rights=table.right[row_track],
        row_track=row_track,
        x=terms.x,
        W=terms.W,
        bases={tid: bases[tid] for tid in table.track_ids.tolist()},
        probe_views=np.stack((table.left, table.right), axis=1),
        probe_a=terms.a,
        theta_sq=terms.theta_sq,
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
    for lo in range(0, len(system.x), _MATRIX_CHUNK):
        hi = min(lo + _MATRIX_CHUNK, len(system.x))
        BC = np.concatenate(system._blocks(slice(lo, hi)), axis=2)
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
    keep = system.free_columns
    half = half[np.ix_(keep, keep)]
    return half + half.T


def _ray_basis(x: np.ndarray) -> np.ndarray:
    """(k, 2, 3) orthonormal basis (e1, e2) of the plane orthogonal to
    each ray of ``x`` (k, 3), with ``e2 = x/|x| x e1``; e1 is x crossed
    with the axis along which x is smallest, so it never degenerates."""
    e1 = cross_rows(x, np.eye(3)[np.abs(x).argmin(axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = cross_rows(x, e1)
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    return np.stack((e1, e2), axis=1)


def _dense_triangle(system: TranslationSystem) -> np.ndarray:
    """Triangle T of the reduced constraint matrix R (``T'T = R'R``), by a
    tall-skinny QR straight from the blocks; R is never built.

    The ray x annihilates both blocks from the left, so their rows along
    a basis e of x's orthogonal plane keep R'R: ``(e . W) a'`` of B and
    ``theta^2 (e x x)'`` of C. A chunk of blocks becomes dense rows, 2 per
    block: B at the anchor-right view's columns, D = -(B + C) at the
    anchor-left's, and C added at the observing view's, which may be the
    anchor right. The reference view's columns sit last and are cut off.
    Each chunk is QR-factored, and the stacked chunk triangles are
    factored once more. T shares R's singular values and right-singular
    vectors.
    """
    n = system.n_views
    cols = 3 * (n - 1)
    slot = np.arange(n) - (np.arange(n) > system.reference_view)
    slot[system.reference_view] = n - 1
    step = -(-max(_QR_CHUNK_MIN_ROWS, _QR_CHUNK_ROWS_PER_COL * cols) // 2)
    triangles = []
    for lo in range(0, len(system.x), step):
        x, track = system.x[lo:lo + step], system.row_track[lo:lo + step]
        E = _ray_basis(x)
        B = (E @ system.W[lo:lo + step, :, None]) * system.probe_a[track][:, None, :]
        C = system.theta_sq[track][:, None, None] * cross_rows(E, x[:, None, :])
        k = np.arange(len(x))
        rows = np.zeros((len(x), 2, n, 3))  # (block, row, view slot, col)
        rows[k, :, slot[system.rights[lo:lo + step]]] = B
        rows[k, :, slot[system.lefts[lo:lo + step]]] = -(B + C)
        rows[k, :, slot[system.row_views[lo:lo + step]]] += C
        triangles.append(np.linalg.qr(rows.reshape(2 * len(x), 3 * n)[:, :cols], mode="r"))
    return np.linalg.qr(np.concatenate(triangles), mode="r")


def _spectrum(system: TranslationSystem, k: int):
    """At most k smallest singular values (ascending) of the reduced
    system, the right-singular vector of the smallest one, and the
    resolution floor of the path that computed them.

    The reduced shape alone picks the path, without building either
    matrix. Up to ``_DENSE_MAX_COLS`` columns and ``_DENSE_MAX_ENTRIES``
    entries, the SVD of its QR triangle resolves singular values down to
    ``SVD_RESOLUTION`` of sigma_max. Larger systems take the
    eigenvectors of the block Gram matrix R'R; ``eigh`` resolves its
    eigenvalues only to about ``cols * eps`` of sigma_max^2, so singular
    values below ``sqrt(cols * eps)`` of sigma_max are rounding noise.
    """
    rows, cols = 3 * len(system.x), 3 * (system.n_views - 1)
    k = min(k, cols)
    if cols <= _DENSE_MAX_COLS and rows * cols <= _DENSE_MAX_ENTRIES:
        _, s, Vt = np.linalg.svd(_dense_triangle(system), full_matrices=False)
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

    Each surviving track votes with the sign of ``a . (t_left - t_right)``
    of its anchor pair, which is positive exactly when the anchored depth
    is positive (feature in front of the camera). One vote per track; the
    majority wins.
    """

    def count(t):
        left, right = system.probe_views.T
        s = np.einsum("ki,ki->k", system.probe_a, t[left] - t[right])
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
    ratio = floored_gap(float(spectrum[0]), float(spectrum[1]), floor)
    if ratio < RANK_RATIO_MIN:
        raise RankDeficient(
            f"singular gap sigma2/sigma1 = {ratio:.3g} < {RANK_RATIO_MIN:g}"
        )

    translations = np.zeros((system.n_views, 3))
    translations.reshape(-1)[system.free_columns] = null_vec
    translations, votes = disambiguate_sign(translations, system)
    scale_norm = float(np.linalg.norm(translations.reshape(-1)[system.free_columns]))
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
    return floored_gap(float(spectrum[0]), float(spectrum[1]), floor)
