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

The system keeps the observation table and per-track terms, no block
and no per-row term. The null vector and the spectrum come from an
eigensolve of the reduced matrix's Gram (:func:`_block_gram`), summed
from the per-row kernel one run of the table at a time, whatever the
system's size (:func:`_spectrum`). The rank test floors singular values
at that eigensolve's resolution, sqrt(cols * eps) of the largest.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InsufficientParallax, RankDeficient
from .geometry import cross_rows, skew_batch
from .observations import (  # noqa: F401  BaseViewPair, select_base_views: re-exported
    BaseViewPair,
    ObservationTable,
    PairTerms,
    anchor_table,
    anchored_terms,
    base_pairs,
    pair_terms,
    select_base_views,
    split_table,
)

# sigma_2 / sigma_1 below this means the null space is not unique.
# Exact-data gaps read sigma_2 over the eigensolve's floor, mostly
# 1e4-1e7 on the simulator's scenes (a 60-view scene of 2 points read
# 452), and genuinely ambiguous systems sit near 1; under 1e-3 observation
# noise healthy systems measure 55-89 at 20 views x 200 points and 23-38
# at 100 x 1000, so the refusal threshold must stay below that band.
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
    one block per row of ``table``, in its (track_id, row_view) order;
    ``B = W a'`` and ``C = theta^2 [x]x`` come from the per-row kernel on
    each access. When the observing ray is parallel to the anchor-left ray, B
    vanishes but C does not (C carries the anchor pair's theta^2, not the
    row's own parallax); the surviving C (t_i - t_left) = 0 content is
    what pins a camera that only rotates in place to its co-located
    partner. The reference view's columns are
    dropped from the reduced matrix, which fixes the translation gauge.
    """

    n_views: int
    reference_view: int
    rotations: np.ndarray
    table: ObservationTable  # anchor_table's, of the tracks with parallax
    terms: PairTerms  # pair_terms(table, rotations): per track, no centers

    # Per block: its observing, anchor-left and anchor-right view.
    row_views = property(lambda self: self.table.row_view)
    lefts = property(lambda self: self.table.left[self.table.row_track])
    rights = property(lambda self: self.table.right[self.table.row_track])

    @property
    def bases(self) -> dict:
        """track_id -> BaseViewPair of every track with rows."""
        table = self.table
        return base_pairs(table.track_ids, table.left, table.right, np.sqrt(self.terms.theta_sq))

    def _blocks(self):
        """B and C, (m, 3, 3) each, from the kernel over the whole table."""
        track, terms = self.table.row_track, anchored_terms(self.table, self.rotations)
        B = terms.W[:, :, None] * terms.a[track][:, None, :]
        return B, terms.theta_sq[track][:, None, None] * skew_batch(terms.x)

    B = property(lambda self: self._blocks()[0], doc="(m, 3, 3) blocks, built per access")
    C = property(lambda self: self._blocks()[1], doc="(m, 3, 3) blocks, built per access")

    @property
    def sign_probes(self):
        """(left, right, a_vec) per track, ``a_vec`` in the anchor-right
        view's frame: the anchored depth has the sign of
        ``a_vec . R_right (t_left - t_right)``."""
        a_right = self.rotations[self.table.right] @ self.terms.a[:, :, None]
        return list(zip(self.table.left.tolist(), self.table.right.tolist(), a_right[:, :, 0]))

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
        B, C = self._blocks()
        data = np.stack((B, C, -(B + C)), axis=2)  # (m, row, view, col)
        first = 3 * views.astype(np.int32)[:, None, :, None] + np.arange(3, dtype=np.int32)
        indices = np.broadcast_to(first, data.shape).reshape(-1)
        indptr = np.arange(0, len(indices) + 1, 9)
        return sp.csr_matrix(
            (data.reshape(-1), indices, indptr), shape=(len(indptr) - 1, 3 * self.n_views)
        )

    def reduced_matrix(self) -> sp.csr_matrix:
        """Constraint matrix with the reference view's columns removed.

        The solver never builds it or :meth:`full_matrix`; both stay as
        the oracles the tests check ``_block_gram`` and the spectrum
        against.
        """
        return self.full_matrix()[:, self.free_columns]


def assemble_system(tracks: list, rotations: np.ndarray, reference_view: int) -> TranslationSystem:
    """Assemble the homogeneous system over stacked camera centers.

    The selection pass builds the observation table with every track's
    anchors, and the system keeps it with the per-track anchor-pair terms
    (:mod:`poseonly.observations`); the rows
    ``B = (x_i x g) a'`` and ``C = theta^2 [x_i]x``, in the world frame,
    are the per-row kernel's, which the solve runs one run at a time.

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

    table, _ = anchor_table(tracks, rotations)
    if len(table.track_ids) < 2:
        raise InsufficientParallax(
            f"only {len(table.track_ids)} track(s) carry parallax; need at least 2"
        )
    return TranslationSystem(n_views, reference_view, rotations, table,
                             pair_terms(table, rotations))


def _block_gram(system: TranslationSystem) -> np.ndarray:
    """Gram matrix ``R' R`` of the reduced constraint matrix R, accumulated
    straight from the kernel's terms one run of whole tracks at a time
    (:func:`~poseonly.observations.split_table`); neither R nor the 3x3
    blocks are built.

    With ``P = B'B``, ``Q = B'C`` and ``S = C'C`` a block adds ``P``,
    ``Q``, ``-(P + Q)``, ``S``, ``-(Q' + S)`` and ``P + Q + Q' + S`` to the
    (right, right), (right, row), (right, left), (row, row), (row, left)
    and (left, left) view blocks, and their transposes to the mirrored
    blocks; D = -(B + C) is never multiplied. The products have closed
    forms in the kernel's terms: ``P = |W|^2 a a'``, ``Q = a u'`` with
    ``u = theta^2 (W x x)`` and ``S = theta^4 (|x|^2 I - x x')``. Only one
    half of each symmetric pair is scattered (diagonal terms at 1/2), one
    entry of the 3x3 blocks at a time, and the Gram matrix is that half
    plus its transpose. The three terms keyed by (right, left) alone are
    first summed over each track's rows.
    """
    n = system.n_views
    half = np.zeros((9, n * n))
    for run in split_table(system.table):
        terms = anchored_terms(run, system.rotations)
        track, starts = run.row_track, run.row_start[:-1]
        theta_sq, a, x, W = terms.theta_sq[track], terms.a[track], terms.x, terms.W
        u = theta_sq[:, None] * cross_rows(W, x)
        theta_4, x_sq = theta_sq * theta_sq, np.einsum("ki,ki->k", x, x)
        W_sq_k = np.add.reduceat(np.einsum("ki,ki->k", W, W), starts)
        a_k, u_k = terms.a.T.copy(), np.add.reduceat(u, starts).T.copy()
        a, u, x = a.T.copy(), u.T.copy(), x.T.copy()
        right, row, left = run.right[track], run.row_view, run.left[track]
        r, l = run.right, run.left
        keys = np.concatenate(
            (r * n + r, r * n + l, l * n + l, right * n + row, row * n + row, row * n + left)
        )
        for e in range(9):
            i, j = divmod(e, 3)
            S = theta_4 * ((x_sq if i == j else 0.0) - x[i] * x[j])
            P_k, Q_k, S_k = W_sq_k * a_k[i] * a_k[j], a_k[i] * u_k[j], np.add.reduceat(S, starts)
            values = np.concatenate((
                0.5 * P_k, -(P_k + Q_k), Q_k + 0.5 * (P_k + S_k),
                a[i] * u[j], 0.5 * S, -(a[j] * u[i] + S),
            ))
            half[e] += np.bincount(keys, weights=values, minlength=n * n)
    half = half.reshape(3, 3, n, n).transpose(2, 0, 3, 1).reshape(3 * n, 3 * n)
    keep = system.free_columns
    half = half[np.ix_(keep, keep)]
    return half + half.T


def _spectrum(system: TranslationSystem, k: int):
    """At most k smallest singular values (ascending) of the reduced
    system, the right-singular vector of the smallest one, and the
    resolution floor below which singular values are rounding noise.

    All three come from ``eigh`` of the block Gram matrix R'R.
    The normal equations square R's condition number: ``eigh`` resolves
    their eigenvalues only to about ``cols * eps`` of sigma_max^2, so
    the floor is ``sqrt(cols * eps)`` of sigma_max.
    """
    cols = 3 * (system.n_views - 1)
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
        left, right = system.table.left, system.table.right
        s = np.einsum("ki,ki->k", system.terms.a, t[left] - t[right])
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
