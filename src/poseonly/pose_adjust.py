"""Pose-only nonlinear refinement.

Minimizes reprojection error over camera poses alone: for each track the
feature's depth in its anchor-left view is expressed through the anchor
pair's observed rays and the current poses, so no 3D point parameters
exist. The parameter space is 6(n-1)-1: the reference pose is fixed
entirely and the scale-anchor view's center norm is frozen, which kills
the similarity gauge of the cost.

Rotation increments are axis-angle vectors applied as right-multiplied
perturbations of the current rotations; the scale anchor moves on its
sphere through a two-parameter tangent update. Damped (Levenberg-
Marquardt) normal equations with Marquardt diagonal scaling drive the
iteration; steps that do not lower the cost are rejected, so the cost
history is non-increasing by construction.

The optimizer cuts the table once into runs of whole tracks, and its
residual pass (:func:`_residuals`) and normal-equation build
(:func:`_normal_equations`) go one run at a time. The pass computes each
pose state once: per track the anchor-pair kernel alone
(:func:`~poseonly.observations.pair_terms`, no per-row ray), per row the
feature relative to its observing center and in its camera's frame
(:class:`_Projection`). Between iterations the optimizer holds the
accepted state's residuals and each run's projection (64 bytes per row
and 112 per track), from which the build forms the Jacobian's
block-sparse factors J6 = Jc + Jp D (:func:`_factors`) without
projecting again, never J; only the dense 6n x 6n matrix they add into
grows, with the views. :func:`pa_residuals` and the oracle
:func:`pa_jacobian` take the whole table as one run.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.spatial.transform import Rotation

from .errors import ConfigInvalid, DegenerateBase, DivergedNumerically, InsufficientParallax
from .geometry import CameraPose, cross_rows, skew_batch
from .observations import (
    PairTerms,
    anchor_table,
    build_table,
    flatten_tracks,
    pair_terms,
    pose_arrays,
    split_table,
)

# Levenberg-Marquardt damping: the initial lambda, and the factors it is
# raised by after a rejected step and lowered by after an accepted one.
_LM_LAMBDA0 = 1e-3
_LM_UP = 10.0
_LM_DOWN = 10.0

# The residual pass and the normal equations go over runs of whole tracks
# of at most this many table rows (a longer track is a run of its own),
# and the reprojection check over chunks of as many observations, so
# their per-row working set stays bounded at any observation count.
_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class PAConfig:
    max_iter: int = 100
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12
    refine_rotations: bool = True

    def __post_init__(self):
        if self.max_iter < 0:
            raise ConfigInvalid(f"max_iter must be non-negative, got {self.max_iter}")
        for name in ("gradient_tol", "step_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigInvalid(f"{name} must be finite and non-negative, got {value!r}")


@dataclass
class OptimizeReport:
    iterations: int
    initial_cost: float
    final_cost: float
    cost_history: list
    converged: bool
    termination: str  # gradient | step | max_iter
    dropped_tracks: int = 0


class PoseParameterization:
    """Linear map S from a flat increment vector onto per-view updates.

    :meth:`matrix` is S, sparse (6n, n_params): view v owns rows 6v to
    6v + 6, a rotation increment (axis-angle, right-multiplied) then a
    center increment. Each non-reference view (ascending id) has 3
    rotation parameters at ``rot_col`` when rotations are refined, then
    ``trans_width`` center parameters at ``trans_col``: an identity block,
    or for the scale anchor, whose center norm stays at
    ``anchor_radius``, the 3x2 tangent basis :meth:`anchor_basis`.
    """

    def __init__(self, n_views, reference_view, anchor_view=None,
                 refine_rotations=True, anchor_radius=None):
        self.n_views = n_views
        self.reference_view = reference_view
        self.anchor_view = anchor_view
        self.refine_rotations = refine_rotations
        self.anchor_radius = anchor_radius
        if not 0 <= reference_view < n_views:
            raise ValueError(f"reference view {reference_view} out of range")
        if anchor_view is not None and (anchor_view == reference_view
                                        or not (anchor_radius and anchor_radius > 0)):
            raise ValueError("anchor view must be a non-reference view with a positive radius")
        self.rot_col = np.full(n_views, -1, dtype=int)
        self.trans_col = np.full(n_views, -1, dtype=int)
        self.trans_width = np.zeros(n_views, dtype=int)
        cursor = 0
        for v in range(n_views):
            if v == reference_view:
                continue
            if refine_rotations:
                self.rot_col[v] = cursor
                cursor += 3
            width = 2 if v == anchor_view else 3
            self.trans_col[v] = cursor
            self.trans_width[v] = width
            cursor += width
        self.n_params = cursor

    def anchor_basis(self, center: np.ndarray) -> np.ndarray:
        """Orthonormal tangent basis (3, 2) of the anchor sphere at
        ``center``; deterministic in the center alone."""
        unit = center / np.linalg.norm(center)
        helper = np.array([1.0, 0.0, 0.0])
        if abs(unit @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        e1 = helper - (helper @ unit) * unit
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(unit, e1)
        return np.stack([e1, e2], axis=1)

    def matrix(self, Cs: np.ndarray) -> sp.csr_matrix:
        """The sparse (6n, n_params) map S at centers ``Cs``: view v's
        (rotation, center) increment is ``(S @ delta)[6v:6v + 6]``."""
        eye = np.arange(3)
        rot = np.flatnonzero(self.rot_col >= 0)
        free = np.flatnonzero(self.trans_width == 3)
        rows = np.concatenate((6 * rot[:, None] + eye, 6 * free[:, None] + 3 + eye)).ravel()
        cols = np.concatenate((self.rot_col[rot, None] + eye, self.trans_col[free, None] + eye)).ravel()
        values = np.ones(len(rows))
        v = self.anchor_view
        if v is not None:
            rows = np.append(rows, np.repeat(6 * v + 3 + eye, 2))
            cols = np.append(cols, np.tile(self.trans_col[v] + np.arange(2), 3))
            values = np.append(values, self.anchor_basis(Cs[v]))
        return sp.csr_matrix((values, (rows, cols)), shape=(6 * self.n_views, self.n_params))

    def apply(self, Rs: np.ndarray, Cs: np.ndarray, delta: np.ndarray):
        """New pose arrays after the increment; inputs are untouched."""
        step = (self.matrix(Cs) @ delta).reshape(self.n_views, 6)
        Rs_new = Rs.copy()
        views = np.flatnonzero(self.rot_col >= 0)
        if len(views):
            mats = Rotation.from_rotvec(step[views, :3]).as_matrix()
            Rs_new[views] = np.einsum("kij,kjl->kil", Rs[views], mats)
        Cs_new = Cs + step[:, 3:]
        v = self.anchor_view
        if v is not None:
            Cs_new[v] = self.anchor_radius * Cs_new[v] / np.linalg.norm(Cs_new[v])
        return Rs_new, Cs_new


def select_anchor_view(tracks, n_views, reference_view, centers) -> int | None:
    """Scale anchor: the view sharing the most tracks with the reference
    (ties to the smallest id), skipping views whose center norm is too
    small to carry a scale constraint; None when every view is skipped."""
    owner, views, _ = flatten_tracks(tracks)
    sees_reference = np.zeros(len(tracks), dtype=bool)
    sees_reference[owner[views == reference_view]] = True
    counts = np.bincount(views[sees_reference[owner]], minlength=n_views)
    order = sorted(
        (v for v in range(n_views) if v != reference_view),
        key=lambda v: (-counts[v], v),
    )
    for v in order:
        if np.linalg.norm(centers[v]) > 1e-9:
            return v
    return None


@dataclass(frozen=True)
class _Projection:
    """What the residual pass computes of one run at one pose state and
    the normal-equation build reads: the kernel's per-track terms, and per
    row the feature relative to the observing center, Q = P - C_i =
    depth g + T (world frame), and in the observing camera's frame,
    Y = R_i Q."""

    pair: PairTerms
    Q: np.ndarray  # (M, 3)
    Y: np.ndarray  # (M, 3)


def _project(table, Rs, Cs) -> _Projection:
    """The projection of every row of ``table`` at the poses (Rs, Cs),
    with only the per-track kernel: no per-row ray is computed."""
    pair = pair_terms(table, Rs, Cs)
    row_track, row_view = table.row_track, table.row_view
    Q = (pair.depth[row_track, None] * pair.g[row_track]
         + (Cs[table.left][row_track] - Cs[row_view]))
    return _Projection(pair, Q, np.einsum("kij,kj->ki", Rs[row_view], Q))


def _residuals(runs, Rs, Cs, on_degenerate):
    """One 2-vector per table row (tracks by id, views in track order,
    anchor-left view skipped), one run at a time; rows of tracks whose
    anchor pair collapsed (:attr:`PairTerms.collapsed`) are zero.
    Returns (residuals, dropped track ids, each run's :class:`_Projection`)."""
    res = np.empty((sum(len(run.rows) for run in runs), 2))
    dropped, projections = [], []
    stop = 0
    for run in runs:
        part = _project(run, Rs, Cs)
        degenerate = part.pair.collapsed
        if on_degenerate == "raise" and degenerate.any():
            k = int(np.argmax(degenerate))
            raise DegenerateBase(f"track {run.track_ids[k]}: anchor pair theta^2 "
                                 f"{part.pair.theta_sq[k]!r} collapsed below the floor")
        start, stop = stop, stop + len(run.rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            res[start:stop] = part.Y[:, :2] / part.Y[:, 2:3] - run.obs_xy[run.rows]
        res[start:stop][degenerate[run.row_track]] = 0.0
        dropped += run.track_ids[degenerate].tolist()
        projections.append(part)
    return res.reshape(-1), dropped, projections


def pa_residuals(poses, tracks, bases, on_degenerate: str = "raise"):
    """Residual vector of the pose-only cost at the given poses.

    Depths come from the anchor pair evaluated with the observed (noisy)
    rays and the current poses. ``on_degenerate`` chooses between
    raising DegenerateBase and dropping the track's slots (zero
    contribution) as the optimizer does, ``"raise"`` or ``"drop"``;
    returns (residuals, dropped_track_ids).
    """
    if on_degenerate not in ("raise", "drop"):
        raise ValueError(f"on_degenerate must be 'raise' or 'drop', not {on_degenerate!r}")
    Rs, Cs = pose_arrays(poses)
    return _residuals([build_table(tracks, bases, Rs)], Rs, Cs, on_degenerate)[:2]


def _factors(table, Rs, part):
    """The three block-sparse factors of the Jacobian J6 = Jc + Jp D over
    all 6n view (rotation, center) columns, from the :class:`_Projection`
    ``part`` at the poses with rotations ``Rs``.

    Row k sees the feature P = C_left + depth g at Y = R_i Q, Q = P - C_i
    (world frame throughout). With PR = P_pi R_i, P_pi the Jacobian of
    the projection Y -> Y[:2] / Y[2], the row is PR [dP | N]: the
    observing view's block N = [-[Q]x | -I] and the anchor views through
    P alone, dP (3 x 12) the per-track derivative of P over the
    anchor-left and anchor-right (rotation, center): g d' plus depth
    [g]x at the left rotation and I at the left center. The depth's
    gradient d is (q x g, a, -(q x g) - a x T_right, -a) / theta^2, with
    q = x_r (x_r . T_right) - T_right |x_r|^2 + 2 depth a.

    Jc holds PR N, one 2x6 block per row at its observing view; Jp holds
    PR, one 2x3 block per row at its track; D holds dP, two 3x6 blocks
    per track at its anchor-left and anchor-right views, in that order.
    All three are zero on collapsed tracks, whose depth can be large
    enough for their derivatives to overflow.
    """
    pair = part.pair
    valid = ~pair.collapsed
    inv_sq = np.divide(1.0, pair.theta_sq, out=np.zeros_like(pair.theta_sq), where=valid)
    g, a, v, s = pair.g, pair.a, pair.x_r, pair.T_right
    q = (v * np.einsum("ti,ti->t", v, s)[:, None] - s * np.einsum("ti,ti->t", v, v)[:, None]
         + 2.0 * pair.depth[:, None] * a)
    d = np.empty((len(g), 4, 3))
    d[:, 0] = cross_rows(q, g) * inv_sq[:, None]
    d[:, 1] = a * inv_sq[:, None]
    d[:, 2] = -d[:, 0] - cross_rows(a, s) * inv_sq[:, None]
    d[:, 3] = -d[:, 1]
    dP = g[:, :, None] * d.reshape(-1, 1, 12)
    dP[:, :, :3] += pair.depth[:, None, None] * skew_batch(g)
    dP[:, :, 3:6] += np.eye(3)
    dP[~valid] = 0.0

    # PR and PR N are formed component-major, (..., rows), so that each
    # operation runs over all rows at once, then laid out row by row for
    # the blocks. R[a] holds row a of every row's R_i.
    R, Q, Y = Rs.transpose(1, 2, 0)[:, :, table.row_view], part.Q.T, part.Y.T
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_z = 1.0 / Y[2]
        # P_pi @ v = (v[:2] - proj * v[2]) / z, proj = Y[:2] / z
        PR = np.stack([(R[a] - Y[a] * inv_z * R[2]) * inv_z for a in range(2)])
    # Row a of PR N is (Q x PR[a], -PR[a]).
    PRN = np.empty((2, 6, len(inv_z)))
    PRN[:, 0] = Q[1] * PR[:, 2] - Q[2] * PR[:, 1]
    PRN[:, 1] = Q[2] * PR[:, 0] - Q[0] * PR[:, 2]
    PRN[:, 2] = Q[0] * PR[:, 1] - Q[1] * PR[:, 0]
    PRN[:, 3:] = -PR
    PR, PRN = PR.transpose(2, 0, 1).copy(), PRN.transpose(2, 0, 1).copy()
    dead = ~valid[table.row_track]
    PR[dead] = 0.0
    PRN[dead] = 0.0

    rows, tracks, n = len(PR), len(g), len(Rs)
    one_per_row = np.arange(rows + 1)
    Jc = sp.bsr_matrix((PRN, table.row_view, one_per_row), shape=(2 * rows, 6 * n))
    Jp = sp.bsr_matrix((PR, table.row_track, one_per_row), shape=(2 * rows, 3 * tracks))
    D = sp.bsr_matrix((dP.reshape(-1, 3, 2, 6).transpose(0, 2, 1, 3).reshape(-1, 3, 6),
                       np.stack((table.left, table.right), axis=1).reshape(-1),
                       2 * np.arange(tracks + 1)), shape=(3 * tracks, 6 * n))
    return Jc, Jp, D


def pa_jacobian(poses, tracks, bases, parameterization: PoseParameterization) -> sp.csr_matrix:
    """Analytic Jacobian of :func:`pa_residuals` at the given poses.

    Each residual slot touches at most the anchor-left, anchor-right and
    observing views; all other columns are structurally zero. The
    optimizer never forms it: this is the oracle its normal equations
    are checked against.
    """
    Rs, Cs = pose_arrays(poses)
    table = build_table(tracks, bases, Rs)
    Jc, Jp, D = _factors(table, Rs, _project(table, Rs, Cs))
    return (Jc + Jp @ D).tocsr() @ parameterization.matrix(Cs)


def _run_products(table, Rs, part, res):
    """X = D'(W + UD/2) and the block diagonal Jc'Jc, BSR matrices of 6x6
    blocks, and J6'r over the 6n view columns, for one table, its
    :class:`_Projection` ``part`` and residuals ``res``;
    J6'J6 = X + X' + Jc'Jc.

    With the factors of :func:`_factors`, J6 = Jc + Jp D gives
        J6'J6 = Jc'Jc + W'D + D'W + D'UD,   J6'r = Jc'r + D'(Jp'r),
    where W = Jp'Jc holds one 3x6 block per row (at its track and
    observing view) and U = Jp'Jp one 3x3 block per track. W + UD/2 has
    one block per observation: a track's rows fill every slot but the
    anchor-left one, which UD's left block takes, and UD's right block
    adds to the anchor-right row's. Every block sits where the table
    puts it. Jc has one block per row at its observing view, so Jc'Jc
    has one per view, on the diagonal.
    """
    Jc, Jp, D = _factors(table, Rs, part)
    PR, track_rows, n = Jp.data, table.row_start[:-1], len(Rs)
    W = PR.transpose(0, 2, 1) @ Jc.data
    # The center half of PR N is -PR, so W's is -PR'PR: U needs no product.
    U = -np.add.reduceat(W[:, :, 3:], track_rows)
    half_UD = 0.5 * (U[:, None] @ D.data.reshape(-1, 2, 3, 6))
    E = np.empty((len(table.obs_view), 3, 6))
    E[table.rows] = W
    E[table.left_obs] = half_UD[:, 0]
    E[table.rows[table.right_row]] += half_UD[:, 1]
    E = sp.bsr_matrix((E, table.obs_view, table.track_start), shape=(3 * len(U), 6 * n))

    Jc_t, D_t = Jc.T, D.T
    r = res.reshape(-1, 2)
    Jp_r = np.add.reduceat(PR[:, 0] * r[:, :1] + PR[:, 1] * r[:, 1:], track_rows)
    return D_t @ E, Jc_t @ Jc, Jc_t @ res + D_t @ Jp_r.ravel()


def _normal_equations(runs, Rs, projections, res, S):
    """G = J'J and grad = J'r of the pose-only cost over the parameters of
    the map ``S``, without forming J, at the poses :func:`_residuals` gave
    ``res`` and the per-run ``projections`` at.

    The ``runs`` of whole tracks (:func:`~poseonly.observations.split_table`)
    go through :func:`_run_products` one at a time with their projections
    and slices of ``res``. No track spans two runs, so their X, Jc'Jc and
    J6'r add up to the whole table's, and the block-sparse arrays hold one
    run of at most ``_CHUNK_ROWS`` rows (more only for a single longer
    track). Each run's blocks go straight into the dense G6 (6n x 6n) and
    the per-view diagonal; only G6 = X + X' + Jc'Jc, which gives
    G = S'G6S and grad = S'g6, grows, with the views.
    """
    n = len(Rs)
    G6, g6, JcJc = np.zeros((6 * n, 6 * n)), np.zeros(6 * n), np.zeros((n, 6, 6))
    G6_blocks = G6.reshape(n, 6, n, 6).swapaxes(1, 2)  # [u, v] is the 6x6 block (u, v)
    stop = 0
    for run, part in zip(runs, projections):
        start, stop = stop, stop + 2 * len(run.rows)
        X, JcJc_run, Jr = _run_products(run, Rs, part, res[start:stop])
        # A BSR product holds each block once, as the += below needs.
        G6_blocks[np.repeat(np.arange(n), np.diff(X.indptr)), X.indices] += X.data
        JcJc[JcJc_run.indices] += JcJc_run.data
        g6 += Jr
    G6 += G6.T
    views = np.arange(n)
    G6_blocks[views, views] += JcJc
    return S.T @ G6 @ S, S.T @ g6


def pa_optimize(initial_poses, tracks, config: PAConfig | None = None,
                reference_view: int = 0):
    """Levenberg-Marquardt refinement of camera poses.

    Anchor pairs are selected once from the initial poses and frozen for
    the whole optimization (re-selecting each iteration would make the
    cost discontinuous). Returns (poses, OptimizeReport); the cost
    history is non-increasing, and a non-finite cost at an accepted
    state raises DivergedNumerically instead of being clamped. With no
    track whose anchor pair has parallax there is no cost to lower, and
    InsufficientParallax is raised.
    """
    config = config or PAConfig()
    Rs, Cs = pose_arrays(initial_poses)
    n_views = len(initial_poses)

    table, degenerate = anchor_table(tracks, Rs)
    if not len(table.track_ids):
        raise InsufficientParallax(
            f"none of {len(tracks)} track(s) carries parallax; nothing to refine"
        )
    runs = split_table(table, _CHUNK_ROWS)

    dead = set(degenerate)
    used = [t for t in tracks if t.track_id not in dead]
    anchor_view = select_anchor_view(used, n_views, reference_view, Cs)
    radius = float(np.linalg.norm(Cs[anchor_view])) if anchor_view is not None else None
    param = PoseParameterization(
        n_views, reference_view, anchor_view, config.refine_rotations, radius
    )

    res, dropped, projections = _residuals(runs, Rs, Cs, "drop")
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise DivergedNumerically(f"initial cost is {cost!r}")
    history = [cost]
    lam = _LM_LAMBDA0
    termination = "max_iter"
    iterations = 0

    while iterations < config.max_iter:
        G, grad = _normal_equations(runs, Rs, projections, res, param.matrix(Cs))
        if np.max(np.abs(grad), initial=0.0) <= config.gradient_tol:
            termination = "gradient"
            break
        diag = np.diag(G).copy()
        diag[diag < 1e-12] = 1e-12

        accepted = False
        while lam <= 1e15:
            H = G + lam * np.diag(diag)
            try:
                factor = scipy.linalg.cho_factor(H)
                delta = scipy.linalg.cho_solve(factor, -grad)
            except scipy.linalg.LinAlgError:
                lam *= _LM_UP
                continue
            Rs_try, Cs_try = param.apply(Rs, Cs, delta)
            res_try, dropped_try, projections_try = _residuals(runs, Rs_try, Cs_try, "drop")
            cost_try = float(res_try @ res_try)
            if np.isfinite(cost_try) and cost_try < cost:
                accepted = True
                break
            lam *= _LM_UP
        if not accepted:
            termination = "step"
            break

        Rs, Cs = Rs_try, Cs_try
        res, dropped, projections, cost = res_try, dropped_try, projections_try, cost_try
        history.append(cost)
        lam = max(lam / _LM_DOWN, 1e-15)
        iterations += 1
        if float(np.linalg.norm(delta)) <= config.step_tol:
            termination = "step"
            break

    poses = [CameraPose(R, c) for R, c in zip(Rs, Cs)]
    report = OptimizeReport(
        iterations=iterations,
        initial_cost=history[0],
        final_cost=history[-1],
        cost_history=history,
        converged=termination in ("gradient", "step"),
        termination=termination,
        dropped_tracks=len(degenerate) + len(dropped),
    )
    return poses, report


def reprojection_stats(poses, points_w, tracks):
    """BA-form reprojection error of supplied 3D points.

    ``points_w`` maps track_id to a world point; tracks without an entry
    are skipped (rejected points). Observations with non-positive depth
    are excluded from the RMS and counted as cheirality violations.
    Returns (rms, violations, observations_used). The RMS is the root
    mean square over observations of the residual 2-vector norm; it is
    inf when no observation is scored (no point, or every observation
    behind its camera), so an empty fit never reads as a perfect one.
    """
    Rs, Cs = pose_arrays(poses)
    scored = [t for t in tracks if t.track_id in points_w]
    if not scored:
        return float("inf"), 0, 0
    owner, V, O = flatten_tracks(scored)
    points = np.stack([np.asarray(points_w[t.track_id], dtype=float) for t in scored])
    cam = np.empty((len(V), 3))
    for s in range(0, len(V), _CHUNK_ROWS):  # no (N, 3, 3) gather of the whole input
        c = slice(s, s + _CHUNK_ROWS)
        np.einsum("nij,nj->ni", Rs[V[c]], points[owner[c]] - Cs[V[c]], out=cam[c])
    z = cam[:, 2]
    ok = z > 0
    violations = int((~ok).sum())
    if not ok.any():
        return float("inf"), violations, 0
    res = cam[ok, :2] / z[ok, None] - O[ok]
    rms = float(np.sqrt((res * res).sum() / ok.sum()))
    return rms, violations, int(ok.sum())


def reprojection_rms(poses, points_w, tracks) -> float:
    """RMS reprojection error; see :func:`reprojection_stats`."""
    return reprojection_stats(poses, points_w, tracks)[0]
