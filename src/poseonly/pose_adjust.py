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
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.spatial.transform import Rotation

from .errors import DegenerateBase, DivergedNumerically
from .geometry import CameraPose
from .observations import (
    anchored_terms,
    build_table,
    flatten_tracks,
    pose_arrays,
    select_bases,
)

# Levenberg-Marquardt damping: the initial lambda, and the factors it is
# raised by after a rejected step and lowered by after an accepted one.
_LM_LAMBDA0 = 1e-3
_LM_UP = 10.0
_LM_DOWN = 10.0


@dataclass(frozen=True)
class PAConfig:
    max_iter: int = 100
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12
    refine_rotations: bool = True


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
    """Maps a flat increment vector onto per-view pose updates.

    Layout per non-reference view (ascending id): 3 rotation parameters
    (when rotations are refined) then the translation parameters - 3 for
    free views, 2 tangent parameters for the scale-anchor view whose
    center norm stays at ``anchor_radius``.
    """

    def __init__(self, n_views, reference_view, anchor_view=None,
                 refine_rotations=True, anchor_radius=None):
        self.n_views = n_views
        self.reference_view = reference_view
        self.anchor_view = anchor_view
        self.refine_rotations = refine_rotations
        self.anchor_radius = anchor_radius
        if anchor_view is not None and not (anchor_radius and anchor_radius > 0):
            raise ValueError("anchor view requires a positive frozen radius")
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

    def apply(self, Rs: np.ndarray, Cs: np.ndarray, delta: np.ndarray):
        """New pose arrays after the increment; inputs are untouched."""
        Rs_new = Rs.copy()
        Cs_new = Cs.copy()
        views = np.flatnonzero(self.rot_col >= 0)
        if len(views):
            phis = delta[self.rot_col[views, None] + np.arange(3)]
            mats = Rotation.from_rotvec(phis).as_matrix()
            Rs_new[views] = np.einsum("kij,kjl->kil", Rs[views], mats)
        free = np.flatnonzero(self.trans_width == 3)
        Cs_new[free] = Cs[free] + delta[self.trans_col[free, None] + np.arange(3)]
        v = self.anchor_view
        if v is not None and self.trans_col[v] >= 0:
            col = self.trans_col[v]
            moved = Cs[v] + self.anchor_basis(Cs[v]) @ delta[col:col + 2]
            Cs_new[v] = self.anchor_radius * moved / np.linalg.norm(moved)
        return Rs_new, Cs_new


def select_anchor_view(tracks, n_views, reference_view, centers) -> int | None:
    """Scale anchor: the view sharing the most tracks with the reference
    (ties to the smallest id), skipping views whose center norm is too
    small to carry a scale constraint."""
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
    norms = [np.linalg.norm(centers[v]) for v in range(n_views)]
    fallback = int(np.argmax(norms))
    if fallback != reference_view and norms[fallback] > 1e-9:
        return fallback
    return None


def _residuals(table, Rs, Cs, on_degenerate):
    """One 2-vector per table row (tracks by id, views in track order,
    anchor-left view skipped); rows of tracks whose anchor pair
    collapsed (:attr:`AnchorTerms.collapsed`) are zero."""
    terms = anchored_terms(table, Rs, Cs)
    degenerate = terms.collapsed
    if on_degenerate == "raise" and degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegenerateBase(
            f"track {table.track_ids[k]}: anchor pair theta^2 "
            f"{terms.theta_sq[k]!r} collapsed below the floor"
        )
    row_track = table.row_track
    Y = terms.depth[row_track, None] * terms.U + terms.T
    with np.errstate(divide="ignore", invalid="ignore"):
        res = Y[:, :2] / Y[:, 2:3] - table.obs_xy[table.rows]
    res[degenerate[row_track]] = 0.0
    return res.reshape(-1), table.track_ids[degenerate].tolist()


def pa_residuals(poses, tracks, bases, on_degenerate: str = "raise"):
    """Residual vector of the pose-only cost at the given poses.

    Depths come from the anchor pair evaluated with the observed (noisy)
    rays and the current poses. ``on_degenerate`` chooses between
    raising DegenerateBase and dropping the track's slots (zero
    contribution) as the optimizer does; returns (residuals,
    dropped_track_ids).
    """
    Rs, Cs = pose_arrays(poses)
    table = build_table(tracks, bases)
    return _residuals(table, Rs, Cs, on_degenerate)


@dataclass(frozen=True)
class _JacobianPattern:
    """Fixed CSR structure of the Jacobian for one table and one
    parameterization.

    Every row touches three view groups: anchor left, anchor right and
    the observing view, each with 3 rotation then 3 translation columns.
    Values are computed into a dense (rows, 2, 3, 6) array; ``take``
    gathers the structurally present ones in CSR order. Columns within
    a residual follow ascending view order, and an observing view equal
    to the anchor right is merged into the anchor-right group, so the
    matrix is canonical (sorted, no duplicates).
    """

    views: np.ndarray  # (M, 3) view of each group
    merged: np.ndarray  # (M,) observing view == anchor right
    take: np.ndarray  # (nnz,) flat index into the value array
    indices: np.ndarray  # (nnz,)
    indptr: np.ndarray  # (2M + 1,)
    shape: tuple


def _jacobian_pattern(table, param: PoseParameterization) -> _JacobianPattern:
    row_track = table.row_track
    views = np.stack((table.left[row_track], table.right[row_track], table.row_view), axis=1)
    merged = views[:, 2] == views[:, 1]
    local = np.arange(6)
    is_rot = local < 3
    rot_col = param.rot_col[views][..., None]
    trans_col = param.trans_col[views][..., None]
    cols = np.where(is_rot, rot_col + local, trans_col + local - 3)  # (M, 3, 6)
    present = np.where(is_rot, rot_col >= 0, local - 3 < param.trans_width[views][..., None])
    present[merged, 2] = False
    order = np.argsort(views, axis=1, kind="stable")[..., None]
    cols = np.take_along_axis(cols, order, axis=1)[:, None]
    present = np.take_along_axis(present, order, axis=1)[:, None]
    m = len(views)
    residual = 2 * np.arange(m)[:, None, None, None] + np.arange(2)[None, :, None, None]
    flat = (residual * 3 + order[:, None]) * 6 + local  # (M, 2, 3, 6)
    mask = np.broadcast_to(present, flat.shape)
    indptr = np.zeros(2 * m + 1, dtype=np.int64)
    np.cumsum(np.repeat(present.sum(axis=(1, 2, 3)), 2), out=indptr[1:])
    return _JacobianPattern(
        views=views,
        merged=merged,
        take=flat[mask],
        indices=np.broadcast_to(cols, flat.shape)[mask].astype(np.int32),
        indptr=indptr,
        shape=(2 * m, param.n_params),
    )


def _jacobian(table, pattern, Rs, Cs, param) -> sp.csr_matrix:
    """Analytic Jacobian values at (Rs, Cs), filled into ``pattern``.

    With Y = depth U + T the feature in the observing view's frame and
    P the Jacobian of the projection Y -> Y[:2] / Y[2], the translation
    blocks are P(U k' + R_i), -P U k' and -P R_i (k = R_right' a /
    theta^2); the rotation blocks chain the depth through u, a, theta^2
    and T_right.
    """
    terms = anchored_terms(table, Rs, Cs)
    valid = ~terms.collapsed
    inv_sq = np.divide(1.0, terms.theta_sq, out=np.zeros_like(terms.theta_sq), where=valid)
    row_track = table.row_track
    depth = terms.depth[row_track]
    Y = depth[:, None] * terms.U + terms.T
    with np.errstate(divide="ignore", invalid="ignore"):
        z = Y[:, 2:3]
        proj = Y[:, :2] / z
        # P @ v = (v[:2] - proj * v[2]) / z
        PU = (terms.U[:, :2] - proj * terms.U[:, 2:3]) / z
        PR = (terms.R[:, :2] - proj[:, :, None] * terms.R[:, 2:3]) / z[:, :, None]

    a_world = np.einsum("tji,tj->ti", Rs[table.right], terms.a)
    PUk = PU[:, :, None] * (a_world * inv_sq[:, None])[row_track][:, None, :]
    values = np.zeros((len(row_track), 2, 3, 6))
    values[:, :, 0, 3:] = PUk + PR
    values[:, :, 1, 3:] = -PUk
    values[:, :, 2, 3:] = -PR
    if param.refine_rotations:
        g = terms.g
        v, s = terms.X[table.right_row], terms.T[table.right_row]
        q = (v * np.einsum("ti,ti->t", v, s)[:, None] - s * np.einsum("ti,ti->t", v, v)[:, None]
             + 2.0 * terms.depth[:, None] * terms.a)
        q_world = np.einsum("tji,tj->ti", Rs[table.right], q)
        dd_left = np.cross(q_world, g) * inv_sq[:, None]
        dd_right = -dd_left - np.cross(a_world, Cs[table.left] - Cs[table.right]) * inv_sq[:, None]
        g_rows = g[row_track]
        Q = depth[:, None] * g_rows + Cs[table.left][row_track] - Cs[table.row_view]
        values[:, :, 0, :3] = (PU[:, :, None] * dd_left[row_track][:, None, :]
                               + depth[:, None, None] * np.cross(PR, g_rows[:, None, :]))
        values[:, :, 1, :3] = PU[:, :, None] * dd_right[row_track][:, None, :]
        values[:, :, 2, :3] = -np.cross(PR, Q[:, None, :])

    values[pattern.merged, :, 1] += values[pattern.merged, :, 2]
    if param.anchor_view is not None:
        # The scale anchor moves on its sphere: contract its translation
        # columns through the tangent basis.
        rows, groups = np.nonzero(pattern.views == param.anchor_view)
        E = param.anchor_basis(Cs[param.anchor_view])
        values[rows, :, groups, 3:5] = values[rows, :, groups, 3:] @ E
    values[~valid[row_track]] = 0.0
    data = values.reshape(-1)[pattern.take]
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def pa_jacobian(poses, tracks, bases, parameterization: PoseParameterization) -> sp.csr_matrix:
    """Analytic Jacobian of :func:`pa_residuals` at the given poses.

    Each residual slot touches at most the anchor-left, anchor-right and
    observing views; all other columns are structurally zero.
    """
    Rs, Cs = pose_arrays(poses)
    table = build_table(tracks, bases)
    pattern = _jacobian_pattern(table, parameterization)
    return _jacobian(table, pattern, Rs, Cs, parameterization)


def pa_optimize(initial_poses, tracks, config: PAConfig | None = None,
                reference_view: int = 0):
    """Levenberg-Marquardt refinement of camera poses.

    Anchor pairs are selected once from the initial poses and frozen for
    the whole optimization (re-selecting each iteration would make the
    cost discontinuous). Returns (poses, OptimizeReport); the cost
    history is non-increasing, and a non-finite cost at an accepted
    state raises DivergedNumerically instead of being clamped.
    """
    config = config or PAConfig()
    Rs, Cs = pose_arrays(initial_poses)
    n_views = len(initial_poses)

    bases, degenerate = select_bases(tracks, Rs)
    table = build_table(tracks, bases)

    used = [t for t in tracks if t.track_id in bases]
    anchor_view = select_anchor_view(used, n_views, reference_view, Cs)
    radius = float(np.linalg.norm(Cs[anchor_view])) if anchor_view is not None else None
    param = PoseParameterization(
        n_views, reference_view, anchor_view, config.refine_rotations, radius
    )
    pattern = _jacobian_pattern(table, param)

    res, dropped = _residuals(table, Rs, Cs, "drop")
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise DivergedNumerically(f"initial cost is {cost!r}")
    history = [cost]
    lam = _LM_LAMBDA0
    termination = "max_iter"
    iterations = 0

    while iterations < config.max_iter:
        J = _jacobian(table, pattern, Rs, Cs, param)
        grad = J.T @ res
        if np.max(np.abs(grad), initial=0.0) <= config.gradient_tol:
            termination = "gradient"
            break
        G = (J.T @ J).toarray()
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
            res_try, dropped_try = _residuals(table, Rs_try, Cs_try, "drop")
            cost_try = float(res_try @ res_try)
            if np.isfinite(cost_try) and cost_try < cost:
                accepted = True
                break
            lam *= _LM_UP
        if not accepted:
            termination = "step"
            break

        Rs, Cs = Rs_try, Cs_try
        res, dropped, cost = res_try, dropped_try, cost_try
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
    mean square over observations of the residual 2-vector norm.
    """
    Rs, Cs = pose_arrays(poses)
    scored = [t for t in tracks if t.track_id in points_w]
    if not scored:
        return 0.0, 0, 0
    owner, V, O = flatten_tracks(scored)
    points = np.stack([np.asarray(points_w[t.track_id], dtype=float) for t in scored])
    P = points[owner]
    cam = np.einsum("nij,nj->ni", Rs[V], P - Cs[V])
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
