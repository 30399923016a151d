"""Problem/pose file formats and PLY export.

Problem files (version tag ``POSEONLY 1``) are plain text, one record
per line, every float serialized with ``repr`` so values round-trip
exactly through the decimal form:

    POSEONLY 1
    <n_views> <n_tracks> <n_obs>
    V <view_id> <qw> <qx> <qy> <qz>
    O <track_id> <view_id> <x> <y>
    G <view_id> <qw> <qx> <qy> <qz> <cx> <cy> <cz>
    R <reference_view>

``V`` lines give the solver-input world-to-camera rotation of every view
as a unit quaternion (scalar first); quaternions whose norm is off by
more than 1e-9 are rejected, never silently renormalized. ``O`` lines
are the normalized image observations. Optional ``G`` lines carry the
exact ground-truth pose per view (for evaluation only); if present they
must cover every view. ``R`` names the reference view. A view's ``V``
or ``G`` line, an observation and the ``R`` line may each appear once.

Estimated poses travel between CLI stages in a sibling format:

    POSEONLY-POSES 1
    <n_views>
    P <view_id> <qw> <qx> <qy> <qz> <cx> <cy> <cz>

with exactly one ``P`` line per view.
"""

import math

import numpy as np

from .errors import ParseError, VersionUnsupported
from .geometry import CameraPose, Track
from .simulate import SceneProblem

_QUAT_NORM_TOL = 1e-9


def quat_to_rotation(q) -> np.ndarray:
    """Unit quaternion (scalar first) to a world-to-camera rotation."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(R) -> np.ndarray:
    """Rotation matrix to a unit quaternion, scalar first.

    Shepperd's branching keeps the extraction stable; the sign is
    canonicalized (first nonzero component positive) so output files are
    deterministic.
    """
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s,
             (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s,
             (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
             (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    for component in q:
        if component > 0:
            break
        if component < 0:
            q = -q
            break
    return q


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_quat(tokens, line_no):
    q = np.array([float(t) for t in tokens])
    norm = np.linalg.norm(q)
    if not abs(norm - 1.0) <= _QUAT_NORM_TOL:  # also rejects nan and inf
        raise ParseError(f"quaternion norm {norm!r} is not 1", line=line_no)
    return q / norm


def _require_finite(arrays, raw) -> None:
    """Reject non-finite numbers; the parsed arrays are checked at once
    and the lines are rescanned only to name the first offending one.
    Every line past the header has already parsed, so each field after
    its tag is a number."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    for idx in range(2, len(raw)):
        if not all(math.isfinite(float(t)) for t in raw[idx].split()[1:]):
            raise ParseError("non-finite numeric field", line=idx + 1)


def write_problem(path, problem: SceneProblem) -> None:
    """Serialize a problem; every numeric field keeps full precision."""
    tracks = sorted(problem.tracks, key=lambda t: t.track_id)
    n_obs = sum(len(t) for t in tracks)
    lines = ["POSEONLY 1", f"{problem.n_views} {len(tracks)} {n_obs}"]
    for view, R in enumerate(problem.rotations):
        q = rotation_to_quat(R)
        lines.append("V " + str(view) + " " + " ".join(_fmt(c) for c in q))
    for track in tracks:
        for view, (x, y) in zip(track.view_ids, track.points):
            lines.append(f"O {track.track_id} {view} {_fmt(x)} {_fmt(y)}")
    if problem.gt_poses is not None:
        for view, pose in enumerate(problem.gt_poses):
            q = rotation_to_quat(pose.rotation)
            lines.append(
                "G " + str(view) + " "
                + " ".join(_fmt(c) for c in q) + " "
                + " ".join(_fmt(c) for c in pose.center)
            )
    lines.append(f"R {problem.reference_view}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_problem(path) -> SceneProblem:
    """Parse a problem file; malformed input raises ParseError naming the
    first offending line."""
    with open(path) as handle:
        raw = handle.read().splitlines()

    def tokens_of(idx):
        return raw[idx].split()

    if not raw:
        raise ParseError("empty file", line=1)
    head = tokens_of(0)
    if len(head) != 2 or head[0] != "POSEONLY":
        raise ParseError("expected header 'POSEONLY 1'", line=1)
    if head[1] != "1":
        raise VersionUnsupported(f"unsupported problem version {head[1]!r}")
    if len(raw) < 2:
        raise ParseError("missing counts line", line=2)
    counts = tokens_of(1)
    if len(counts) != 3:
        raise ParseError("counts line needs n_views n_tracks n_obs", line=2)
    try:
        n_views, n_tracks, n_obs = (int(c) for c in counts)
    except ValueError:
        raise ParseError("counts must be integers", line=2)

    rotations = [None] * n_views
    gt_quats = [None] * n_views
    gt_centers = [None] * n_views
    observations = {}
    seen = set()
    reference_view = None

    for idx in range(2, len(raw)):
        line_no = idx + 1
        toks = tokens_of(idx)
        if not toks:
            continue
        tag = toks[0]
        try:
            if tag == "V":
                if len(toks) != 6:
                    raise ParseError("V line needs view_id qw qx qy qz", line=line_no)
                view = int(toks[1])
                if not 0 <= view < n_views:
                    raise ParseError(f"view id {view} out of range", line=line_no)
                if rotations[view] is not None:
                    raise ParseError(f"duplicate V line for view {view}", line=line_no)
                rotations[view] = quat_to_rotation(_parse_quat(toks[2:6], line_no))
            elif tag == "O":
                if len(toks) != 5:
                    raise ParseError("O line needs track_id view_id x y", line=line_no)
                track_id, view = int(toks[1]), int(toks[2])
                if not 0 <= view < n_views:
                    raise ParseError(f"view id {view} out of range", line=line_no)
                if (track_id, view) in seen:
                    raise ParseError(
                        f"duplicate observation of track {track_id} in view {view}",
                        line=line_no,
                    )
                seen.add((track_id, view))
                observations.setdefault(track_id, []).append(
                    (view, float(toks[3]), float(toks[4]))
                )
            elif tag == "G":
                if len(toks) != 9:
                    raise ParseError(
                        "G line needs view_id qw qx qy qz cx cy cz", line=line_no
                    )
                view = int(toks[1])
                if not 0 <= view < n_views:
                    raise ParseError(f"view id {view} out of range", line=line_no)
                if gt_centers[view] is not None:
                    raise ParseError(f"duplicate G line for view {view}", line=line_no)
                gt_quats[view] = quat_to_rotation(_parse_quat(toks[2:6], line_no))
                gt_centers[view] = np.array([float(t) for t in toks[6:9]])
            elif tag == "R":
                if len(toks) != 2:
                    raise ParseError("R line needs the reference view id", line=line_no)
                if reference_view is not None:
                    raise ParseError("duplicate R line", line=line_no)
                reference_view = int(toks[1])
                if not 0 <= reference_view < n_views:
                    raise ParseError(
                        f"reference view {reference_view} out of range", line=line_no
                    )
            else:
                raise ParseError(f"unknown record tag {tag!r}", line=line_no)
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=line_no)

    for view, R in enumerate(rotations):
        if R is None:
            raise ParseError(f"missing V line for view {view}")
    if reference_view is None:
        raise ParseError("missing R reference line")
    if len(observations) != n_tracks:
        raise ParseError(
            f"counts declare {n_tracks} tracks but file has {len(observations)}"
        )
    if len(seen) != n_obs:
        raise ParseError(f"counts declare {n_obs} observations but file has {len(seen)}")

    tracks = []
    for track_id in sorted(observations):
        rows = sorted(observations[track_id])
        if len(rows) < 2:
            raise ParseError(f"track {track_id} has fewer than 2 observations")
        views = np.array([r[0] for r in rows])
        pts = np.array([[r[1], r[2]] for r in rows])
        tracks.append(Track(track_id, views, pts))
    _require_finite(
        [t.points for t in tracks] + [c for c in gt_centers if c is not None], raw
    )

    has_gt = [c is not None for c in gt_centers]
    gt_poses = None
    if any(has_gt):
        if not all(has_gt):
            missing = has_gt.index(False)
            raise ParseError(f"ground truth must cover all views; view {missing} missing")
        gt_poses = [CameraPose(R, c) for R, c in zip(gt_quats, gt_centers)]

    return SceneProblem(
        rotations=np.stack(rotations),
        tracks=tracks,
        reference_view=reference_view,
        gt_poses=gt_poses,
        gt_points=None,
    )


def write_poses(path, poses) -> None:
    """Serialize estimated poses for the next pipeline stage."""
    lines = ["POSEONLY-POSES 1", str(len(poses))]
    for view, pose in enumerate(poses):
        q = rotation_to_quat(pose.rotation)
        lines.append(
            "P " + str(view) + " "
            + " ".join(_fmt(c) for c in q) + " "
            + " ".join(_fmt(c) for c in pose.center)
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_poses(path) -> list:
    with open(path) as handle:
        raw = handle.read().splitlines()
    if not raw or raw[0].split() != ["POSEONLY-POSES", "1"]:
        raise ParseError("expected header 'POSEONLY-POSES 1'", line=1)
    if len(raw) < 2:
        raise ParseError("missing view count", line=2)
    try:
        n_views = int(raw[1])
    except ValueError:
        raise ParseError("view count must be an integer", line=2)
    if n_views < 0:
        raise ParseError(f"negative view count {n_views}", line=2)
    poses = [None] * n_views
    for idx in range(2, len(raw)):
        line_no = idx + 1
        toks = raw[idx].split()
        if not toks:
            continue
        if toks[0] != "P" or len(toks) != 9:
            raise ParseError("P line needs view_id qw qx qy qz cx cy cz", line=line_no)
        try:
            view = int(toks[1])
            q = _parse_quat(toks[2:6], line_no)
            center = np.array([float(t) for t in toks[6:9]])
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=line_no)
        if not 0 <= view < n_views:
            raise ParseError(f"view id {view} out of range", line=line_no)
        if poses[view] is not None:
            raise ParseError(f"duplicate P line for view {view}", line=line_no)
        poses[view] = CameraPose(quat_to_rotation(q), center)
    for view, pose in enumerate(poses):
        if pose is None:
            raise ParseError(f"missing P line for view {view}")
    _require_finite([p.center for p in poses], raw)
    return poses


def export_ply(points, camera_centers, path) -> None:
    """ASCII PLY with reconstructed points in white and cameras in red.

    ``points`` may be ReconstructedPoint objects or raw 3-vectors.
    """
    coords = []
    for p in points:
        coords.append(np.asarray(getattr(p, "position_w", p), dtype=float))
    centers = [np.asarray(c, dtype=float) for c in camera_centers]
    total = len(coords) + len(centers)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {total}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for xyz in coords:
        lines.append(" ".join(_fmt(c) for c in xyz) + " 255 255 255")
    for xyz in centers:
        lines.append(" ".join(_fmt(c) for c in xyz) + " 255 0 0")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
