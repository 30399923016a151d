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
Records may come in any order, fields are separated by any whitespace
and blank lines are skipped; lines end with ``\n``, ``\r\n`` or ``\r``.
Ids and counts are strict decimal integers (optional sign, ASCII
digits), so ``3.0`` in an id field is rejected.

Reading: ``O`` records are nearly every line of a problem file, so
:func:`read_problem` converts them all in one ``numpy.loadtxt`` call over
the ``O`` lines gathered into one buffer, and checks them as arrays:
view range, non-finite coordinates and repeated (track, view) pairs,
the last after one stable (track, view) sort that also yields the
tracks. The few other lines are read one by one. Each check keeps the
source line of every row, and the earliest failing line over all checks
is the one a ``ParseError`` names. A row that does not convert (wrong
field count, bad number, non-UTF-8 bytes) fails the bulk call; it is
then found by bisection with the same call on halves of the rows, and
the array checks run on the rows before it. The counts line is checked
before anything is sized from it.

Estimated poses travel between CLI stages in a sibling format:

    POSEONLY-POSES 1
    <n_views>
    P <view_id> <qw> <qx> <qy> <qz> <cx> <cy> <cz>

with exactly one ``P`` line per view.
"""

import io
import math

import numpy as np

from .errors import ParseError, VersionUnsupported
from .geometry import CameraPose, Track
from .simulate import SceneProblem

_QUAT_NORM_TOL = 1e-9
# One O record; converting the tag too makes loadtxt reject a row with
# more or fewer than five fields.
_O_RECORD = np.dtype(
    [("tag", "S1"), ("track", np.int64), ("view", np.int64), ("x", np.float64), ("y", np.float64)]
)


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


def _parse_int(token: str) -> int:
    """A strict decimal integer: the grammar the bulk O conversion applies."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def _parse_quat(tokens, line_no):
    q = np.array([float(t) for t in tokens])
    with np.errstate(over="ignore"):  # a field such as 1e300 gives norm inf
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
        # Python ints and floats format several times faster than numpy
        # scalars, with the same text
        for view, (x, y) in zip(track.view_ids.tolist(), track.points.tolist()):
            lines.append(f"O {track.track_id} {view} {x!r} {y!r}")
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


def _line_spans(buf: np.ndarray):
    """Byte offsets of every line's start and end (its newline or EOF)."""
    ends = np.flatnonzero(buf == ord("\n"))
    if len(buf) and buf[-1] != ord("\n"):
        ends = np.append(ends, len(buf))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    return starts, ends


def _gather_lines(data: bytes, starts, ends):
    """The given lines (in file order) joined by newlines, and the offset
    of each line in the result plus one past the end. Runs of consecutive
    lines are copied as one slice."""
    if not len(starts):
        return b"", np.zeros(1, dtype=np.int64)
    run_start = np.flatnonzero(starts[1:] != ends[:-1] + 1) + 1
    firsts = starts[np.concatenate(([0], run_start))]
    lasts = ends[np.concatenate((run_start - 1, [len(ends) - 1]))]
    blob = b"\n".join(data[a:b] for a, b in zip(firsts.tolist(), lasts.tolist()))
    bounds = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(ends - starts + 1, out=bounds[1:])
    return blob, bounds


def _load_observations(chunk: bytes, n_rows: int) -> np.ndarray:
    """Convert ``n_rows`` newline-separated O records in one call; raise
    ValueError unless every row has five fields that convert."""
    if n_rows == 0:
        return np.empty(0, dtype=_O_RECORD)
    # numpy 2 parses an integer field strictly ([+-]digits), so "3.0"
    # fails the row; numpy 1.x read it through a float with a warning.
    records = np.loadtxt(
        io.BytesIO(chunk), dtype=_O_RECORD, comments=None, encoding="utf-8", ndmin=1
    )
    if len(records) != n_rows:
        raise ValueError(f"{len(records)} records from {n_rows} lines")
    return records


def _convert_observations(blob: bytes, bounds):
    """The O records up to the first row that fails to convert, and that
    row's index (None when every row converts). A row converts or fails
    on its own, so the first failure is found by bisection over halves."""
    n_rows = len(bounds) - 1
    try:
        return _load_observations(blob, n_rows), None
    except ValueError:
        pass
    good, bad = 0, n_rows  # rows [0, good) convert; [good, bad) holds a failure
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load_observations(blob[bounds[good]:bounds[mid]], mid - good)
            good = mid
        except ValueError:
            bad = mid
    return _load_observations(blob[: bounds[good]], good), good


def _earliest(checks, lines) -> list:
    """A ParseError naming the earliest line of every failed check; each
    check is a row mask over ``lines`` and a message for a failing row."""
    defects = []
    for failed, message in checks:
        if failed.any():
            k = np.flatnonzero(failed)[np.argmin(lines[failed])]
            defects.append(ParseError(message(k), line=int(lines[k])))
    return defects


def read_problem(path) -> SceneProblem:
    """Parse a problem file; malformed input raises ParseError naming the
    first offending line."""
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(data, dtype=np.uint8)
    starts, ends = _line_spans(buf)
    n_lines = len(starts)

    def tokens_of(idx):
        try:
            return data[starts[idx]:ends[idx]].decode().split()
        except UnicodeDecodeError:
            raise ParseError("line is not UTF-8 text", line=idx + 1)

    if not n_lines:
        raise ParseError("empty file", line=1)
    head = tokens_of(0)
    if len(head) != 2 or head[0] != "POSEONLY":
        raise ParseError("expected header 'POSEONLY 1'", line=1)
    if head[1] != "1":
        raise VersionUnsupported(f"unsupported problem version {head[1]!r}")
    if n_lines < 2:
        raise ParseError("missing counts line", line=2)
    counts = tokens_of(1)
    if len(counts) != 3:
        raise ParseError("counts line needs n_views n_tracks n_obs", line=2)
    try:
        n_views, n_tracks, n_obs = (_parse_int(c) for c in counts)
    except ValueError:
        raise ParseError("counts must be integers", line=2)
    if min(n_views, n_tracks, n_obs) < 0:
        raise ParseError("counts must not be negative", line=2)
    if n_views > n_lines - 2:
        raise ParseError(
            f"counts declare {n_views} views but only {n_lines - 2} lines follow", line=2
        )

    rotations = [None] * n_views
    gt_quats = [None] * n_views
    gt_centers = [None] * n_views
    reference_view = None

    def read_record(toks, line_no):
        nonlocal reference_view
        tag = toks[0]
        try:
            if tag == "V":
                if len(toks) != 6:
                    raise ParseError("V line needs view_id qw qx qy qz", line=line_no)
                view = _parse_int(toks[1])
                if not 0 <= view < n_views:
                    raise ParseError(f"view id {view} out of range", line=line_no)
                if rotations[view] is not None:
                    raise ParseError(f"duplicate V line for view {view}", line=line_no)
                rotations[view] = quat_to_rotation(_parse_quat(toks[2:6], line_no))
            elif tag == "G":
                if len(toks) != 9:
                    raise ParseError(
                        "G line needs view_id qw qx qy qz cx cy cz", line=line_no
                    )
                view = _parse_int(toks[1])
                if not 0 <= view < n_views:
                    raise ParseError(f"view id {view} out of range", line=line_no)
                if gt_centers[view] is not None:
                    raise ParseError(f"duplicate G line for view {view}", line=line_no)
                gt_quats[view] = quat_to_rotation(_parse_quat(toks[2:6], line_no))
                center = np.array([float(t) for t in toks[6:9]])
                if not np.isfinite(center).all():
                    raise ParseError("non-finite numeric field", line=line_no)
                gt_centers[view] = center
            elif tag == "R":
                if len(toks) != 2:
                    raise ParseError("R line needs the reference view id", line=line_no)
                if reference_view is not None:
                    raise ParseError("duplicate R line", line=line_no)
                reference_view = _parse_int(toks[1])
                if not 0 <= reference_view < n_views:
                    raise ParseError(
                        f"reference view {reference_view} out of range", line=line_no
                    )
            else:
                raise ParseError(f"unknown record tag {tag!r}", line=line_no)
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=line_no)

    # O records are nearly every line: a line that starts "O " or "O\t" is
    # one, and goes to the bulk conversion unread. The other lines are
    # read one by one, up to the first defect; an O record indented by
    # whitespace is found there and joins the bulk.
    second = buf[np.minimum(starts + 1, len(buf) - 1)]
    is_o = (buf[starts] == ord("O")) & ((second == ord(" ")) | (second == ord("\t")))
    is_o[:2] = False
    defects = []
    for idx in (np.flatnonzero(~is_o[2:]) + 2).tolist():
        try:
            toks = tokens_of(idx)
            if toks and toks[0] == "O":
                is_o[idx] = True
            elif toks:
                read_record(toks, idx + 1)
        except ParseError as exc:
            defects.append(exc)
            break

    o_idx = np.flatnonzero(is_o)
    records, bad_row = _convert_observations(*_gather_lines(data, starts[o_idx], ends[o_idx]))
    if bad_row is not None:
        defects.append(ParseError(
            "O line needs track_id view_id x y: integer ids, float coordinates",
            line=int(o_idx[bad_row]) + 1,
        ))
    order = np.lexsort((records["view"], records["track"]))  # stable: repeats stay in file order
    track, view = records["track"][order], records["view"][order]
    points = np.column_stack((records["x"][order], records["y"][order]))
    lines = o_idx[order] + 1
    new_track = np.ones(len(track), dtype=bool)
    new_track[1:] = track[1:] != track[:-1]
    repeat = np.zeros_like(new_track)
    repeat[1:] = ~new_track[1:] & (view[1:] == view[:-1])
    defects += _earliest(
        [
            ((view < 0) | (view >= n_views), lambda k: f"view id {view[k]} out of range"),
            (~np.isfinite(points).all(axis=1), lambda k: "non-finite numeric field"),
            (repeat, lambda k: f"duplicate observation of track {track[k]} in view {view[k]}"),
        ],
        lines,
    )
    if defects:
        raise min(defects, key=lambda exc: exc.line)

    for view_id, R in enumerate(rotations):
        if R is None:
            raise ParseError(f"missing V line for view {view_id}")
    if reference_view is None:
        raise ParseError("missing R reference line")
    first = np.flatnonzero(new_track)
    if len(first) != n_tracks:
        raise ParseError(f"counts declare {n_tracks} tracks but file has {len(first)}")
    if len(track) != n_obs:
        raise ParseError(f"counts declare {n_obs} observations but file has {len(track)}")
    bounds = np.append(first, len(track))
    short = np.flatnonzero(np.diff(bounds) < 2)
    if short.size:
        raise ParseError(f"track {track[first[short[0]]]} has fewer than 2 observations")
    tracks = [
        Track(track_id, view[a:b], points[a:b])
        for track_id, a, b in zip(track[first].tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    ]

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
    """Parse a pose file; malformed input raises ParseError naming the
    first offending line. Lines break at ``\\n``, ``\\r\\n`` and ``\\r``
    only, as in :func:`read_problem`."""
    with open(path, "rb") as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError("line is not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1)
    raw = text.split("\n")
    if raw[-1] == "":
        raw.pop()
    if not raw or raw[0].split() != ["POSEONLY-POSES", "1"]:
        raise ParseError("expected header 'POSEONLY-POSES 1'", line=1)
    if len(raw) < 2:
        raise ParseError("missing view count", line=2)
    try:
        (count,) = raw[1].split()
        n_views = _parse_int(count)
    except ValueError:
        raise ParseError("view count must be an integer", line=2)
    if n_views < 0:
        raise ParseError(f"negative view count {n_views}", line=2)
    if n_views > len(raw) - 2:
        raise ParseError(
            f"count declares {n_views} views but only {len(raw) - 2} lines follow", line=2
        )
    poses = [None] * n_views
    for idx in range(2, len(raw)):
        line_no = idx + 1
        toks = raw[idx].split()
        if not toks:
            continue
        if toks[0] != "P" or len(toks) != 9:
            raise ParseError("P line needs view_id qw qx qy qz cx cy cz", line=line_no)
        try:
            view = _parse_int(toks[1])
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
