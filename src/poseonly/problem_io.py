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
must cover every view, with centers whose squared norm is finite (so
``1e300`` is refused). ``R`` names the reference view. A view's ``V`` or
``G`` line, an observation and the ``R`` line may each appear once.
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

with exactly one ``P`` line per view. A pose file follows the problem
file's rules: the version check, line breaks, strict integers, the counts
line, and the ``G`` line's checks for a ``P`` line.

Both readers share one copy of each rule: :func:`_read_lines` (line
breaks and UTF-8), :func:`_header` (header, version and counts line),
:func:`_view_slot` (view range and repeats), :func:`_pose_record` (the
``G`` and ``P`` records) and :func:`_require_all` (a record for every
view). The four writers (problem, poses, point listing and PLY) share
:func:`_write_lines`, and ``G`` and ``P`` lines are formatted by
:func:`_pose_lines`, which raises ``DivergedNumerically`` on a pose the
readers would refuse, before the file is opened.

Quaternions convert to and from rotation matrices through scipy's
``Rotation`` (:func:`quat_to_rotation`, :func:`rotation_to_quat`), once
per file in each direction: the writers convert all of a file's
rotations in one call, and the readers keep each record's normalized
quaternion and convert them all after the record loop (:func:`_poses`).
"""

import io

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import DivergedNumerically, ParseError, VersionUnsupported
from .geometry import CameraPose, Track
from .simulate import SceneProblem

_QUAT_NORM_TOL = 1e-9
# One O record; converting the tag too makes loadtxt reject a row with
# more or fewer than five fields.
_O_RECORD = np.dtype(
    [("tag", "S1"), ("track", np.int64), ("view", np.int64), ("x", np.float64), ("y", np.float64)]
)


def quat_to_rotation(q) -> np.ndarray:
    """Unit quaternions (scalar first), one (4,) or a stack (k, 4), to
    world-to-camera rotations."""
    return Rotation.from_quat(q, scalar_first=True).as_matrix()


def rotation_to_quat(R) -> np.ndarray:
    """Rotations, one (3, 3) or a stack (k, 3, 3), to unit quaternions,
    scalar first, with the canonical sign (first nonzero component
    positive) so output files are deterministic."""
    return Rotation.from_matrix(R).as_quat(canonical=True, scalar_first=True)


def _fmt(value: float) -> str:
    return repr(float(value))


def _storable_center(center) -> bool:
    """Whether a ``G`` or ``P`` center is finite with a finite squared
    norm, the rule both readers apply and both writers keep."""
    with np.errstate(over="ignore"):  # a field such as 1e300 squares to inf
        return bool(np.isfinite(center @ center))  # also false on nan and inf


def _pose_lines(tag, poses) -> list:
    """The ``G`` or ``P`` line of every view, ``tag`` first, with one
    quaternion conversion for all of them; a pose the readers would
    refuse raises DivergedNumerically, so no stage writes a file the next
    one cannot read."""
    for view, pose in enumerate(poses):
        if not _storable_center(pose.center):
            raise DivergedNumerically(f"view {view}: non-finite center or center squared norm")
    quats = rotation_to_quat(np.reshape([pose.rotation for pose in poses], (-1, 3, 3)))
    return [
        f"{tag} {view} " + " ".join(_fmt(v) for v in (*q, *pose.center))
        for view, (q, pose) in enumerate(zip(quats, poses))
    ]


def _write_lines(path, lines) -> None:
    """Write each line with its newline; no lines make an empty file."""
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n" if lines else "")


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


def _view_slot(token, slots, tag, line_no) -> int:
    """The view id in ``token``, in range for ``slots`` and not yet given
    by an earlier ``tag`` line."""
    view = _parse_int(token)
    if not 0 <= view < len(slots):
        raise ParseError(f"view id {view} out of range", line=line_no)
    if slots[view] is not None:
        raise ParseError(f"duplicate {tag} line for view {view}", line=line_no)
    return view


def _pose_record(toks, slots, line_no) -> None:
    """Store the normalized quaternion and the center of a ``<tag> view
    qw qx qy qz cx cy cz`` record (``G`` or ``P``) in its view's slot."""
    tag = toks[0]
    if len(toks) != 9:
        raise ParseError(f"{tag} line needs view_id qw qx qy qz cx cy cz", line=line_no)
    view = _view_slot(toks[1], slots, tag, line_no)
    quat = _parse_quat(toks[2:6], line_no)
    center = np.array([float(t) for t in toks[6:9]])
    if not _storable_center(center):
        raise ParseError("non-finite center or center squared norm", line=line_no)
    slots[view] = (quat, center)


def _poses(slots) -> list:
    """The camera poses of a file's filled ``G`` or ``P`` slots, with one
    quaternion conversion for all of them."""
    rotations = quat_to_rotation(np.reshape([quat for quat, _ in slots], (-1, 4)))
    return [CameraPose(R, center) for R, (_, center) in zip(rotations, slots)]


def _require_all(slots, tag) -> None:
    for view, slot in enumerate(slots):
        if slot is None:
            raise ParseError(f"missing {tag} line for view {view}")


def write_problem(path, problem: SceneProblem) -> None:
    """Serialize a problem; every numeric field keeps full precision."""
    tracks = sorted(problem.tracks, key=lambda t: t.track_id)
    n_obs = sum(len(t) for t in tracks)
    lines = ["POSEONLY 1", f"{problem.n_views} {len(tracks)} {n_obs}"]
    for view, q in enumerate(rotation_to_quat(np.reshape(problem.rotations, (-1, 3, 3)))):
        lines.append(f"V {view} " + " ".join(_fmt(c) for c in q))
    for track in tracks:
        # Python ints and floats format several times faster than numpy
        # scalars, with the same text
        for view, (x, y) in zip(track.view_ids.tolist(), track.points.tolist()):
            lines.append(f"O {track.track_id} {view} {x!r} {y!r}")
    lines += _pose_lines("G", problem.gt_poses or [])
    lines.append(f"R {problem.reference_view}")
    _write_lines(path, lines)


def _line_spans(buf: np.ndarray):
    """Byte offsets of every line's start and end (its newline or EOF)."""
    ends = np.flatnonzero(buf == ord("\n"))
    if len(buf) and buf[-1] != ord("\n"):
        ends = np.append(ends, len(buf))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    return starts, ends


def _read_lines(path):
    """The file's bytes with ``\\r\\n`` and ``\\r`` made ``\\n``, the start
    and end offsets of its lines, and ``tokens_of(idx)``: the fields of
    line ``idx``, or a ParseError naming it when it is not UTF-8."""
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    starts, ends = _line_spans(np.frombuffer(data, dtype=np.uint8))

    def tokens_of(idx):
        try:
            return data[starts[idx]:ends[idx]].decode().split()
        except UnicodeDecodeError:
            raise ParseError("line is not UTF-8 text", line=idx + 1)

    return data, starts, ends, tokens_of


def _header(tokens_of, n_lines, magic, names) -> list:
    """Check the ``<magic> 1`` header and return the counts of line 2, one
    per name: strict non-negative integers, and no more views (the first
    count) than lines after line 2, checked before anything is sized."""
    head = tokens_of(0) if n_lines else []
    if len(head) != 2 or head[0] != magic:
        raise ParseError(f"expected header '{magic} 1'", line=1)
    if head[1] != "1":
        raise VersionUnsupported(f"unsupported {magic} version {head[1]!r}")
    if n_lines < 2:
        raise ParseError("missing counts line", line=2)
    tokens = tokens_of(1)
    if len(tokens) != len(names):
        raise ParseError("counts line needs " + " ".join(names), line=2)
    try:
        counts = [_parse_int(t) for t in tokens]
    except ValueError:
        raise ParseError("counts must be integers", line=2)
    if min(counts) < 0:
        raise ParseError("counts must not be negative", line=2)
    if counts[0] > n_lines - 2:
        raise ParseError(
            f"counts declare {counts[0]} views but only {n_lines - 2} lines follow", line=2
        )
    return counts


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
    data, starts, ends, tokens_of = _read_lines(path)
    n_views, n_tracks, n_obs = _header(
        tokens_of, len(starts), "POSEONLY", ("n_views", "n_tracks", "n_obs")
    )
    quats = [None] * n_views  # of the V lines
    gt_poses = [None] * n_views
    reference_view = None

    def read_record(toks, line_no):
        nonlocal reference_view
        tag = toks[0]
        try:
            if tag == "V":
                if len(toks) != 6:
                    raise ParseError("V line needs view_id qw qx qy qz", line=line_no)
                view = _view_slot(toks[1], quats, tag, line_no)
                quats[view] = _parse_quat(toks[2:6], line_no)
            elif tag == "G":
                _pose_record(toks, gt_poses, line_no)
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
    buf = np.frombuffer(data, dtype=np.uint8)
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

    _require_all(quats, "V")
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

    if all(pose is None for pose in gt_poses):
        gt_poses = None
    else:
        _require_all(gt_poses, "G")
        gt_poses = _poses(gt_poses)

    return SceneProblem(
        rotations=quat_to_rotation(np.reshape(quats, (-1, 4))),
        tracks=tracks,
        reference_view=reference_view,
        gt_poses=gt_poses,
        gt_points=None,
    )


def write_poses(path, poses) -> None:
    """Serialize estimated poses for the next pipeline stage."""
    _write_lines(path, ["POSEONLY-POSES 1", str(len(poses)), *_pose_lines("P", poses)])


def read_poses(path) -> list:
    """Parse a pose file by the problem file's rules; malformed input
    raises ParseError naming the first offending line."""
    _, starts, _, tokens_of = _read_lines(path)
    (n_views,) = _header(tokens_of, len(starts), "POSEONLY-POSES", ("n_views",))
    poses = [None] * n_views
    for idx in range(2, len(starts)):
        toks = tokens_of(idx)
        if not toks:
            continue
        if toks[0] != "P":
            raise ParseError(f"unknown record tag {toks[0]!r}", line=idx + 1)
        try:
            _pose_record(toks, poses, idx + 1)
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=idx + 1)
    _require_all(poses, "P")
    return _poses(poses)


def write_points(path, points) -> None:
    """One ``<track_id> <x> <y> <z>`` line per reconstructed point
    (ReconstructedPoint objects), every float in full precision."""
    _write_lines(
        path, [f"{p.track_id} " + " ".join(_fmt(c) for c in p.position_w) for p in points]
    )


def export_ply(points, camera_centers, path) -> None:
    """ASCII PLY with reconstructed points (ReconstructedPoint objects)
    in white and cameras in red."""
    coords = [p.position_w for p in points]
    centers = [np.asarray(c, dtype=float) for c in camera_centers]
    lines = [
        "ply", "format ascii 1.0", f"element vertex {len(coords) + len(centers)}",
        *(f"property float {axis}" for axis in "xyz"),
        *(f"property uchar {channel}" for channel in ("red", "green", "blue")),
        "end_header",
    ]
    lines += [" ".join(_fmt(c) for c in xyz) + " 255 255 255" for xyz in coords]
    lines += [" ".join(_fmt(c) for c in xyz) + " 255 0 0" for xyz in centers]
    _write_lines(path, lines)
