"""Point cloud file ingest and emit: XYZ text and ASCII PLY.

Both readers split the file into lines by Python's universal-newline rule,
and np.loadtxt (through _parse_table) is the only code that turns body text
into numbers, so both formats accept numpy's number grammar and nothing
else. A body it rejects, or one with a width the format forbids, raises
CloudIOError naming `path:line` of the first line at fault. Bytes that do
not decode are kept as lone surrogates (errors="surrogateescape"): a comment
may hold them, and in a body they are a malformed number. Writing formats
every value as %.9g, a block of rows at a time.
"""

import warnings

import numpy as np

from .core import PointCloud

FORMATS = ("xyz", "ply-ascii")

# Rows formatted per write call; bounds the text held in memory at once.
WRITE_CHUNK_ROWS = 8192


class CloudIOError(ValueError):
    pass


def _finalize(points, normals, path):
    points = np.ascontiguousarray(points, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise CloudIOError(f"{path}: non-finite coordinate at point {bad[0]}")
    if normals is not None:
        normals = np.ascontiguousarray(normals, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(normals).all(axis=1))
        if len(bad):
            raise CloudIOError(f"{path}: non-finite normal at point {bad[0]}")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(normals, axis=1)
        # A finite row whose squares overflow is first divided by its largest
        # component; every other row keeps its bits.
        huge = np.flatnonzero(np.isinf(norms))
        if len(huge):
            normals[huge] /= np.abs(normals[huge]).max(axis=1, keepdims=True)
            norms[huge] = np.linalg.norm(normals[huge], axis=1)
        bad = np.flatnonzero(norms < 1e-12)
        if len(bad):
            raise CloudIOError(f"{path}: zero normal at point {bad[0]}")
        normals = normals / norms[:, None]
    return PointCloud(points, normals)


def _parse_table(source):
    """Whitespace-separated float64 rows of `source` (a text file or a list of
    lines) as an (n, width) array, or None if np.loadtxt rejects them or
    warns (it warns when there are no rows)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None


def _body_table(path, numbered, width_ok, width_error):
    """The float64 table of `numbered`, (line number, line) pairs, one row per
    line of a width width_ok allows; else CloudIOError naming the first bad line."""
    lines = [line for _, line in numbered]
    table = _parse_table(lines)
    if table is not None and len(table) == len(lines) and width_ok(table.shape[1]):
        return table
    if not lines:
        raise CloudIOError(f"{path}: empty cloud")
    # One pass over the widths finds the first line the format forbids or
    # whose width differs from the first line's.
    end, message = len(lines), None
    first = len(lines[0].split())
    for i, line in enumerate(lines):
        width = len(line.split())
        if not width_ok(width):
            end, message = i, width_error
            break
        if width != first:
            end, message = i, f"mixed {min(first, width)}- and {max(first, width)}-field lines"
            break
    # Lines before it all have one allowed width, so np.loadtxt rejects them
    # only for a number; halving the range finds the first such line.
    if end and _parse_table(lines[:end]) is None:
        low, high = 0, end
        while high - low > 1:
            mid = (low + high) // 2
            if _parse_table(lines[low:mid]) is None:
                high = mid
            else:
                low = mid
        end, message = low, "malformed number"
    raise CloudIOError(f"{path}:{numbered[end][0]}: {message}")


def _read_xyz(path):
    with open(path, errors="surrogateescape") as fh:
        table = _parse_table(fh)
        if table is None or table.shape[1] not in (3, 6):
            # Drop blank and whole-line "#" lines; a "#" after a value stays and fails.
            fh.seek(0)
            numbered = [(lineno, line) for lineno, line in enumerate(fh, start=1)
                        if line.strip()[:1] not in ("", "#")]
            table = _body_table(path, numbered, lambda w: w in (3, 6), "expected 3 or 6 fields")
    normals = table[:, 3:] if table.shape[1] == 6 else None
    return _finalize(table[:, :3], normals, path)


def _read_ply_ascii(path):
    with open(path, errors="surrogateescape") as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudIOError(f"{path}: not a PLY file")
    elements = []  # (name, count, property lines' fields), in declared order
    body_start = None
    has_format = False
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.strip().split()
        if not fields:
            continue
        if fields[0] == "format":
            if len(fields) < 2:
                raise CloudIOError(f"{path}:{lineno}: malformed format line")
            if fields[1] != "ascii":
                raise CloudIOError(f"{path}:{lineno}: only ascii PLY supported")
            has_format = True
        elif fields[0] == "element":
            if len(fields) < 2:
                raise CloudIOError(f"{path}:{lineno}: malformed element line")
            name = fields[1]
            try:
                count = int(fields[2])
            except (IndexError, ValueError):
                raise CloudIOError(f"{path}:{lineno}: {name} count is not an integer") from None
            if count < 0:
                raise CloudIOError(f"{path}:{lineno}: negative {name} count")
            elements.append((name, count, []))
        elif fields[0] == "property":
            if not elements:
                raise CloudIOError(f"{path}:{lineno}: property before any element")
            elements[-1][2].append(fields)
        elif fields[0] == "end_header":
            body_start = lineno
            break
    if not has_format:
        raise CloudIOError(f"{path}: missing format line")
    names = [name for name, _, _ in elements]
    if "vertex" not in names or body_start is None:
        raise CloudIOError(f"{path}: missing vertex element or end_header")
    # ASCII PLY holds one line per row, elements in declared order
    vertex = names.index("vertex")
    start = body_start + sum(count for _, count, _ in elements[:vertex])
    _, vertex_count, property_fields = elements[vertex]
    for fields in property_fields:
        if fields[1:2] == ["list"]:
            raise CloudIOError(f"{path}: vertex list property {fields[-1]} is not supported")
    properties = [fields[-1] for fields in property_fields]
    try:
        point_cols = [properties.index(name) for name in ("x", "y", "z")]
    except ValueError:
        raise CloudIOError(f"{path}: vertex element lacks x/y/z") from None
    normal_cols = None
    if all(n in properties for n in ("nx", "ny", "nz")):
        normal_cols = [properties.index(name) for name in ("nx", "ny", "nz")]

    body = lines[start : start + vertex_count]
    if len(body) < vertex_count:
        raise CloudIOError(f"{path}: truncated vertex data")
    table = _body_table(path, list(enumerate(body, start=start + 1)),
                        lambda w: w >= len(properties), "malformed vertex line")
    normals = None if normal_cols is None else table[:, normal_cols]
    return _finalize(table[:, point_cols], normals, path)


def read_cloud(path, format="xyz"):
    if format == "xyz":
        return _read_xyz(path)
    if format == "ply-ascii":
        return _read_ply_ascii(path)
    raise CloudIOError(f"unknown format: {format!r}")


def write_cloud(cloud, path, format="xyz"):
    """Emit a cloud in the same dialect read_cloud accepts: every value as
    %.9g (9 significant digits), deterministic byte output."""
    if len(cloud) == 0:
        raise CloudIOError("empty cloud")
    if format not in FORMATS:
        raise CloudIOError(f"unknown format: {format!r}")
    columns = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
    row = " ".join(["%.9g"] * (3 * len(columns))) + "\n"
    with open(path, "w", newline="\n") as fh:
        if format == "ply-ascii":
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(cloud)}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            if cloud.normals is not None:
                fh.write("property float nx\nproperty float ny\nproperty float nz\n")
            fh.write("end_header\n")
        for start in range(0, len(cloud), WRITE_CHUNK_ROWS):
            block = np.hstack([c[start : start + WRITE_CHUNK_ROWS] for c in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
