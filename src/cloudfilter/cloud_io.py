"""Point cloud file ingest and emit: XYZ text and ASCII PLY.

Reading parses the numeric body in one np.loadtxt call; an XYZ body that
call rejects is parsed once more without its whole-line "#" comments. The
per-line parser runs only when that parse fails or returns a shape the format
forbids, so an accepted file yields the same float64 values either way and a
rejected file gets the line parser's `file:line` message. Writing formats
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
    if normals is not None:
        normals = np.ascontiguousarray(normals, dtype=np.float64)
        norms = np.linalg.norm(normals, axis=1)
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


def _read_xyz(path):
    with open(path) as fh:
        table = _parse_table(fh)
        if table is None:
            # Parse again without whole-line comments, by the line parser's
            # rule; a line with an inline "#" stays and still fails.
            fh.seek(0)
            table = _parse_table([line for line in fh if not line.lstrip().startswith("#")])
    if table is not None and table.shape[1] in (3, 6):
        normals = table[:, 3:] if table.shape[1] == 6 else None
        return _finalize(table[:, :3], normals, path)

    points, normals = [], []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) not in (3, 6):
                raise CloudIOError(f"{path}:{lineno}: expected 3 or 6 fields")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CloudIOError(f"{path}:{lineno}: mixed 3- and 6-field lines")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CloudIOError(f"{path}:{lineno}: malformed number") from None
            points.append(values[:3])
            if width == 6:
                normals.append(values[3:])
    if not points:
        raise CloudIOError(f"{path}: empty cloud")
    return _finalize(points, normals if normals else None, path)


def _read_ply_ascii(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudIOError(f"{path}: not a PLY file")
    vertex_count = None
    properties = []
    in_vertex_element = False
    body_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.strip().split()
        if not fields:
            continue
        if fields[0] == "format":
            if len(fields) < 2:
                raise CloudIOError(f"{path}:{lineno}: malformed format line")
            if fields[1] != "ascii":
                raise CloudIOError(f"{path}:{lineno}: only ascii PLY supported")
        elif fields[0] == "element":
            if len(fields) < 2:
                raise CloudIOError(f"{path}:{lineno}: malformed element line")
            in_vertex_element = fields[1] == "vertex"
            if in_vertex_element:
                try:
                    vertex_count = int(fields[2])
                except (IndexError, ValueError):
                    raise CloudIOError(
                        f"{path}:{lineno}: vertex count is not an integer"
                    ) from None
                if vertex_count < 0:
                    raise CloudIOError(f"{path}:{lineno}: negative vertex count")
        elif fields[0] == "property" and in_vertex_element:
            properties.append(fields[-1])
        elif fields[0] == "end_header":
            body_start = lineno
            break
    if vertex_count is None or body_start is None:
        raise CloudIOError(f"{path}: missing vertex element or end_header")
    try:
        point_cols = [properties.index(name) for name in ("x", "y", "z")]
    except ValueError:
        raise CloudIOError(f"{path}: vertex element lacks x/y/z") from None
    normal_cols = None
    if all(n in properties for n in ("nx", "ny", "nz")):
        normal_cols = [properties.index(name) for name in ("nx", "ny", "nz")]

    body = lines[body_start : body_start + vertex_count]
    if len(body) < vertex_count:
        raise CloudIOError(f"{path}: truncated vertex data")
    table = _parse_table(body)
    if table is not None and table.shape[0] == vertex_count and table.shape[1] >= len(properties):
        normals = None if normal_cols is None else table[:, normal_cols]
        return _finalize(table[:, point_cols], normals, path)

    points, normals = [], [] if normal_cols is not None else None
    for offset, line in enumerate(body):
        lineno = body_start + 1 + offset
        fields = line.strip().split()
        if len(fields) < len(properties):
            raise CloudIOError(f"{path}:{lineno}: malformed vertex line")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise CloudIOError(f"{path}:{lineno}: malformed number") from None
        points.append([values[c] for c in point_cols])
        if normal_cols is not None:
            normals.append([values[c] for c in normal_cols])
    if not points:
        raise CloudIOError(f"{path}: empty cloud")
    return _finalize(points, normals, path)


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
