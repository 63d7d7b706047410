import argparse
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cloudfilter
from cloudfilter import (
    PointCloud,
    RunConfig,
    cloud_io,
    make_shape,
    normalize_cloud,
    read_cloud,
    run_pipeline,
    write_cloud,
)
from cloudfilter.cli import PipelineError, _bilateral_params, _config_from_args, build_parser, main
from cloudfilter.cloud_io import CloudIOError
from cloudfilter.filtering import FilterParams
from cloudfilter.normals import BilateralParams
from cloudfilter.pipeline import smoothed_normals


class TestXyzIO:
    def test_round_trip_with_normals(self, tmp_path):
        cloud = make_shape("cube", 5)
        path = tmp_path / "cube.xyz"
        write_cloud(cloud, path)
        back = read_cloud(path)
        assert np.allclose(back.points, cloud.points, atol=1e-8)
        assert np.allclose(back.normals, cloud.normals, atol=1e-8)

    def test_round_trip_points_only(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(0).random((30, 3)))
        path = tmp_path / "pts.xyz"
        write_cloud(cloud, path)
        back = read_cloud(path)
        assert back.normals is None
        assert np.allclose(back.points, cloud.points, atol=1e-8)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3\n  # indented comment\n4 5 6\n")
        back = read_cloud(path)
        assert np.array_equal(back.points, [[1, 2, 3], [4, 5, 6]])

    def test_write_deterministic_bytes(self, tmp_path):
        cloud = make_shape("sphere", 6)
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_cloud(cloud, p1)
        write_cloud(cloud, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mixed_width_rejected_with_lineno(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n1 2 3 0 0 1\n")
        with pytest.raises(CloudIOError, match=r"bad\.xyz:2"):
            read_cloud(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 x\n")
        with pytest.raises(CloudIOError, match="malformed number"):
            read_cloud(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3 4\n")
        with pytest.raises(CloudIOError, match="expected 3 or 6 fields"):
            read_cloud(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# only comments\n")
        with pytest.raises(CloudIOError, match="empty cloud"):
            read_cloud(path)

    def test_zero_normal_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0 0 0 1\n1 0 0 0 0 0\n")
        with pytest.raises(CloudIOError, match="zero normal at point 1"):
            read_cloud(path)

    def test_normals_renormalized_on_load(self, tmp_path):
        path = tmp_path / "n.xyz"
        path.write_text("0 0 0 0 0 2\n")
        back = read_cloud(path)
        assert np.allclose(back.normals, [[0, 0, 1.0]])


class TestPlyIO:
    def test_round_trip(self, tmp_path):
        cloud = make_shape("wedge", 5)
        path = tmp_path / "w.ply"
        write_cloud(cloud, path, format="ply-ascii")
        back = read_cloud(path, format="ply-ascii")
        assert np.allclose(back.points, cloud.points, atol=1e-8)
        assert np.allclose(back.normals, cloud.normals, atol=1e-8)

    def test_header_structure(self, tmp_path):
        cloud = make_shape("plane", 4)
        path = tmp_path / "p.ply"
        write_cloud(cloud, path, format="ply-ascii")
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert f"element vertex {len(cloud)}" in lines
        assert "end_header" in lines

    def test_reordered_properties(self, tmp_path):
        path = tmp_path / "r.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float z\nproperty float y\nproperty float x\n"
            "end_header\n3 2 1\n"
        )
        back = read_cloud(path, format="ply-ascii")
        assert np.array_equal(back.points, [[1.0, 2.0, 3.0]])

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("1 2 3\n")
        with pytest.raises(CloudIOError, match="not a PLY file"):
            read_cloud(path, format="ply-ascii")

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(CloudIOError, match="truncated"):
            read_cloud(path, format="ply-ascii")

    def test_missing_xyz_rejected(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(CloudIOError, match="lacks x/y/z"):
            read_cloud(path, format="ply-ascii")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(CloudIOError, match="unknown format"):
            read_cloud(tmp_path / "f", format="obj")

    def test_write_empty_cloud_rejected(self, tmp_path):
        with pytest.raises(CloudIOError, match="^empty cloud$"):
            write_cloud(PointCloud(np.empty((0, 3))), tmp_path / "e.xyz")

    def test_write_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "f"
        with pytest.raises(CloudIOError, match="^unknown format: 'obj'$"):
            write_cloud(make_shape("plane", 4), path, format="obj")
        assert not path.exists()


def _ply(rows, properties="x y z", count=None, after_vertex=(), before_vertex=()):
    lines = ["ply", "format ascii 1.0", "comment written by hand"]
    lines += list(before_vertex)
    lines.append(f"element vertex {len(rows) if count is None else count}")
    lines += [f"property float {name}" for name in properties.split()]
    lines += list(after_vertex)
    lines.append("end_header")
    return "\n".join(lines + rows) + "\n"


ERR = CloudIOError
# An element declared before vertex, one row of three values
CAMERA = ["element camera 1", "property float a", "property float b", "property float c"]
# (1, 1, 0) divided by its norm, the reader's value for a normal (h, h, 0)
# whose squares overflow
HALF_ROOT = 1 / np.sqrt(2.0)

# A binary PLY of 50 float32 vertices: its body is not valid UTF-8
BINARY_PLY = (
    _ply([], count=50).replace("format ascii", "format binary_little_endian").encode()
    + np.random.default_rng(0).random((50, 3)).astype("<f4").tobytes()
)

# (case id, format, file text or bytes, outcome). The outcome is the exact
# result of read_cloud: (points, normals) as lists, or (exception type,
# message) with "{path}" standing for the file read. Text is written as
# UTF-8. See TestFastReadParity.
PARITY_CASES = [
    ("xyz-3", "xyz", "1 2 3\n4 5 6\n", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-6", "xyz", "0 0 0 0 0 2\n1 1 1 0 1 0\n",
     ([[0, 0, 0], [1, 1, 1]], [[0, 0, 1], [0, 1, 0]])),
    ("xyz-comment-line", "xyz", "# header\n1 2 3\n", ([[1, 2, 3]], None)),
    ("xyz-indented-comment", "xyz", "1 2 3\n  # note\n4 5 6\n", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-inline-hash", "xyz", "1 2 3 # note\n", (ERR, "{path}:1: expected 3 or 6 fields")),
    ("xyz-header-comments-6", "xyz", "# x y z nx ny nz\n#1 2 3\n0 0 0 0 0 2\n1 1 1 0 1 0\n",
     ([[0, 0, 0], [1, 1, 1]], [[0, 0, 1], [0, 1, 0]])),
    ("xyz-mid-file-comments", "xyz", "1 2 3\n\t# a\n\xa0#b\n4 5 6\n# end",
     ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-header-then-inline-hash", "xyz", "# header\n1 2 3\n4 5 6 # note\n",
     (ERR, "{path}:3: expected 3 or 6 fields")),
    ("xyz-header-then-four-fields", "xyz", "# header\n1 2 3\n4 5 6 7\n",
     (ERR, "{path}:3: expected 3 or 6 fields")),
    ("xyz-inline-hash-6", "xyz", "1 2 3 #a b\n", (ERR, "{path}:1: expected 3 or 6 fields")),
    ("xyz-blank-lines", "xyz", "\n1 2 3\n\n4 5 6\n\n", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-whitespace-lines", "xyz", "1 2 3\n   \n\t\n \x0c\xa0\n4 5 6\n",
     ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-tabs", "xyz", "1\t2\t3\n\t4 5\t6\t\n", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-crlf", "xyz", "1 2 3\r\n4 5 6\r\n", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-lone-cr", "xyz", "1 2 3\r4 5 6\r", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-form-feed-separator", "xyz", "1\x0c2 3\n", ([[1, 2, 3]], None)),
    ("xyz-no-final-newline", "xyz", "1 2 3\n4 5 6", ([[1, 2, 3], [4, 5, 6]], None)),
    ("xyz-mixed-widths", "xyz", "1 2 3\n1 2 3 0 0 1\n",
     (ERR, "{path}:2: mixed 3- and 6-field lines")),
    ("xyz-mixed-widths-6-first", "xyz", "1 2 3 0 0 1\n1 2 3\n",
     (ERR, "{path}:2: mixed 3- and 6-field lines")),
    ("xyz-four-fields", "xyz", "1 2 3 4\n", (ERR, "{path}:1: expected 3 or 6 fields")),
    ("xyz-four-fields-later", "xyz", "1 2 3\n1 2 3 4\n", (ERR, "{path}:2: expected 3 or 6 fields")),
    ("xyz-one-field", "xyz", "1\n", (ERR, "{path}:1: expected 3 or 6 fields")),
    ("xyz-underscore", "xyz", "1_0 2 3\n", (ERR, "{path}:1: malformed number")),
    ("xyz-unicode-digits", "xyz", "١٢ 2 3\n", (ERR, "{path}:1: malformed number")),
    ("xyz-fullwidth-digit", "xyz", "１ 2 3\n", (ERR, "{path}:1: malformed number")),
    ("xyz-nan", "xyz", "nan 0 0\n", (ERR, "{path}: non-finite coordinate at point 0")),
    ("xyz-inf", "xyz", "0 -inf 0\n", (ERR, "{path}: non-finite coordinate at point 0")),
    ("xyz-inf-second-point", "xyz", "1 2 3\n0 -inf 0\n",
     (ERR, "{path}: non-finite coordinate at point 1")),
    ("xyz-overflow", "xyz", "0 0 1e500\n", (ERR, "{path}: non-finite coordinate at point 0")),
    ("xyz-overflow-normal", "xyz", "0 0 0 1e500 0 0\n",
     (ERR, "{path}: non-finite normal at point 0")),
    ("xyz-huge-normal", "xyz", "0 0 0 1e300 1e300 0\n1 0 0 0 0 2\n",
     ([[0, 0, 0], [1, 0, 0]], [[HALF_ROOT, HALF_ROOT, 0], [0, 0, 1]])),
    ("xyz-subnormal-and-signed-zero", "xyz", "4.9e-324 -1e-310 -0.0\n1e-400 +1. -.5\n",
     ([[5e-324, -1e-310, -0.0], [0, 1, -0.5]], None)),
    ("xyz-malformed", "xyz", "1 2 x\n", (ERR, "{path}:1: malformed number")),
    ("xyz-hex", "xyz", "0x10 2 3\n", (ERR, "{path}:1: malformed number")),
    ("xyz-zero-normal", "xyz", "0 0 0 0 0 1\n1 0 0 0 0 0\n",
     (ERR, "{path}: zero normal at point 1")),
    ("xyz-latin1-comment", "xyz", b"# caf\xe9\n1 2 3\n", ([[1, 2, 3]], None)),
    ("xyz-latin1-body-byte", "xyz", b"1 2 3\n4 5 6\xe9\n", (ERR, "{path}:2: malformed number")),
    ("xyz-empty", "xyz", "", (ERR, "{path}: empty cloud")),
    ("xyz-only-comments", "xyz", "# a\n\n# b\n", (ERR, "{path}: empty cloud")),
    ("ply-basic", "ply-ascii", _ply(["0 0 0", "1 2 3"]), ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-normals", "ply-ascii", _ply(["0 0 0 0 0 2", "1 2 3 1 0 0"], "x y z nx ny nz"),
     ([[0, 0, 0], [1, 2, 3]], [[0, 0, 1], [1, 0, 0]])),
    ("ply-reordered", "ply-ascii", _ply(["3 2 1", "6 5 4"], "z y x"),
     ([[1, 2, 3], [4, 5, 6]], None)),
    ("ply-reordered-normals", "ply-ascii", _ply(["0 1 0 2 1 3", "1 4 0 5 0 6"], "nx x ny y nz z"),
     ([[1, 2, 3], [4, 5, 6]], [[0, 0, 1], [1, 0, 0]])),
    ("ply-extra-properties", "ply-ascii",
     _ply(["0 0 0 255 0 0", "1 2 3 0 255 7"], "x y z red green blue"),
     ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-wider-rows", "ply-ascii", _ply(["0 0 0 9 9", "1 2 3 9 9"]),
     ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-ragged-rows", "ply-ascii", _ply(["0 0 0 9", "1 2 3"]),
     (ERR, "{path}:10: mixed 3- and 4-field lines")),
    ("ply-form-feed-separator", "ply-ascii", _ply(["0\x0c0 0", "1 2 3"]),
     ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-blank-line-in-body", "ply-ascii", _ply(["0 0 0", "", "1 2 3"], count=2),
     (ERR, "{path}:10: malformed vertex line")),
    ("ply-trailing-faces", "ply-ascii", _ply(["0 0 0", "1 0 0", "0 1 0", "3 0 1 2"], count=3),
     ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], None)),
    ("ply-face-element", "ply-ascii", _ply(
        ["0 0 0", "1 0 0", "0 1 0", "3 0 1 2"], count=3,
        after_vertex=["element face 1", "property list uchar int vertex_indices"]),
     ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], None)),
    ("ply-short-vertex-line", "ply-ascii", _ply(["0 0 0", "1 2"]),
     (ERR, "{path}:10: malformed vertex line")),
    ("ply-malformed-number", "ply-ascii", _ply(["0 0 0", "1 2 y"]),
     (ERR, "{path}:10: malformed number")),
    ("ply-underscore", "ply-ascii", _ply(["1_0 0 0"]), (ERR, "{path}:9: malformed number")),
    ("ply-nan", "ply-ascii", _ply(["nan 0 0"]), (ERR, "{path}: non-finite coordinate at point 0")),
    ("ply-huge-normal", "ply-ascii",
     _ply(["0 0 0 1e300 1e300 0", "1 0 0 0 0 2"], "x y z nx ny nz"),
     ([[0, 0, 0], [1, 0, 0]], [[HALF_ROOT, HALF_ROOT, 0], [0, 0, 1]])),
    ("ply-crlf", "ply-ascii", _ply(["0 0 0", "1 2 3"]).replace("\n", "\r\n"),
     ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-zero-vertices", "ply-ascii", _ply([], count=0), (ERR, "{path}: empty cloud")),
    ("ply-truncated", "ply-ascii", _ply(["0 0 0"], count=2),
     (ERR, "{path}: truncated vertex data")),
    ("ply-element-before-vertex", "ply-ascii",
     _ply(["9 9 9", "0 0 0", "1 1 1"], count=2, before_vertex=CAMERA),
     ([[0, 0, 0], [1, 1, 1]], None)),
    ("ply-element-before-vertex-bad-number", "ply-ascii",
     _ply(["9 9 9", "0 0 0", "1 1 y"], count=2, before_vertex=CAMERA),
     (ERR, "{path}:15: malformed number")),
    ("ply-element-before-vertex-truncated", "ply-ascii",
     _ply(["9 9 9", "0 0 0"], count=2, before_vertex=CAMERA),
     (ERR, "{path}: truncated vertex data")),
    ("ply-element-count-not-integer", "ply-ascii",
     _ply(["0 0 0"], before_vertex=["element camera x"]),
     (ERR, "{path}:4: camera count is not an integer")),
    ("ply-negative-element-count", "ply-ascii",
     _ply(["0 0 0"], before_vertex=["element camera -1"]),
     (ERR, "{path}:4: negative camera count")),
    ("ply-binary", "ply-ascii",
     _ply(["0 0 0"]).replace("format ascii", "format binary_little_endian"),
     (ERR, "{path}:2: only ascii PLY supported")),
    ("ply-binary-body", "ply-ascii", BINARY_PLY, (ERR, "{path}:2: only ascii PLY supported")),
    ("ply-latin1-comment", "ply-ascii", _ply(["0 0 0"]).encode().replace(b"by hand", b"caf\xe9"),
     ([[0, 0, 0]], None)),
    ("ply-latin1-body-byte", "ply-ascii", _ply(["0 0 0", "1 2 3\xe9"]).encode("latin-1"),
     (ERR, "{path}:10: malformed number")),
    ("ply-no-end-header", "ply-ascii", _ply(["0 0 0"]).replace("end_header\n", ""),
     (ERR, "{path}: missing vertex element or end_header")),
    ("ply-no-format-line", "ply-ascii", _ply(["0 0 0"]).replace("format ascii 1.0\n", ""),
     (ERR, "{path}: missing format line")),
    ("ply-vertex-list-property", "ply-ascii",
     _ply(["0 0 0 1 5", "1 2 3 2 5 6"], after_vertex=["property list uchar int tags"]),
     (ERR, "{path}: vertex list property tags is not supported")),
    ("ply-second-vertex-element", "ply-ascii", _ply(
        ["0 0 0", "1 2 3", "7 7"], count=2,
        after_vertex=["element vertex 1", "property float a", "property float b"]),
     ([[0, 0, 0], [1, 2, 3]], None)),
    ("ply-bad-count-after-vertex", "ply-ascii",
     _ply(["0 0 0"], after_vertex=["element face x"]),
     (ERR, "{path}:8: face count is not an integer")),
    ("ply-property-before-element", "ply-ascii",
     _ply(["0 0 0", "1 2 3"], before_vertex=["property float w"]),
     (ERR, "{path}:4: property before any element")),
    ("ply-blank-header-line", "ply-ascii", _ply(["0 0 0", "1 2 3"], before_vertex=["", "  "]),
     ([[0, 0, 0], [1, 2, 3]], None)),
]


def _outcome(path, format):
    """Arrays of a successful read, or the type and text of its exception;
    a warning is raised as an exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = read_cloud(path, format)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    normals = None if cloud.normals is None else cloud.normals.tobytes()
    return cloud.points.tobytes(), normals


def _expected(outcome, path):
    """An outcome of PARITY_CASES in the form _outcome returns."""
    first, second = outcome
    if isinstance(first, type):
        return first, second.format(path=path)
    return np.array(first, dtype=np.float64).tobytes(), (
        None if second is None else np.array(second, dtype=np.float64).tobytes()
    )


class TestFastReadParity:
    # The test keeps its name, and so its ids, from when it compared the fast
    # path with a second, per-line parser; it now pins each exact outcome.
    @pytest.mark.parametrize(
        "text, format, outcome", [(t, f, o) for _, f, t, o in PARITY_CASES],
        ids=[case_id for case_id, _, _, _ in PARITY_CASES],
    )
    def test_same_as_line_parser(self, tmp_path, text, format, outcome):
        path = tmp_path / ("in.ply" if format == "ply-ascii" else "in.xyz")
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert _outcome(path, format) == _expected(outcome, path)

    @pytest.mark.parametrize("format", ["xyz", "ply-ascii"])
    @pytest.mark.parametrize("with_normals", [False, True])
    def test_written_files_take_the_fast_path(self, tmp_path, monkeypatch, format, with_normals):
        cloud = make_shape("cube", 6)
        if not with_normals:
            cloud = PointCloud(cloud.points)
        path = tmp_path / "c"
        write_cloud(cloud, path, format)
        tables = []

        def recording_parse(source):
            tables.append(parse(source))
            return tables[-1]

        parse = cloud_io._parse_table
        monkeypatch.setattr(cloud_io, "_parse_table", recording_parse)
        read_cloud(path, format)
        assert len(tables) == 1
        assert tables[0].shape == (len(cloud), 6 if with_normals else 3)


    @pytest.mark.parametrize("where", ["header", "mid-file"])
    def test_commented_xyz_takes_the_fast_path(self, tmp_path, monkeypatch, where):
        cloud = make_shape("cube", 6)
        path = tmp_path / "c.xyz"
        write_cloud(cloud, path)
        rows = path.read_text().splitlines(keepends=True)
        at = 0 if where == "header" else len(rows) // 2
        path.write_text("".join(rows[:at] + ["# x y z nx ny nz\n", "  # note\n"] + rows[at:]))
        tables = []

        def recording_parse(source):
            tables.append(parse(source))
            return tables[-1]

        parse = cloud_io._parse_table
        monkeypatch.setattr(cloud_io, "_parse_table", recording_parse)
        back = read_cloud(path)
        assert tables[-1].shape == (len(cloud), 6)
        assert np.allclose(back.points, cloud.points, atol=1e-8)


# One mutation of one body line per fuzz case: a token replaced by each of
# these, a field dropped or added, a blank or "#" line inserted before the
# line, or the file cut inside it.
JUNK_TOKENS = ("x", "1_0", "\uff11")
MUTATIONS = JUNK_TOKENS + ("1e500", "nan", "drop", "add", "blank", "comment", "cut")


def _mutate(lines, at, mutation, rng):
    """`lines` with line `at` mutated as MUTATIONS names."""
    fields = lines[at].split()
    column = int(rng.integers(len(fields)))
    if mutation in ("blank", "comment"):
        return lines[:at] + ["\n" if mutation == "blank" else "# note\n"] + lines[at:]
    if mutation == "cut":
        return lines[:at] + [lines[at][: int(rng.integers(1, len(lines[at]) - 1))]]
    if mutation == "drop":
        del fields[column]
    elif mutation == "add":
        fields.insert(column, "0.5")
    else:
        fields[column] = mutation
    return lines[:at] + [" ".join(fields) + "\n"] + lines[at + 1 :]


def _expected_table(lines, format, header, count, width):
    """np.loadtxt of the body lines that survive, if the format accepts them
    as a cloud of finite values, else None."""
    if format == "xyz":
        body = [line for line in lines if line.strip()[:1] not in ("", "#")]
    else:
        body = lines[header : header + count]
        if len(body) < count:
            return None
    try:
        table = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if len(table) != len(body) or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


class TestReaderFuzz:
    def test_one_mutated_body_line(self, tmp_path):
        """Seeded fuzz in the style of criterion 1. Each case writes a small
        cloud, mutates one body line and reads it back under warnings-as-errors:
        the read gives np.loadtxt's values of the surviving body lines or
        raises ValueError (CloudIOError is one), and a junk token is reported
        as a malformed number at its own line."""
        cases = [(m, f) for m in MUTATIONS for f in ("xyz", "ply-ascii")] * 12
        for seed, (mutation, format) in enumerate(cases):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(2, 8))
            normals = None
            if rng.random() < 0.5:
                normals = rng.normal(size=(count, 3))
                normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            path = tmp_path / f"case{seed}"
            write_cloud(PointCloud(rng.normal(size=(count, 3)), normals), path, format)
            lines = path.read_text().splitlines(keepends=True)
            header = len(lines) - count
            at = header + int(rng.integers(count))
            lines = _mutate(lines, at, mutation, rng)
            path.write_text("".join(lines))
            width = 3 if normals is None else 6
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = _expected_table(lines, format, header, count, width)
                if table is None:
                    with pytest.raises(ValueError) as err:
                        read_cloud(path, format)
                    if mutation in JUNK_TOKENS:
                        assert str(err.value) == f"{path}:{at + 1}: malformed number"
                    continue
                cloud = read_cloud(path, format)
            assert mutation not in JUNK_TOKENS + ("1e500", "nan", "drop", "add")
            assert np.array_equal(cloud.points, table[:, :3])
            if normals is None:
                assert cloud.normals is None
            else:
                want = table[:, 3:] / np.linalg.norm(table[:, 3:], axis=1, keepdims=True)
                assert np.allclose(cloud.normals, want, rtol=0.0, atol=1e-15)


class TestPlyHeaderErrors:
    @pytest.mark.parametrize(
        "header_line, lineno, message",
        [
            ("element vertex two", 4, "vertex count is not an integer"),
            ("element vertex", 4, "vertex count is not an integer"),
            ("element vertex -2", 4, "negative vertex count"),
            ("element", 4, "malformed element line"),
        ],
    )
    def test_bad_element_line(self, tmp_path, header_line, lineno, message):
        path = tmp_path / "h.ply"
        path.write_text(_ply(["0 0 0"]).replace("element vertex 1", header_line))
        with pytest.raises(CloudIOError, match=rf"h\.ply:{lineno}: {message}"):
            read_cloud(path, format="ply-ascii")

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            # a name-less line would read as a property named "float" or
            # "property" and shift every later column; one extra field would
            # read as the name, so "nx" here would be lost
            (_ply(["0 0 0 1"], after_vertex=["property float"]), 8, "malformed property line"),
            (_ply(["0 0 0 1"], after_vertex=["property"]), 8, "malformed property line"),
            (_ply(["0 0 0"], after_vertex=["element face 0", "property list uchar int"]), 9,
             "malformed property line"),
            (_ply(["0 0 0 0 0 1"], after_vertex=["property float nx extra", "property float ny",
                                                 "property float nz"]), 8,
             "malformed property line"),
            # a repeated name would be read from its first column
            (_ply(["0 0 0 1"], properties="x y z x"), 8, "duplicate vertex property x"),
        ],
        ids=["no-name", "bare", "list-no-name", "extra-field", "repeated-x"],
    )
    def test_bad_property_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "h.ply"
        path.write_text(text)
        with pytest.raises(CloudIOError, match=rf"h\.ply:{lineno}: {message}$"):
            read_cloud(path, format="ply-ascii")

    def test_bare_format_line(self, tmp_path):
        path = tmp_path / "h.ply"
        path.write_text(_ply(["0 0 0"]).replace("format ascii 1.0", "format"))
        with pytest.raises(CloudIOError, match=r"h\.ply:2: malformed format line"):
            read_cloud(path, format="ply-ascii")

    def test_missing_format_line(self, tmp_path):
        path = tmp_path / "h.ply"
        path.write_text("ply\nelement vertex 2\nproperty float x\nproperty float y\n"
                        "property float z\nend_header\n0 0 0\n1 2 3\n")
        with pytest.raises(CloudIOError, match=r"h\.ply: missing format line$"):
            read_cloud(path, format="ply-ascii")


def _old_write_rows(values):
    """The writer's former per-value formatting, as the byte reference."""
    return "\n".join(" ".join(f"{v:.9g}" for v in row) for row in values) + "\n"


def _first_difference(got, want):
    """(line index, got line, wanted line) of the first differing line, or
    None; keeps a failure readable where a diff of the whole text is not."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else None
        w = want_lines[i] if i < len(want_lines) else None
        if g != w:
            return i, g, w
    return None


class TestWriteBytes:
    SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300, 1.0, -7.0,
               12345678901.0, 0.1, 1 / 3, 123456789.5]

    def _points(self, rows):
        rng = np.random.default_rng(4)
        pts = rng.normal(0.0, 10.0, size=(rows, 3)) * 10.0 ** rng.integers(-8, 9, size=(rows, 1))
        flat = pts.reshape(-1)
        flat[: len(self.SPECIAL)] = self.SPECIAL[: len(flat)]
        pts[-1] = [-0.0, 42.0, 1e-300]
        return pts

    @pytest.mark.parametrize("format", ["xyz", "ply-ascii"])
    @pytest.mark.parametrize("rows", [1, 5, cloud_io.WRITE_CHUNK_ROWS + 3])
    def test_points_match_per_value_format(self, tmp_path, format, rows):
        pts = self._points(rows)
        path = tmp_path / "o"
        write_cloud(PointCloud(pts), path, format)
        body = path.read_bytes().decode().split("end_header\n")[-1]
        assert _first_difference(body, _old_write_rows(pts)) is None

    def test_normals_match_per_value_format(self, tmp_path):
        rows = 2 * cloud_io.WRITE_CHUNK_ROWS + 1
        pts = self._points(rows)
        normals = np.random.default_rng(5).normal(size=(rows, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        normals[:3] = [[-0.0, 0.0, -1.0], [1.0, -0.0, 0.0], [0.6, 0.8, 0.0]]
        path = tmp_path / "o.xyz"
        write_cloud(PointCloud(pts, normals), path)
        expected = _old_write_rows(np.hstack([pts, normals]))
        assert _first_difference(path.read_bytes().decode(), expected) is None


DEGENERATE_CASES = (
    "plain", "triplicates", "collinear", "coincident", "outlier",
    "scale-1e-12", "scale-1e12", "scale-1e-300", "scale-1e300", "scale-1e308",
    "two-components", "k-n-minus-1",
)
# The cases whose run stops with a PipelineError, and its text; every other
# case gives finite output.
DEGENERATE_ERRORS = {
    "coincident": "[normalize] degenerate extent",
    "scale-1e308": "[normalize] extent overflows float64",
}


def _degenerate_cloud(case, rng):
    """A seeded noisy cube (96 points, exact normals) made degenerate as `case`
    names, and the filter k to run it with."""
    cube = make_shape("cube", 4)
    points = cube.points + rng.normal(0.0, 0.005, size=cube.points.shape)
    normals = cube.normals
    k = FilterParams.k
    if case == "triplicates":
        points, normals = np.repeat(points, 3, axis=0), np.repeat(normals, 3, axis=0)
    elif case == "collinear":
        points = rng.random((len(points), 1)) * [[1.0, 2.0, 3.0]]
    elif case == "coincident":
        points = np.tile(points[0], (len(points), 1))
    elif case == "outlier":
        points[0] = 1e6
    elif case.startswith("scale-"):
        points = points * float(case.removeprefix("scale-"))
    elif case == "two-components":
        points, normals = np.vstack([points, points + 100.0]), np.vstack([normals, normals])
    elif case == "k-n-minus-1":
        k = len(points) - 1
    return PointCloud(points, normals), k


class TestRunPipeline:
    def test_degenerate_inputs(self, tmp_path):
        """Seeded loop in the style of criterion 1 over degenerate inputs,
        with PCA and with file normals: each run gives finite points, normals
        and diagnostics, or a PipelineError naming its stage, and none warns."""
        outcomes = {}
        cases = [(case, source) for case in DEGENERATE_CASES for source in ("pca", "file")]
        for seed, (case, source) in enumerate(cases):
            cloud, k = _degenerate_cloud(case, np.random.default_rng(seed))
            src = tmp_path / f"in{seed}.xyz"
            write_cloud(cloud, src)
            config = RunConfig(
                input_path=str(src),
                output_path=str(tmp_path / f"out{seed}.xyz"),
                filter_params=FilterParams(k=k),
                normal_source=source,
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out, diagnostics, _ = run_pipeline(config)
                except PipelineError as exc:
                    outcomes[case, source] = f"[{exc.stage}] {exc}"
                else:
                    values = [out.points, out.normals] + [list(vars(d).values()) for d in diagnostics]
                    finite = all(np.isfinite(v).all() for v in values)
                    outcomes[case, source] = "finite" if finite else "non-finite"
            warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
            assert warned == [], (case, source)
        expected = {
            (case, source): DEGENERATE_ERRORS.get(case, "finite") for case, source in cases
        }
        assert outcomes == expected

    def test_end_to_end_with_file_normals(self, tmp_path):
        cloud = make_shape("plane", 10)
        src = tmp_path / "in.xyz"
        dst = tmp_path / "out.xyz"
        write_cloud(cloud, src)
        config = RunConfig(
            input_path=str(src),
            output_path=str(dst),
            filter_params=FilterParams(k=10, t=2),
            normal_source="file",
        )
        out_cloud, diagnostics, report = run_pipeline(config)
        assert dst.exists()
        assert (tmp_path / "out.xyz.diagnostics.csv").exists()
        assert len(diagnostics) == 2
        assert report is None
        assert len(out_cloud) == len(cloud)

    def test_metrics_report_written(self, tmp_path):
        cloud = make_shape("plane", 10)
        src = tmp_path / "in.xyz"
        write_cloud(cloud, src)
        config = RunConfig(
            input_path=str(src),
            output_path=str(tmp_path / "out.xyz"),
            filter_params=FilterParams(k=10, t=1),
            normal_source="file",
            gt_path=str(src),
            report_path=str(tmp_path / "report.txt"),
        )
        _, _, report = run_pipeline(config)
        text = (tmp_path / "report.txt").read_text()
        assert "chamfer=" in text and "wall_time_seconds=" in text
        assert report.s1_count == len(cloud)

    def test_missing_input_raises_staged_error(self, tmp_path):
        config = RunConfig(
            input_path=str(tmp_path / "absent.xyz"),
            output_path=str(tmp_path / "out.xyz"),
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "read"

    def test_file_normals_requested_but_absent(self, tmp_path):
        src = tmp_path / "in.xyz"
        write_cloud(PointCloud(np.random.default_rng(0).random((40, 3))), src)
        config = RunConfig(
            input_path=str(src),
            output_path=str(tmp_path / "out.xyz"),
            normal_source="file",
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "normals"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(input_path="", output_path="x")
        with pytest.raises(ValueError):
            RunConfig(input_path="a", output_path="b", normal_source="guess")
        for pca_k, message in ((2, "pca_k must be >= 3"), (2.5, "pca_k must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                RunConfig(input_path="a", output_path="b", pca_k=pca_k)
        with pytest.raises(ValueError, match="^unknown format: 'foo'$"):
            RunConfig(input_path="a", output_path="b", format="foo")
        with pytest.raises(ValueError, match="^report_path needs gt_path$"):
            RunConfig(input_path="a", output_path="b", report_path="r.txt")


class TestCli:
    def test_shape_noise_filter_metrics_chain(self, tmp_path):
        clean = tmp_path / "clean.xyz"
        noisy = tmp_path / "noisy.xyz"
        filtered = tmp_path / "filtered.xyz"
        report = tmp_path / "report.txt"
        assert main(["shape", "--kind", "plane", "--samples", "12", "--output", str(clean)]) == 0
        assert main([
            "noise", "--input", str(clean), "--output", str(noisy),
            "--level", "0.003", "--seed", "1",
        ]) == 0
        assert main([
            "filter", "--input", str(noisy), "--output", str(filtered),
            "--normals", "file", "--k", "12", "--mu", "0.1", "--iters", "3",
            "--gt", str(clean), "--report", str(report),
        ]) == 0
        assert "chamfer=" in report.read_text()
        out = read_cloud(filtered)
        assert len(out) == 144
        assert main([
            "metrics", "--input", str(filtered), "--gt", str(clean),
        ]) == 0

    def test_normals_subcommand(self, tmp_path):
        src = tmp_path / "s.xyz"
        dst = tmp_path / "n.xyz"
        write_cloud(PointCloud(make_shape("plane", 10).points), src)
        assert main([
            "normals", "--input", str(src), "--output", str(dst), "--pca-k", "8",
        ]) == 0
        out = read_cloud(dst)
        assert np.all(np.abs(out.normals[:, 2]) > 0.99)

    def test_normals_subcommand_matches_smoothed_normals(self, tmp_path):
        src = tmp_path / "s.xyz"
        dst = tmp_path / "n.xyz"
        want = tmp_path / "want.xyz"
        clean = make_shape("sphere", 6)
        rng = np.random.default_rng(3)
        write_cloud(PointCloud(clean.points + rng.normal(0.0, 0.01, clean.points.shape)), src)
        assert main([
            "normals", "--input", str(src), "--output", str(dst), "--pca-k", "10",
            "--bilateral-sigma-r", "0.4", "--bilateral-iters", "2", "--bilateral-k", "12",
        ]) == 0
        cloud = read_cloud(src)
        params = BilateralParams(sigma_r=0.4, iterations=2, k=12)
        normalized, _ = normalize_cloud(cloud)
        smoothed = smoothed_normals(normalized, "pca", 10, params)
        write_cloud(PointCloud(cloud.points, smoothed), want)
        assert dst.read_bytes() == want.read_bytes()

    def test_normals_subcommand_sigma_s_in_normalized_frame(self, tmp_path):
        # --bilateral-sigma-s is a length in the normalized frame, as in
        # `filter`; smoothing the cloud as read differed by up to 30.8 deg
        src = tmp_path / "s.xyz"
        dst = tmp_path / "n.xyz"
        want = tmp_path / "want.xyz"
        clean = make_shape("cube", 8)
        rng = np.random.default_rng(5)
        noisy = clean.points + rng.normal(0.0, 0.005, clean.points.shape)
        write_cloud(PointCloud(100.0 * noisy), src)
        assert main([
            "normals", "--input", str(src), "--output", str(dst),
            "--bilateral-sigma-s", "0.05",
        ]) == 0
        cloud = read_cloud(src)
        normalized, _ = normalize_cloud(cloud)
        smoothed = smoothed_normals(normalized, "pca", 12, BilateralParams(sigma_s=0.05))
        write_cloud(PointCloud(cloud.points, smoothed), want)
        assert dst.read_bytes() == want.read_bytes()

    def test_filter_writes_the_normals_that_normals_writes(self, tmp_path):
        # both commands smooth in the normalized frame, so one
        # --bilateral-sigma-s gives the same normals whatever the input scale
        src = tmp_path / "s.xyz"
        clean = make_shape("cube", 8)
        rng = np.random.default_rng(5)
        noisy = clean.points + rng.normal(0.0, 0.005, clean.points.shape)
        write_cloud(PointCloud(100.0 * noisy + [3.0, -7.0, 11.0]), src)
        written = {}
        for command, extra in (("normals", []), ("filter", ["--iters", "1"])):
            dst = tmp_path / f"{command}.xyz"
            assert main([
                command, "--input", str(src), "--output", str(dst),
                "--bilateral-sigma-s", "0.05", *extra,
            ]) == 0
            written[command] = [line.split()[3:] for line in dst.read_text().splitlines()]
        assert len(written["filter"]) == len(clean)
        assert written["filter"] == written["normals"]

    @pytest.mark.parametrize("command", ["normals", "filter", "noise", "shape", "metrics"])
    def test_read_and_write_errors_name_their_stage(self, tmp_path, capsys, command):
        src = tmp_path / "s.xyz"
        write_cloud(PointCloud(make_shape("plane", 8).points), src)

        def argv(input, output):
            if command == "shape":
                return ["shape", "--kind", "plane", "--output", str(output)]
            if command == "metrics":
                return ["metrics", "--input", str(input), "--gt", str(src), "--report", str(output)]
            extra = ["--level", "0.01"] if command == "noise" else []
            return [command, "--input", str(input), "--output", str(output), *extra]

        if command != "shape":
            assert main(argv(tmp_path / "missing.xyz", tmp_path / "o.xyz")) == 1
            assert capsys.readouterr().err.startswith("error [read]: ")
        write_stage = "report" if command == "metrics" else "write"
        assert main(argv(src, tmp_path / "no-such-dir" / "o.xyz")) == 1
        assert capsys.readouterr().err.startswith(f"error [{write_stage}]: ")

    def test_nonfinite_mu_rejected(self, tmp_path, capsys):
        src = tmp_path / "s.xyz"
        write_cloud(make_shape("plane", 8), src)
        code = main([
            "filter", "--input", str(src), "--output", str(tmp_path / "o.xyz"), "--mu", "nan",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error [filter]: mu must be finite and non-negative\n"
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command, message", [
        ("filter", "error [filter]: pca_k must be >= 3\n"),
        ("normals", "error [normals]: k must be >= 3\n"),
    ], ids=["filter", "normals"])
    def test_pca_k_below_three_rejected(self, tmp_path, capsys, command, message):
        src = tmp_path / "s.xyz"
        write_cloud(make_shape("plane", 8), src)
        code = main([command, "--input", str(src), "--output", str(tmp_path / "o.xyz"), "--pca-k", "2"])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o.xyz").exists()

    def test_report_without_gt_rejected(self, tmp_path, capsys):
        # the report compares against --gt, so without it none could be written
        src = tmp_path / "s.xyz"
        write_cloud(make_shape("plane", 8), src)
        out, report = tmp_path / "o.xyz", tmp_path / "r.txt"
        code = main(["filter", "--input", str(src), "--output", str(out), "--report", str(report)])
        assert code == 1
        assert capsys.readouterr().err == "error [filter]: report_path needs gt_path\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("h", ["inf", "auto:inf"])
    def test_infinite_h_rejected(self, tmp_path, capsys, h):
        src = tmp_path / "s.xyz"
        write_cloud(make_shape("plane", 8), src)
        code = main(["filter", "--input", str(src), "--output", str(tmp_path / "o.xyz"), "--h", h])
        assert code == 1
        assert capsys.readouterr().err == "error [filter]: h_value must be finite and positive\n"
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("flag, value, stage, width", [
        ("--h", "1e200", "filter", "support radius h"),
        ("--h", "auto:1e200", "filter", "support radius h"),
        ("--h", "1e-200", "filter", "support radius h"),
        ("--h", "auto:1e-320", "filter", "support radius h"),
        ("--bilateral-sigma-s", "1e200", "bilateral", "bilateral sigma_s"),
        ("--bilateral-sigma-s", "1e-200", "bilateral", "bilateral sigma_s"),
        ("--bilateral-sigma-r", "1e200", "bilateral", "bilateral sigma_r"),
        ("--bilateral-sigma-r", "1e-170", "bilateral", "bilateral sigma_r"),
    ])
    def test_out_of_range_width_rejected(self, tmp_path, capsys, flag, value, stage, width):
        # the square of such a width overflows or underflows
        src = tmp_path / "s.xyz"
        write_cloud(make_shape("sphere", 12), src)
        code = main(["filter", "--input", str(src), "--output", str(tmp_path / "o.xyz"), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error \[{stage}\]: {width} = \S+ is outside \[1e-150, 1e\+150\]\n", err)
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command", ["normals", "filter"])
    def test_all_coincident_cloud_fails_at_normalize(self, tmp_path, capsys, command):
        src = tmp_path / "coincident.xyz"
        write_cloud(PointCloud(np.ones((40, 3))), src)
        code = main([command, "--input", str(src), "--output", str(tmp_path / "o.xyz")])
        assert code == 1
        assert capsys.readouterr().err == "error [normalize]: degenerate extent\n"

    @pytest.mark.parametrize("command", ["normals", "filter"])
    def test_coincident_clusters_fail_at_bilateral(self, tmp_path, capsys, command):
        # the extent is positive, but every point has 39 coincident others,
        # so the automatic bilateral scale is 0; stderr carries no warning
        src = tmp_path / "clusters.xyz"
        write_cloud(PointCloud(np.repeat(np.eye(3), 40, axis=0)), src)
        code = main([command, "--input", str(src), "--output", str(tmp_path / "o.xyz")])
        assert code == 1
        assert capsys.readouterr().err == "error [bilateral]: degenerate bilateral scale\n"

    def test_normals_subcommand_file_normals_absent(self, tmp_path, capsys):
        src = tmp_path / "s.xyz"
        write_cloud(PointCloud(make_shape("plane", 6).points), src)
        code = main([
            "normals", "--input", str(src), "--output", str(tmp_path / "n.xyz"),
            "--normals", "file",
        ])
        assert code == 1
        assert "error [normals]: input file carries no normals" in capsys.readouterr().err

    def test_flag_defaults_are_the_dataclass_defaults(self):
        # `cloudfilter filter` with no tuning flags runs what run_pipeline
        # runs on a bare RunConfig
        parser = build_parser()
        args = parser.parse_args(["filter", "--input", "a", "--output", "b"])
        assert _config_from_args(args) == RunConfig("a", "b")
        args = parser.parse_args(["normals", "--input", "a", "--output", "b"])
        assert _bilateral_params(args) == BilateralParams()
        assert (args.format, args.normals, args.pca_k) == (
            RunConfig.format, RunConfig.normal_source, RunConfig.pca_k
        )
        args = parser.parse_args(["filter", "--input", "a", "--output", "b", "--h", "auto"])
        assert _config_from_args(args).filter_params == FilterParams()

    def test_h_flag_parsing(self, tmp_path):
        clean = tmp_path / "c.xyz"
        write_cloud(make_shape("plane", 8), clean)
        for h in ("auto:2", "0.15"):
            assert main([
                "filter", "--input", str(clean), "--output", str(tmp_path / "o.xyz"),
                "--normals", "file", "--k", "8", "--iters", "1", "--h", h,
            ]) == 0

    @pytest.mark.parametrize("h", ["autox", "auto:x", "auto:", "abc"])
    def test_malformed_h_rejected_by_argparse(self, tmp_path, capsys, h):
        clean = tmp_path / "c.xyz"
        write_cloud(make_shape("plane", 8), clean)
        with pytest.raises(SystemExit) as exit_:
            main([
                "filter", "--input", str(clean), "--output", str(tmp_path / "o.xyz"),
                "--normals", "file", "--k", "8", "--iters", "1", "--h", h,
            ])
        assert exit_.value.code == 2
        assert "argument --h: expected a number" in capsys.readouterr().err
        assert not (tmp_path / "o.xyz").exists()

    def test_option_surface(self):
        # every flag added to or removed from the command line shows here
        expected = {
            "filter": [
                "--input", "--output", "--format", "--normals", "--pca-k",
                "--bilateral-sigma-s", "--bilateral-sigma-r", "--bilateral-iters",
                "--bilateral-k", "--k", "--mu", "--iters", "--h", "--gt", "--report",
                "--diagnostics",
            ],
            "normals": [
                "--input", "--output", "--format", "--normals", "--pca-k",
                "--bilateral-sigma-s", "--bilateral-sigma-r", "--bilateral-iters",
                "--bilateral-k",
            ],
            "noise": ["--input", "--output", "--format", "--level", "--seed"],
            "shape": ["--kind", "--samples", "--output", "--format"],
            "metrics": ["--input", "--gt", "--format", "--report"],
        }
        (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: [opt for a in sub._actions if a.dest != "help" for opt in a.option_strings]
            for name, sub in subs.choices.items()
        }
        assert surface == expected

    def test_module_entry_point_runs_without_warning(self):
        src = str(Path(cloudfilter.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cloudfilter.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: cloudfilter" in proc.stdout
