"""Core geometric types: point clouds, exact k-NN index, normalization, and
the row-block runner the per-point kernels share."""

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from dataclasses import dataclass
from scipy.spatial import cKDTree

UNIT_NORM_TOL = 1e-6

# Integer type of neighbour indices. int32 halves every (M, k) neighbour
# table against intp and caps a cloud at 2**31 - 1 points.
INDEX_DTYPE = np.int32


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# Threads for whole-cloud KD-tree queries and row-block kernels: every CPU
# the process may run on, so taskset or a cpuset bounds it. Results do not
# depend on it.
WORKERS = _usable_cpus()

# Rows per block of the (M, k, 3) temporaries, which bounds their memory to
# BLOCK_ROWS rows per worker. Results do not depend on it.
BLOCK_ROWS = 1024


def for_row_blocks(fn, m):
    """Call fn(rows) for each slice `rows` of BLOCK_ROWS consecutive rows of
    range(m), on up to WORKERS threads.

    Each call must write only its own rows of a preallocated output, so the
    result is the same for any block size and thread count. The pool lives
    for this call only; with one block or one worker the calls run inline.

    The kernels gather with np.take(a, idx, axis=0), sum over the neighbour
    axis with np.einsum and write length-3 norms as x*x + y*y + z*z. Each
    gives the bits of a[idx], .sum(axis=1) or np.linalg.norm without numpy's
    strided inner loops (README.md, "Performance").
    """
    blocks = [slice(s, min(s + BLOCK_ROWS, m)) for s in range(0, m, BLOCK_ROWS)]
    if WORKERS == 1 or len(blocks) <= 1:
        for rows in blocks:
            fn(rows)
        return
    with ThreadPoolExecutor(min(WORKERS, len(blocks))) as pool:
        list(pool.map(fn, blocks))  # re-raises the first block's exception


# Kernel widths (the support radius h, bilateral sigma_s and sigma_r) are
# accepted in [KERNEL_WIDTH_MIN, KERNEL_WIDTH_MAX]. A kernel divides at most 4
# by a squared width: (1 - n_i.n_j)^2 <= 4, and r^2 / (h/2)^2 = 4 r^2 / h^2
# with r <= 1 in the unit-diagonal frame. Inside the range both the square
# and that quotient are normal floats. Farther neighbours, as in a library
# call on a larger cloud, overflow the quotient to inf; theta and bilateral's
# spatial kernel then give their limit 0 without a warning.
KERNEL_WIDTH_MIN = 1e-150
KERNEL_WIDTH_MAX = 1e150


def check_kernel_width(name, width):
    """Raise ValueError naming the width unless it lies in
    [KERNEL_WIDTH_MIN, KERNEL_WIDTH_MAX]."""
    if not KERNEL_WIDTH_MIN <= width <= KERNEL_WIDTH_MAX:
        raise ValueError(
            f"{name} = {width:g} is outside [{KERNEL_WIDTH_MIN:g}, {KERNEL_WIDTH_MAX:g}]"
        )


def check_count(name, value, minimum):
    """Raise ValueError naming the value unless it is an int or a numpy
    integer, not a bool, of at least `minimum`, so a count such as k = 2.5,
    k = True or t = 0 fails where it enters."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_number(name, value, zero_ok=False):
    """Raise ValueError naming the value unless it is a finite real number
    above 0, or at least 0 when zero_ok: NaN, an infinity, a bool or a
    string such as mu = "0.3" fails where it enters (an int too large for a
    float raises math.isfinite's OverflowError)."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and math.isfinite(value)
        and value >= 0 and (zero_ok or value > 0)
    ):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {sign}")


def _check_k(k, m):
    check_count("k", k, 1)
    if k >= m:
        raise ValueError("k exceeds cloud size")


def as_points(points):
    """Coerce to a C-contiguous float64 (M, 3) array, validating finiteness.

    C order makes results independent of the caller's memory layout: numpy
    reductions such as mean(axis=0) sum in a layout-dependent order.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (M, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid coordinate")
    return pts


def as_normals(normals, count):
    """Coerce to a C-contiguous float64 (count, 3) array, validating that
    every row is a finite unit vector (within UNIT_NORM_TOL).

    Every stage that takes normals calls this, so a bad normal fails where
    it enters, not as a NaN or an index error some stages later.
    """
    nrm = np.ascontiguousarray(normals, dtype=np.float64)
    if nrm.shape != (count, 3):
        raise ValueError("normals must match points in length")
    if not np.all(np.isfinite(nrm)):
        raise ValueError("invalid normal component")
    if np.any(np.abs(np.linalg.norm(nrm, axis=1) - 1.0) > UNIT_NORM_TOL):
        raise ValueError("normals must be unit length")
    return nrm


@dataclass
class PointCloud:
    """Ordered positions with optional parallel unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = as_normals(self.normals, len(self.points))

    def __len__(self):
        return len(self.points)

    def with_points(self, points):
        """Copy of the cloud with replaced positions, normals carried over."""
        normals = None if self.normals is None else self.normals.copy()
        return PointCloud(as_points(points).copy(), normals)


@dataclass
class CloudTransform:
    """Centralize/scale map recorded at ingest; invertible to the input frame."""

    translation: np.ndarray
    scale: float

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.translation)):
            raise ValueError("translation must be finite")
        check_number("scale", self.scale)
        self.scale = float(self.scale)

    def apply(self, points):
        return (as_points(points) - self.translation) / self.scale

    def invert(self, points):
        return as_points(points) * self.scale + self.translation


class NeighborIndex:
    """Exact k-nearest-neighbor index over an immutable snapshot of positions.

    Neighbor lists are sorted by non-decreasing distance; exact ties are
    broken by lower point index so patches are deterministic across
    platforms.

    _query, the one query step of k_nearest and k_nearest_all, applies the
    rule. It costs nothing on rows whose distances strictly rise: the KD-tree
    already returns them in (distance, index) order, so _query takes them
    without a sort. It flags a tied row (a tie or a coincident point) as cut
    off when its tie group may extend past the query, and sorts every other
    tied row by (distance, index). k_nearest_all hands only cut-off rows to one
    k_nearest call, which re-queries them with a doubling k until a returned
    point lies past the k-th distance, proving the tie group covered. Each
    query returns at most BLOCK_ROWS * (k + 2) neighbours or one row, so
    temporaries stay bounded per worker.

    Neighbour indices are INDEX_DTYPE (int32), so an (M, k) table takes
    4 M k bytes, and a cloud may hold at most 2**31 - 1 points.
    """

    def __init__(self, points):
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("empty cloud")
        limit = np.iinfo(INDEX_DTYPE).max
        if len(pts) > limit:
            raise ValueError(
                f"cloud has {len(pts)} points; neighbour indices are "
                f"{np.dtype(INDEX_DTYPE).name}, which hold at most {limit}"
            )
        self._points = pts.copy()
        self._tree = cKDTree(self._points)

    @property
    def count(self):
        return len(self._points)

    @property
    def points(self):
        """Read-only view of the indexed snapshot."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    def _query(self, q, k, kq):
        """One kq-point query of points q, min(k + 2, M) <= kq <= M: the (n, k)
        neighbour table and the (n,) mask of cut-off rows, left unresolved."""
        dist, idx = self._tree.query(self._points[q], k=kq, workers=1)
        # a strictly rising row is in (distance, index) order, self first
        out = idx[:, 1 : k + 1].astype(INDEX_DTYPE)
        tied = np.any(dist[:, 1:] <= dist[:, :-1], axis=1)
        # Distances come sorted: the k-th other is column k if self is in the
        # first k, else k - 1. A returned point past it proves its tie group whole.
        kth = np.where(np.any(idx[:, :k] == q[:, None], axis=1), dist[:, k], dist[:, k - 1])
        cut = tied & (dist[:, -1] <= kth) & (kq < self.count)
        rows = np.flatnonzero(tied & ~cut)
        dist, idx = dist[rows], idx[rows]
        # mask self out with +inf and lexsort each row by (distance, index)
        masked = np.where(idx == q[rows, None], np.inf, dist)
        order = np.lexsort((idx, masked), axis=-1)[:, :k]
        out[rows] = np.take_along_axis(idx, order, axis=-1)
        return out, cut

    def k_nearest(self, query_idx, k):
        """INDEX_DTYPE indices of the k nearest points to point `query_idx`
        (self excluded): (k,) for one index, (n, k) for an array of n."""
        m = self.count
        queries = np.asarray(query_idx)
        if queries.dtype.kind not in "iu":
            raise IndexError(f"query index must be an integer, got {queries.dtype.name}")
        if np.any((queries < 0) | (queries >= m)):
            raise IndexError("query index out of range")
        _check_k(k, m)
        flat = queries.reshape(-1)
        out = np.empty((len(flat), k), dtype=INDEX_DTYPE)
        cut = np.empty(len(flat), dtype=bool)

        def block(rows):
            todo, kq = np.arange(rows.start, rows.stop), k + 2
            while len(todo):
                kq = min(kq, m)
                # at most BLOCK_ROWS * (k + 2) neighbours, or one row, per query
                step = max(1, BLOCK_ROWS * (k + 2) // kq)
                for sub in np.split(todo, range(step, len(todo), step)):
                    out[sub], cut[sub] = self._query(flat[sub], k, kq)
                todo, kq = todo[cut[todo]], 2 * kq

        for_row_blocks(block, len(flat))
        return out.reshape(queries.shape + (k,))

    def k_nearest_all(self, k):
        """(M, k) INDEX_DTYPE neighbor indices for every point, in row blocks
        that bound the query's temporaries per worker. Rows the first query may
        have cut off go to one k_nearest call, on the calling thread."""
        m = self.count
        _check_k(k, m)
        kq = min(k + 2, m)
        out = np.empty((m, k), dtype=INDEX_DTYPE)
        cut = np.empty(m, dtype=bool)

        def block(rows):
            out[rows], cut[rows] = self._query(np.arange(rows.start, rows.stop), k, kq)

        for_row_blocks(block, m)
        flagged = np.flatnonzero(cut)
        if len(flagged):
            out[flagged] = self.k_nearest(flagged, k)
        return out

    def nearest_distances(self):
        """Distance from every point to its nearest other point."""
        _check_k(1, self.count)
        dist, _ = self._tree.query(self._points, k=[2], workers=WORKERS)
        return dist[:, 0]

    def kth_distances(self, k):
        """Distance from every point to its k-th nearest other point."""
        _check_k(k, self.count)
        dist, _ = self._tree.query(self._points, k=[k + 1], workers=WORKERS)
        return dist[:, 0]


def build_neighbor_index(points):
    """Build an exact k-NN index over a snapshot of `points`."""
    return NeighborIndex(points)


def bbox_diagonal(points):
    """Length of the bounding-box diagonal. Where the squared sides under-
    or overflow, the extent is first divided by its largest side; every
    other cloud keeps the plain norm's bits."""
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("empty cloud")
    with np.errstate(over="ignore"):
        extent = pts.max(axis=0) - pts.min(axis=0)
        diag = float(np.linalg.norm(extent))
        side = extent.max()
        if diag in (0.0, np.inf) and 0.0 < side < np.inf:
            diag = float(side * np.linalg.norm(extent / side))
    return diag


def normalize_cloud(cloud):
    """Translate the centroid to the origin and scale the bounding-box
    diagonal to 1. Returns the normalized cloud and the transform mapping
    it back to the input frame."""
    pts = cloud.points
    if len(pts) < 2:
        raise ValueError("degenerate extent")
    with np.errstate(over="ignore"):
        centroid = pts.mean(axis=0)
        diag = bbox_diagonal(pts)
    if not (np.isfinite(centroid).all() and np.isfinite(diag)):
        raise ValueError("extent overflows float64")
    if diag <= 0:
        raise ValueError("degenerate extent")
    transform = CloudTransform(centroid, diag)
    return cloud.with_points(transform.apply(pts)), transform
