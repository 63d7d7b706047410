"""Core geometric types: point clouds, exact k-NN index, normalization, and
the row-block runner the per-point kernels share."""

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
    """
    blocks = [slice(s, min(s + BLOCK_ROWS, m)) for s in range(0, m, BLOCK_ROWS)]
    if WORKERS == 1 or len(blocks) <= 1:
        for rows in blocks:
            fn(rows)
        return
    with ThreadPoolExecutor(min(WORKERS, len(blocks))) as pool:
        list(pool.map(fn, blocks))  # re-raises the first block's exception


def _check_k(k, m):
    if k < 1:
        raise ValueError("k must be >= 1")
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
        self.scale = float(self.scale)
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def apply(self, points):
        return (as_points(points) - self.translation) / self.scale

    def invert(self, points):
        return as_points(points) * self.scale + self.translation


class NeighborIndex:
    """Exact k-nearest-neighbor index over an immutable snapshot of positions.

    Neighbor lists are sorted by non-decreasing distance; exact ties are
    broken by lower point index so patches are deterministic across
    platforms.

    The tie rule costs nothing on rows whose distances strictly rise: the
    KD-tree already returns them in (distance, index) order, so they are
    taken without a sort. Only rows with a tie or a coincident point are
    sorted, and a row whose tie group may extend past the k-th neighbor is
    re-queried with a doubling k until the query returns a point farther
    than the k-th distance, which proves the whole tie group is covered.

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

    def k_nearest(self, query_idx, k):
        """INDEX_DTYPE indices of the k nearest points to point `query_idx`
        (self excluded)."""
        m = self.count
        if not 0 <= query_idx < m:
            raise IndexError("query index out of range")
        _check_k(k, m)
        p = self._points[query_idx]
        kq = k + 2
        while True:
            kq = min(kq, m)
            dist, idx = self._tree.query(p, k=kq)
            cand = idx != query_idx
            d, j = dist[cand], idx[cand]
            # A farther point returned means the tie group at the k-th
            # distance is fully covered; growing further only appends.
            if kq == m or dist[-1] > d[k - 1]:
                break
            kq *= 2
        order = np.lexsort((j, d))
        return j[order[:k]].astype(INDEX_DTYPE)

    def k_nearest_all(self, k):
        """(M, k) INDEX_DTYPE neighbor indices for every point, same tie rule
        as k_nearest.

        The rows are queried in blocks, so the query's temporaries are
        bounded per worker; only the (M, k) output spans the whole cloud.
        """
        m = self.count
        _check_k(k, m)
        kq = min(k + 2, m)
        out = np.empty((m, k), dtype=INDEX_DTYPE)
        suspect = np.zeros(m, dtype=bool)

        def block(rows):
            dist, idx = self._tree.query(self._points[rows], k=kq, workers=1)
            # Rows whose distances strictly rise are already in (distance,
            # index) order with no tie at the k-th place. Only one point sits
            # at distance 0 there, so column 0 is self.
            fast = np.all(dist[:, 1:] > dist[:, :-1], axis=1)
            out[rows] = idx[:, 1 : k + 1]
            slow = np.flatnonzero(~fast)
            dist, idx = dist[slow], idx[slow]
            self_col = idx == (rows.start + slow)[:, None]
            # mask self out with +inf and lexsort each row by (distance, index)
            dist = np.where(self_col, np.inf, dist)
            order = np.lexsort((idx, dist), axis=-1)
            d_sorted = np.take_along_axis(dist, order, axis=-1)
            out[rows.start + slow] = np.take_along_axis(idx, order, axis=-1)[:, :k]
            # rows where the tie group at the k-th distance may be cut off
            # need the exact path; so do rows the query cut self from, as all
            # their distances are then 0
            if kq < m:
                suspect[rows.start + slow] = d_sorted[:, k - 1] == d_sorted[:, k]

        for_row_blocks(block, m)
        # k_nearest is a NeighborIndex method, so it runs on the calling
        # thread, after the blocks, in ascending row order
        for i in np.flatnonzero(suspect):
            out[i] = self.k_nearest(i, k)
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
    pts = as_points(points)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def normalize_cloud(cloud):
    """Translate the centroid to the origin and scale the bounding-box
    diagonal to 1. Returns the normalized cloud and the transform mapping
    it back to the input frame."""
    pts = cloud.points
    if len(pts) < 2:
        raise ValueError("degenerate extent")
    centroid = pts.mean(axis=0)
    diag = bbox_diagonal(pts)
    if diag <= 0:
        raise ValueError("degenerate extent")
    transform = CloudTransform(centroid, diag)
    return cloud.with_points(transform.apply(pts)), transform
