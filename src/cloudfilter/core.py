"""Core geometric types: point clouds, exact k-NN index, normalization."""

import numpy as np
from dataclasses import dataclass
from scipy.spatial import cKDTree

UNIT_NORM_TOL = 1e-6


def as_points(points):
    """Coerce to a float64 (M, 3) array, validating finiteness."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (M, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid coordinate")
    return pts


@dataclass
class PointCloud:
    """Ordered positions with optional parallel unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64)
            if self.normals.shape != self.points.shape:
                raise ValueError("normals must match points in length")
            if not np.all(np.isfinite(self.normals)):
                raise ValueError("invalid normal component")
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                raise ValueError("normals must be unit length")

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
    """

    def __init__(self, points):
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("empty cloud")
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
        """Indices of the k nearest points to point `query_idx` (self excluded)."""
        m = self.count
        if not 0 <= query_idx < m:
            raise IndexError("query index out of range")
        if k < 1 or k >= m:
            raise ValueError("k exceeds cloud size")
        p = self._points[query_idx]
        kq = k + 2
        while True:
            kq = min(kq, m)
            dist, idx = self._tree.query(p, k=kq)
            dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
            cand = idx != query_idx
            d, j = dist[cand], idx[cand]
            # A farther point returned means the tie group at the k-th
            # distance is fully covered; growing further only appends.
            if kq == m or dist[-1] > d[k - 1]:
                break
            kq *= 2
        order = np.lexsort((j, d))
        return j[order[:k]]

    def k_nearest_all(self, k):
        """(M, k) neighbor indices for every point, same tie rule as k_nearest."""
        m = self.count
        if k < 1 or k >= m:
            raise ValueError("k exceeds cloud size")
        kq = min(k + 2, m)
        dist, idx = self._tree.query(self._points, k=kq)
        # Rows whose distances strictly rise are already in (distance, index)
        # order with no tie at the k-th place. Only one point sits at distance
        # 0 there, so column 0 is self.
        fast = np.all(np.diff(dist, axis=1) > 0, axis=1)
        out = idx[:, 1 : k + 1].astype(np.intp)
        slow = np.flatnonzero(~fast)
        dist, idx = dist[slow], idx[slow]
        self_col = idx == slow[:, None]
        # mask self out with +inf and lexsort each row by (distance, index)
        dist = np.where(self_col, np.inf, dist)
        order = np.lexsort((idx, dist), axis=-1)
        d_sorted = np.take_along_axis(dist, order, axis=-1)
        out[slow] = np.take_along_axis(idx, order, axis=-1)[:, :k]
        # rows where the tie group at the k-th distance may be cut off need
        # the exact path; so do rows the query cut self from, as all their
        # distances are then 0
        if kq < m:
            suspect = d_sorted[:, k - 1] == d_sorted[:, k]
            for i in slow[suspect]:
                out[i] = self.k_nearest(i, k)
        return out

    def nearest_distances(self):
        """Distance from every point to its nearest other point."""
        dist, _ = self._tree.query(self._points, k=2)
        return dist[:, 1]

    def kth_distances(self, k):
        """Distance from every point to its k-th nearest other point."""
        dist, _ = self._tree.query(self._points, k=k + 1)
        return dist[:, k]


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
