"""Normal estimation, global orientation and bilateral smoothing."""

import numpy as np
from dataclasses import dataclass
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    minimum_spanning_tree,
)

from .core import (
    INDEX_DTYPE,
    as_normals,
    build_neighbor_index,
    check_count,
    check_kernel_width,
    check_number,
    for_row_blocks,
)

# k-NN graph connectivity used for sign propagation
ORIENT_GRAPH_K = 8

# Relative eigenvalue gap below which the smallest-eigenvalue eigenspace is
# treated as multi-dimensional (degenerate neighborhood).
_DEGENERATE_GAP = 1e-8

_MIN_WEIGHT = 1e-12


@dataclass
class BilateralParams:
    """Tunables of the position/normal bilateral kernel.

    sigma_s defaults to 2x the mean k-NN distance when left as None;
    sigma_r is the width applied to 1 - n_i.n_j.
    """

    sigma_s: float | None = None
    sigma_r: float = 0.3
    iterations: int = 3
    k: int = 30

    def __post_init__(self):
        if self.sigma_s is not None:
            check_number("sigma_s", self.sigma_s)
        check_number("sigma_r", self.sigma_r)
        check_count("iterations", self.iterations, 1)
        check_count("k", self.k, 3)


def _lex_min_unit(basis):
    """Unit vector in the span of `basis` columns with the lexicographically
    smallest (x, y, z) components."""
    basis = np.asarray(basis, dtype=np.float64)
    for axis in range(3):
        comp = basis[axis]
        norm = np.linalg.norm(comp)
        if norm > 1e-12:
            return -(basis @ comp) / norm
        # axis component vanishes over the whole span; try the next axis
    raise ValueError("degenerate basis")


def estimate_normals_pca(cloud, k):
    """Per-point normals from the smallest covariance eigenvector of the
    (point + k nearest neighbors) neighborhood.

    Signs are arbitrary; fix them with orient_normals. Returns (normals,
    degenerate_indices), the latter listing points whose smallest-eigenvalue
    eigenspace was not one-dimensional (e.g. collinear neighborhoods).
    """
    pts = cloud.points
    m = len(pts)
    check_count("k", k, 3)
    nbrs = build_neighbor_index(pts).k_nearest_all(k)
    w = np.empty((m, 3))
    v = np.empty((m, 3, 3))

    def block(rows):
        patches = np.concatenate(
            [pts[rows, None, :], np.take(pts, nbrs[rows], axis=0)], axis=1
        )  # (b, k+1, 3)
        centered = patches - (np.einsum("ikj->ij", patches) / (k + 1))[:, None, :]
        cov = np.einsum("ipa,ipb->iab", centered, centered) / (k + 1)
        w[rows], v[rows] = np.linalg.eigh(cov)  # ascending eigenvalues

    for_row_blocks(block, m)
    normals = v[:, :, 0].copy()
    gap_tol = _DEGENERATE_GAP * np.maximum(w[:, 2], 1e-300)
    degenerate = np.flatnonzero(w[:, 1] - w[:, 0] <= gap_tol).tolist()
    for i in degenerate:
        dim = 3 if w[i, 2] - w[i, 0] <= gap_tol[i] else 2
        normals[i] = _lex_min_unit(v[i, :, :dim])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, degenerate


def orient_normals(cloud, normals):
    """Flip normal signs for global consistency.

    Propagates signs over a minimum spanning tree of the undirected k-NN
    graph (edge weight 1 - |n_a.n_b|); each connected component is rooted
    at its maximum-z point, oriented toward +z. The graph holds each edge
    {a, b}, a < b, once, at row a, with each row's columns sorted. The
    spanning tree breaks equal-weight ties by that order, which is the order
    of the first copies in the symmetric graph; a second copy always closes
    a cycle, so both graphs give the same tree. Returns (oriented_normals,
    component_count).
    """
    pts = cloud.points
    m = len(pts)
    normals = as_normals(normals, m).copy()  # its signs are flipped in place
    if m == 1:
        return normals, 1
    graph = _knn_graph(pts, normals, min(ORIENT_GRAPH_K, m - 1))

    # The spanning tree may reuse the graph's arrays, and it has the graph's
    # components with at most m - 1 edges, so they are taken from it.
    mst = minimum_spanning_tree(graph, overwrite=True)
    del graph
    n_components, labels = connected_components(mst, directed=False)
    mst = mst.tocoo()

    # Each component's root is its highest point, the lowest index among
    # equal heights. Every root hangs off a virtual node m whose normal is
    # +z, so one breadth-first pass covers the whole forest and the root's
    # "toward +z" rule is the edge rule of _tree_signs.
    by_height = np.lexsort((-pts[:, 2], labels))
    roots = by_height[np.searchsorted(labels[by_height], np.arange(n_components))]
    heads = np.concatenate([mst.row, np.full(n_components, m)])
    tails = np.concatenate([mst.col, roots])
    forest = csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(m + 1, m + 1))
    _, parent = breadth_first_order(forest, m, directed=False, return_predecessors=True)
    parent[m] = m
    extended = np.vstack([normals, [0.0, 0.0, 1.0]])
    # Stacked matmul runs the same BLAS dot as `a @ b`, so a near-perpendicular
    # pair gets the same sign as a per-edge dot would give it.
    tree_dots = np.matmul(extended[parent, None, :], extended[:, :, None]).ravel()
    normals *= _tree_signs(parent, tree_dots)[:m, None]  # in place: this call's copy
    return normals, n_components


def _knn_graph(points, normals, k):
    """Upper-triangular CSR matrix of the undirected k-NN graph of `points`.

    Entry (a, b), a < b, is the edge {a, b} with weight
    max(1 - |n_a.n_b|, _MIN_WEIGHT); each row's columns rise strictly.
    """
    m = len(points)
    nbrs = build_neighbor_index(points).k_nearest_all(k)

    # Key lo * m + hi per entry; both copies of an edge (row j also holds i)
    # get the same key, so the sorted keys keep the first of each run.
    keys = np.empty(nbrs.shape, dtype=np.int64)

    def edge_keys(rows):
        patch = nbrs[rows]
        row_ids = np.arange(rows.start, rows.stop, dtype=nbrs.dtype)[:, None]
        keys[rows] = np.minimum(patch, row_ids).astype(np.int64) * m + np.maximum(patch, row_ids)

    for_row_blocks(edge_keys, m)
    del nbrs
    keys = keys.ravel()
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, np.arange(m + 1, dtype=np.int64) * m)
    cols = np.empty(len(keys), dtype=INDEX_DTYPE)
    weights = np.empty(len(keys))

    def edge_weights(rows):
        span = slice(indptr[rows.start], indptr[rows.stop])
        lo, hi = np.divmod(keys[span], m)
        cols[span] = hi
        dots = np.einsum("ij,ij->i", np.take(normals, lo, axis=0), np.take(normals, hi, axis=0))
        weights[span] = np.maximum(1.0 - np.abs(dots), _MIN_WEIGHT)

    for_row_blocks(edge_weights, m)
    return csr_matrix((weights, cols, indptr), shape=(m, m))


def _tree_signs(parent, dots):
    """Sign, +1 or -1, of every node of a rooted forest.

    parent[b] is b's parent, or b itself at a root, whose sign is +1.
    dots[b] is the dot of b's normal with its parent's unoriented one. A node
    flips when that dot times its parent's sign is negative, so an exact
    zero dot gives +1 whatever the parent's sign. Pointer doubling over the
    parent array finds every sign in O(log depth) whole-array passes.
    """
    node = np.arange(len(parent), dtype=parent.dtype)
    # a zero-dot node starts its own path with +1, as a root does
    up = np.where(dots == 0, node, parent)
    sign = np.where((dots < 0) & (up != node), -1, 1).astype(np.int8)
    # sign[b] is the product of the edge signs from b up to up[b], exclusive
    while True:
        top = up[up]
        if np.array_equal(top, up):  # every up[b] is a root
            return sign
        sign *= sign[up]
        up = top


def bilateral_filter_normals(cloud, normals, params):
    """Edge-preserving smoothing of a consistently oriented normal field.

    Each pass replaces every normal by the renormalized neighborhood sum
    weighted by exp(-d^2/sigma_s^2) * exp(-(1 - n_i.n_j)^2/sigma_r^2).
    Passes are Jacobi-style: each reads only the previous pass's normals.
    A one-point cloud has no neighbour and keeps its normal.

    Raises ValueError when the automatic sigma_s is 0 (every point has k
    coincident others, as in an all-coincident cloud), and when sigma_s or
    sigma_r lies outside core.KERNEL_WIDTH_MIN..MAX.
    """
    pts = cloud.points
    m = len(pts)
    normals = as_normals(normals, m)
    check_kernel_width("bilateral sigma_r", params.sigma_r)
    if m == 1:  # no neighbour to smooth with
        return normals.copy()
    k = min(params.k, m - 1)
    index = build_neighbor_index(pts)
    sigma_s = params.sigma_s
    if sigma_s is None:
        sigma_s = 2.0 * float(index.kth_distances(k).mean())
        if not sigma_s > 0:  # every point has k coincident others
            raise ValueError("degenerate bilateral scale")
    check_kernel_width("bilateral sigma_s", sigma_s)
    nbrs = index.k_nearest_all(k)
    del index  # its points copy and tree are not needed by the passes

    def smooth(rows):
        # Each block buffer is reused in place or freed before the next one
        # is allocated; every in-place form gives the same bits.
        patch = nbrs[rows]
        d = np.take(pts, patch, axis=0)
        d -= pts[rows, None, :]  # p_j - p_i, in the gathered buffer
        dx, dy, dz = d[:, :, 0], d[:, :, 1], d[:, :, 2]
        # a neighbour far beyond sigma_s overflows the argument to -inf,
        # which gives the weight's limit 0
        with np.errstate(over="ignore"):
            ws = np.exp(-(dx * dx + dy * dy + dz * dz) / sigma_s**2)
        del d, dx, dy, dz  # freed before n_j is gathered
        n_j = np.take(current, patch, axis=0)
        n_i = current[rows]
        dots = np.einsum("ikj,ij->ik", n_j, n_i)
        wr = np.exp(-((1.0 - dots) ** 2) / params.sigma_r**2)
        weights = np.multiply(ws, wr, out=ws)  # ws is not read again
        summed = np.einsum("ik,ikj->ij", weights, n_j)
        sx, sy, sz = summed[:, 0], summed[:, 1], summed[:, 2]
        norms = np.sqrt(sx * sx + sy * sy + sz * sz)
        total = weights.sum(axis=1)
        keep = (total < 1e-12) | (norms < 1e-12)
        norms[keep] = 1.0
        out = summed / norms[:, None]
        out[keep] = n_i[keep]
        smoothed[rows] = out

    current = normals
    for _ in range(params.iterations):
        # a fresh output per pass: every block reads only the previous pass
        smoothed = np.empty_like(current)
        for_row_blocks(smooth, m)
        current = smoothed
    return current
