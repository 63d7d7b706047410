"""Normal estimation, global orientation and bilateral smoothing."""

import numpy as np
from dataclasses import dataclass
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    minimum_spanning_tree,
)

from .core import as_normals, build_neighbor_index, for_row_blocks

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
        if self.sigma_s is not None and not (np.isfinite(self.sigma_s) and self.sigma_s > 0):
            raise ValueError("sigma_s must be finite and positive")
        if not (np.isfinite(self.sigma_r) and self.sigma_r > 0):
            raise ValueError("sigma_r must be finite and positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.k < 3:
            raise ValueError("k must be >= 3")


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
    if k < 3:
        raise ValueError("k must be >= 3")
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)
    w = np.empty((m, 3))
    v = np.empty((m, 3, 3))

    def block(rows):
        patches = np.concatenate([pts[rows, None, :], pts[nbrs[rows]]], axis=1)  # (b, k+1, 3)
        centered = patches - patches.mean(axis=1, keepdims=True)
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

    Propagates signs over a minimum spanning tree of the k-NN graph
    (edge weight 1 - |n_a.n_b|); each connected component is rooted at its
    maximum-z point, oriented toward +z. Returns (oriented_normals,
    component_count).
    """
    pts = cloud.points
    m = len(pts)
    normals = as_normals(normals, m).copy()  # its signs are flipped in place
    if m == 1:
        return normals, 1
    k = min(ORIENT_GRAPH_K, m - 1)
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)

    weights = np.empty((m, k))

    def edge_weights(block):
        n_a = np.repeat(normals[block], k, axis=0)
        dots = np.einsum("ij,ij->i", n_a, normals[nbrs[block].ravel()])
        weights[block] = np.maximum(1.0 - np.abs(dots), _MIN_WEIGHT).reshape(-1, k)

    for_row_blocks(edge_weights, m)
    # Row i of the neighbour table is row i of the graph, k entries each.
    graph = csr_matrix(
        (weights.ravel(), nbrs.ravel(), np.arange(0, m * k + 1, k)), shape=(m, m)
    )
    del nbrs, weights
    # Sorted column indices, as a COO build gives them: the MST breaks
    # equal-weight ties by their order.
    graph.sort_indices()
    graph = graph.maximum(graph.T)

    n_components, labels = connected_components(graph, directed=False)
    mst = minimum_spanning_tree(graph).tocoo()

    # Each component's root is its highest point, the lowest index among
    # equal heights. Every root hangs off a virtual node m whose normal is
    # +z, so one breadth-first pass covers the whole forest and the root's
    # "toward +z" rule is the edge rule below.
    by_height = np.lexsort((-pts[:, 2], labels))
    roots = by_height[np.searchsorted(labels[by_height], np.arange(n_components))]
    heads = np.concatenate([mst.row, np.full(n_components, m)])
    tails = np.concatenate([mst.col, roots])
    forest = csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(m + 1, m + 1))
    order, parent = breadth_first_order(forest, m, directed=False, return_predecessors=True)
    child = order[1:]
    extended = np.vstack([normals, [0.0, 0.0, 1.0]])
    # Stacked matmul runs the same BLAS dot as `a @ b`, so a near-perpendicular
    # pair gets the same sign as a per-edge dot would give it.
    tree_dots = np.matmul(extended[parent[child], None, :], extended[child, :, None]).ravel()

    # A node's sign depends only on its tree path: it flips when the dot with
    # its parent's oriented normal is negative. Parents precede children in
    # breadth-first order.
    signs = [1.0] * (m + 1)
    for b, a, d in zip(child.tolist(), parent[child].tolist(), tree_dots.tolist()):
        signs[b] = -1.0 if signs[a] * d < 0 else 1.0
    normals *= np.array(signs[:m])[:, None]  # in place: normals is this call's copy
    return normals, n_components


def bilateral_filter_normals(cloud, normals, params):
    """Edge-preserving smoothing of a consistently oriented normal field.

    Each pass replaces every normal by the renormalized neighborhood sum
    weighted by exp(-d^2/sigma_s^2) * exp(-(1 - n_i.n_j)^2/sigma_r^2).
    Passes are Jacobi-style: each reads only the previous pass's normals.

    Raises ValueError when the automatic sigma_s is 0 (every point has k
    coincident others, as in an all-coincident cloud).
    """
    pts = cloud.points
    m = len(pts)
    normals = as_normals(normals, m)
    k = min(params.k, m - 1)
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)
    sigma_s = params.sigma_s
    if sigma_s is None:
        sigma_s = 2.0 * float(index.kth_distances(k).mean())
        if not sigma_s > 0:  # every point has k coincident others
            raise ValueError("degenerate bilateral scale")

    ws = np.empty(nbrs.shape)

    def spatial(rows):
        d2 = np.sum((pts[nbrs[rows]] - pts[rows, None, :]) ** 2, axis=2)
        ws[rows] = np.exp(-d2 / sigma_s**2)

    for_row_blocks(spatial, m)

    def smooth(rows):
        n_j = current[nbrs[rows]]
        n_i = current[rows]
        dots = np.einsum("ikj,ij->ik", n_j, n_i)
        wr = np.exp(-((1.0 - dots) ** 2) / params.sigma_r**2)
        weights = ws[rows] * wr
        summed = np.einsum("ik,ikj->ij", weights, n_j)
        norms = np.linalg.norm(summed, axis=1)
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
