"""Normal estimation, global orientation and bilateral smoothing."""

import numpy as np
from dataclasses import dataclass
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .core import PointCloud, build_neighbor_index

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
        if self.sigma_s is not None and not self.sigma_s > 0:
            raise ValueError("sigma_s must be positive")
        if not self.sigma_r > 0:
            raise ValueError("sigma_r must be positive")
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
    if k < 3 or m < k + 1:
        raise ValueError("need at least k+1 >= 4 points")
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)
    patches = np.concatenate([pts[:, None, :], pts[nbrs]], axis=1)  # (M, k+1, 3)
    centered = patches - patches.mean(axis=1, keepdims=True)
    cov = np.einsum("ipa,ipb->iab", centered, centered) / (k + 1)
    w, v = np.linalg.eigh(cov)  # ascending eigenvalues
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
    normals = np.array(normals, dtype=np.float64)
    if normals.shape != pts.shape:
        raise ValueError("normals must match points in length")
    m = len(pts)
    if m == 1:
        return normals, 1
    k = min(ORIENT_GRAPH_K, m - 1)
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)

    rows = np.repeat(np.arange(m), k)
    cols = nbrs.ravel()
    dots = np.abs(np.einsum("ij,ij->i", normals[rows], normals[cols]))
    weights = np.maximum(1.0 - dots, _MIN_WEIGHT)
    graph = coo_matrix((weights, (rows, cols)), shape=(m, m)).tocsr()
    graph = graph.maximum(graph.T)

    n_components, labels = connected_components(graph, directed=False)
    mst = minimum_spanning_tree(graph).tocsr()
    adjacency = (mst + mst.T).tolil().rows

    oriented = normals.copy()
    visited = np.zeros(m, dtype=bool)
    for comp in range(n_components):
        members = np.flatnonzero(labels == comp)
        root = members[np.argmax(pts[members, 2])]
        if oriented[root, 2] < 0:
            oriented[root] = -oriented[root]
        visited[root] = True
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adjacency[a]:
                if visited[b]:
                    continue
                if oriented[a] @ oriented[b] < 0:
                    oriented[b] = -oriented[b]
                visited[b] = True
                stack.append(b)
    return oriented, n_components


def bilateral_filter_normals(cloud, normals, params):
    """Edge-preserving smoothing of a consistently oriented normal field.

    Each pass replaces every normal by the renormalized neighborhood sum
    weighted by exp(-d^2/sigma_s^2) * exp(-(1 - n_i.n_j)^2/sigma_r^2).
    Passes are Jacobi-style: each reads only the previous pass's normals.
    """
    pts = cloud.points
    normals = np.array(normals, dtype=np.float64)
    if normals.shape != pts.shape:
        raise ValueError("normals must match points in length")
    m = len(pts)
    k = min(params.k, m - 1)
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(k)
    sigma_s = params.sigma_s
    if sigma_s is None:
        sigma_s = 2.0 * float(index.kth_distances(k).mean())

    d2 = np.sum((pts[nbrs] - pts[:, None, :]) ** 2, axis=2)
    ws = np.exp(-d2 / sigma_s**2)
    current = normals
    for _ in range(params.iterations):
        dots = np.einsum("ikj,ij->ik", current[nbrs], current)
        wr = np.exp(-((1.0 - dots) ** 2) / params.sigma_r**2)
        weights = ws * wr
        summed = np.einsum("ik,ikj->ij", weights, current[nbrs])
        norms = np.linalg.norm(summed, axis=1)
        total = weights.sum(axis=1)
        keep = (total < 1e-12) | (norms < 1e-12)
        norms[keep] = 1.0
        smoothed = summed / norms[:, None]
        smoothed[keep] = current[keep]
        current = smoothed
    return current
