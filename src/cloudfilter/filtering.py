"""Position update combining an edge-aware data term with tangential repulsion.

Each iteration moves every point toward the local tangent planes implied by
its own normal and its neighbors' normals, while a repulsion force spreads
neighboring points apart within those tangent planes. Updates are Jacobi:
all points move based on the same pre-iteration snapshot.

The repulsion step is the beta-weighted mean of the tangential offsets,
mu * sum_j(beta_j t_j) / sum_j(beta_j). A weight w that is the same for every
neighbor of the patch, such as the printed w = 1 + sum_j theta(|p_i - p_j|),
cancels from that ratio, so none is applied.
"""

import numpy as np
from dataclasses import dataclass

from .core import PointCloud, as_normals, build_neighbor_index, for_row_blocks

# Tangential offsets shorter than this are clamped before beta divides by
# them, so coincident neighbors give a finite weight.
EPSILON_R = 1e-8


@dataclass
class FilterParams:
    """Tunables of the iterative position update.

    h_mode is either "auto" (support radius = h_value x mean k-th-NN
    distance, recomputed each iteration) or "fixed" (h_value used as is).
    """

    k: int = 30
    mu: float = 0.3
    t: int = 5
    h_mode: str = "auto"
    h_value: float = 4.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and non-negative")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.h_mode not in ("auto", "fixed"):
            raise ValueError("h_mode must be 'auto' or 'fixed'")
        if not (np.isfinite(self.h_value) and self.h_value > 0):
            raise ValueError("h_value must be finite and positive")


@dataclass
class IterationDiagnostics:
    """Per-iteration energy and distribution statistics."""

    data_energy: float
    mean_displacement: float
    max_displacement: float
    nn_distance_stddev: float


def theta(r, h):
    """Smoothly decaying weight exp(-r^2 / (h/2)^2)."""
    r = np.asarray(r, dtype=np.float64)
    return np.exp(-(r**2) / (h / 2.0) ** 2)


def beta(r, h):
    """Repulsion kernel theta(r)/r with the r -> 0 singularity clamped at
    EPSILON_R. The derivative factor |d(-r)/dr| is 1."""
    rc = np.maximum(r, EPSILON_R)
    return theta(rc, h) / rc


def resolve_support_radius(params, points):
    """Support radius h for the current positions per params.h_mode.

    Raises ValueError when the auto radius is 0 (every point has k
    coincident others, as in an all-coincident cloud), where theta would
    divide by zero.
    """
    if params.h_mode == "fixed":
        return params.h_value
    index = build_neighbor_index(points)
    h = params.h_value * float(index.kth_distances(params.k).mean())
    if not h > 0:
        raise ValueError("degenerate support radius")
    return h


def data_energy(normals, index, k):
    """Sum over the indexed points and their patches of the squared
    projections of p_j - p_i onto both endpoint normals."""
    pts = index.points
    normals = as_normals(normals, len(pts))
    nbrs = index.k_nearest_all(k)
    # One (M, k) buffer of proj_j^2 + proj_i^2; np.sum runs over the whole
    # array, so the bits do not depend on the block size.
    sq = np.empty(nbrs.shape)

    def block(rows):
        _, _, proj_j, proj_i = _projections(pts, normals, rows, nbrs[rows])
        sq[rows] = np.square(proj_j) + np.square(proj_i)

    for_row_blocks(block, len(pts))
    return float(np.sum(sq))


def _projections(points, normals, rows, patches):
    """d = p_j - p_i and n_j, each (b, k, 3), and the (b, k) projections d.n_j
    and d.n_i of points[rows], row r over its patch patches[r]. The update
    and data_energy both take them from here."""
    d = points[patches] - points[rows][:, None, :]  # p_j - p_i
    n_j = normals[patches]
    proj_j = np.einsum("ikj,ikj->ik", d, n_j)
    proj_i = np.einsum("ikj,ikj->ik", d, normals[rows, None, :])
    return d, n_j, proj_j, proj_i


def update_point(i, points, normals, patch, params, h):
    """Updated position of point i from its patch: one row of the kernel
    filter_iteration runs (see _update_rows)."""
    rows = np.array([i])
    return _update_rows(points, normals, rows, np.asarray(patch, np.intp)[None], params, h)[0]


def _update_rows(points, normals, rows, patches, params, h):
    """Updated positions of points[rows], row r moved by its patch
    patches[r].

    Data step: 1/(3k) times the sum of p_j - p_i projected onto both
    endpoint normals. Repulsion step: mu times the beta-weighted mean of the
    components t_j of p_i - p_j orthogonal to n_j; a patch-constant weight
    on top of beta would cancel (see the module docstring).
    """
    gamma = 1.0 / (3.0 * patches.shape[1])
    p = points[rows]
    n_i = normals[rows, None, :]
    d, n_j, proj_j, proj_i = _projections(points, normals, rows, patches)
    along_j = proj_j[:, :, None] * n_j
    data_step = gamma * (along_j.sum(axis=1) + (proj_i[:, :, None] * n_i).sum(axis=1))
    if params.mu == 0.0:
        return p + data_step

    tangential = along_j - d  # p_i - p_j minus its n_j component
    b = beta(np.linalg.norm(tangential, axis=2), h)
    denom = b.sum(axis=1)[:, None]
    # theta can underflow to 0 for isolated points: no repulsion there
    repulsion_step = np.divide(
        params.mu * (b[:, :, None] * tangential).sum(axis=1),
        denom,
        out=np.zeros_like(p),
        where=denom > 0,
    )
    return p + data_step + repulsion_step


def _update_all(points, normals, nbrs, params, h):
    """Jacobi update of all positions, computed in row blocks."""
    out = np.empty_like(points)

    def block(rows):
        out[rows] = _update_rows(points, normals, rows, nbrs[rows], params, h)

    for_row_blocks(block, len(points))
    return out


def filter_iteration(cloud, normals, params):
    """One Jacobi sweep over all points.

    Rebuilds the neighbor index on the current positions, resolves the
    support radius, updates every point from the pre-iteration snapshot and
    returns the new cloud (normals carried unchanged) plus diagnostics.
    """
    pts = cloud.points
    normals = as_normals(normals, len(pts))
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(params.k)
    h = resolve_support_radius(params, pts)

    new_pts = _update_all(pts, normals, nbrs, params, h)
    del nbrs, index  # freed before the new positions get theirs
    displacement = np.linalg.norm(new_pts - pts, axis=1)
    new_cloud = PointCloud(new_pts, normals.copy())
    new_index = build_neighbor_index(new_pts)
    diagnostics = IterationDiagnostics(
        data_energy=data_energy(normals, new_index, params.k),
        mean_displacement=float(displacement.mean()),
        max_displacement=float(displacement.max()),
        nn_distance_stddev=float(new_index.nearest_distances().std()),
    )
    return new_cloud, diagnostics


def filter_cloud(cloud, normals, params):
    """Run params.t filtering iterations; normals stay fixed throughout.

    Returns the filtered cloud and the per-iteration diagnostics.
    """
    current = cloud
    history = []
    for _ in range(params.t):
        current, diag = filter_iteration(current, normals, params)
        history.append(diag)
    return current, history
