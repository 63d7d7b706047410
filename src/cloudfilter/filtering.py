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

from .core import (
    PointCloud,
    as_normals,
    build_neighbor_index,
    check_count,
    check_kernel_width,
    check_number,
    for_row_blocks,
)

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
        check_count("k", self.k, 1)
        check_count("t", self.t, 1)
        check_number("mu", self.mu, zero_ok=True)
        if self.h_mode not in ("auto", "fixed"):
            raise ValueError("h_mode must be 'auto' or 'fixed'")
        check_number("h_value", self.h_value)


@dataclass
class IterationDiagnostics:
    """Per-iteration energy and distribution statistics."""

    data_energy: float
    mean_displacement: float
    max_displacement: float
    nn_distance_stddev: float


def theta(r, h):
    """Smoothly decaying weight exp(-r^2 / (h/2)^2). Where the argument
    overflows (r far beyond h) it is -inf, and the weight its limit 0."""
    r = np.asarray(r, dtype=np.float64)
    with np.errstate(over="ignore"):
        arg = -(r**2) / (h / 2.0) ** 2
    return np.exp(arg)


def beta(r, h):
    """Repulsion kernel theta(r)/r with the r -> 0 singularity clamped at
    EPSILON_R. The derivative factor |d(-r)/dr| is 1."""
    rc = np.maximum(r, EPSILON_R)
    return theta(rc, h) / rc


def resolve_support_radius(params, points):
    """Support radius h for the current positions per params.h_mode.

    Raises ValueError when the auto radius is 0 (every point has k
    coincident others, as in an all-coincident cloud), where theta would
    divide by zero, and when h lies outside core.KERNEL_WIDTH_MIN..MAX,
    where theta would overflow or divide by zero.
    """
    if params.h_mode == "fixed":
        h = params.h_value
    else:
        index = build_neighbor_index(points)
        h = params.h_value * float(index.kth_distances(params.k).mean())
        if not h > 0:
            raise ValueError("degenerate support radius")
    check_kernel_width("support radius h", h)
    return h


def data_energy(normals, index, k):
    """Sum over the indexed points and their patches of the squared
    projections of p_j - p_i onto both endpoint normals."""
    pts = index.points
    normals = as_normals(normals, len(pts))
    nbrs = index.k_nearest_all(k)
    # Each row's sum of proj_j^2 + proj_i^2 over its patch; np.sum runs over
    # the whole (M,) array, so the bits do not depend on the block size.
    per_point = np.empty(len(pts))

    def block(rows):
        _, _, proj_j, proj_i = _projections(pts, normals, rows, nbrs[rows])
        per_point[rows] = np.einsum("ik->i", np.square(proj_j) + np.square(proj_i))

    for_row_blocks(block, len(pts))
    return float(np.sum(per_point))


def _projections(points, normals, rows, patches):
    """d = p_j - p_i and n_j, each (b, k, 3), and the (b, k) projections d.n_j
    and d.n_i of points[rows], row r over its patch patches[r]. The update
    and data_energy both take them from here."""
    d = np.take(points, patches, axis=0)
    d -= points[rows][:, None, :]  # p_j - p_i, in the gathered buffer
    n_j = np.take(normals, patches, axis=0)
    proj_j = np.einsum("ikj,ikj->ik", d, n_j)
    proj_i = np.einsum("ikj,ikj->ik", d, normals[rows, None, :])
    return d, n_j, proj_j, proj_i


def update_point(i, points, normals, patch, params, h):
    """Updated position of point i from its patch: one row of the kernel
    filter_iteration runs (see _update_rows)."""
    if not 0 <= i < len(points):
        raise IndexError("point index out of range")
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
    along_j = np.multiply(proj_j[:, :, None], n_j, out=n_j)  # n_j is not read again
    # The proj_i products stay a (b, k, 3) array: an einsum over the
    # broadcast n_i would sum proj_i first and change the bits.
    data_step = gamma * (np.einsum("ikj->ij", along_j)
                         + np.einsum("ikj->ij", proj_i[:, :, None] * n_i))
    if params.mu == 0.0:
        return p + data_step

    # p_i - p_j minus its n_j component, in d's buffer: d is not read again
    tangential = np.subtract(along_j, d, out=d)
    tx, ty, tz = tangential[:, :, 0], tangential[:, :, 1], tangential[:, :, 2]
    b = beta(np.sqrt(tx * tx + ty * ty + tz * tz), h)
    denom = b.sum(axis=1)[:, None]
    # theta can underflow to 0 for isolated points: no repulsion there
    repulsion_step = np.divide(
        params.mu * np.einsum("ik,ikj->ij", b, tangential),
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


def filter_iteration(pts, normals, params):
    """One Jacobi sweep of the checked (M, 3) positions pts against the
    checked normals: rebuilds the neighbor index, resolves the support
    radius, updates every point from the pre-iteration snapshot and returns
    the new positions plus diagnostics."""
    h = resolve_support_radius(params, pts)  # checks h before any row block
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(params.k)

    new_pts = _update_all(pts, normals, nbrs, params, h)
    del nbrs, index  # freed before the new positions get theirs
    displacement = np.linalg.norm(new_pts - pts, axis=1)
    mean_step, max_step = float(displacement.mean()), float(displacement.max())
    del displacement
    new_index = build_neighbor_index(new_pts)
    diagnostics = IterationDiagnostics(
        data_energy=data_energy(normals, new_index, params.k),
        mean_displacement=mean_step,
        max_displacement=max_step,
        nn_distance_stddev=float(new_index.nearest_distances().std()),
    )
    return new_pts, diagnostics


def filter_cloud(cloud, normals, params):
    """Run params.t filtering iterations against normals, checked once here;
    returns the filtered cloud, with its own copy of the normals, and the
    per-iteration diagnostics."""
    points = cloud.points
    normals = as_normals(normals, len(points))
    history = []
    for _ in range(params.t):
        points, diag = filter_iteration(points, normals, params)
        history.append(diag)
    return PointCloud(points, normals.copy()), history
