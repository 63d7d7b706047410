"""Position update combining an edge-aware data term with tangential repulsion.

Each iteration moves every point toward the local tangent planes implied by
its own normal and its neighbors' normals, while a repulsion force spreads
neighboring points apart within those tangent planes. Updates are Jacobi:
all points move based on the same pre-iteration snapshot.
"""

import numpy as np
from dataclasses import dataclass, field

from .core import PointCloud, build_neighbor_index

WJ_VARIANTS = ("printed", "per-neighbor")


@dataclass
class FilterParams:
    """Tunables of the iterative position update.

    h_mode is either "auto" (support radius = h_value x mean k-th-NN
    distance, recomputed each iteration) or "fixed" (h_value used as is).
    wj_variant selects between the patch-constant repulsion weight
    ("printed", default) and a per-neighbor weight 1 + theta(|p_i - p_j|).
    """

    k: int = 30
    mu: float = 0.3
    t: int = 5
    h_mode: str = "auto"
    h_value: float = 4.0
    epsilon_r: float = 1e-8
    wj_variant: str = "printed"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.h_mode not in ("auto", "fixed"):
            raise ValueError("h_mode must be 'auto' or 'fixed'")
        if not self.h_value > 0:
            raise ValueError("h_value must be positive")
        if not self.epsilon_r > 0:
            raise ValueError("epsilon_r must be positive")
        if self.wj_variant not in WJ_VARIANTS:
            raise ValueError("unknown wj_variant")


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


def repulsion_radius(p_i, p_j, n_j):
    """Norm of the component of p_i - p_j orthogonal to the unit normal n_j."""
    e = np.asarray(p_i, dtype=np.float64) - np.asarray(p_j, dtype=np.float64)
    n = np.asarray(n_j, dtype=np.float64)
    return float(np.linalg.norm(e - (e @ n) * n))


def beta(r, h, epsilon_r):
    """Repulsion kernel theta(r)/r with the r -> 0 singularity clamped at
    epsilon_r. The derivative factor |d(-r)/dr| is 1."""
    rc = np.maximum(r, epsilon_r)
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


def data_energy(cloud, normals, index, k):
    """Sum over points and their patches of the squared projections of
    p_i - p_j onto both endpoint normals."""
    pts = index.points
    normals = np.asarray(normals, dtype=np.float64)
    nbrs = index.k_nearest_all(k)
    diff = pts[:, None, :] - pts[nbrs]  # p_i - p_j
    proj_j = np.einsum("ikj,ikj->ik", diff, normals[nbrs])
    proj_i = np.einsum("ikj,ij->ik", diff, normals)
    return float(np.sum(proj_j**2) + np.sum(proj_i**2))


def update_point(i, points, normals, patch, params, h):
    """Updated position of point i from its patch (reference scalar path).

    Data step: 1/(3|patch|) times the sum of p_j - p_i projected onto both
    endpoint normals. Repulsion step: mu times the normalized weighted sum
    of the components of p_i - p_j orthogonal to n_j.
    """
    patch = np.asarray(patch, dtype=np.intp)
    p_i = points[i]
    n_i = normals[i]
    d = points[patch] - p_i  # p_j - p_i
    n_j = normals[patch]

    gamma = 1.0 / (3.0 * len(patch))
    proj_j = np.einsum("kj,kj->k", d, n_j)
    proj_i = d @ n_i
    data_step = gamma * (proj_j[:, None] * n_j + proj_i[:, None] * n_i).sum(axis=0)

    if params.mu == 0.0:
        return p_i + data_step

    e = -d  # p_i - p_j
    tangential = e - np.einsum("kj,kj->k", e, n_j)[:, None] * n_j
    r = np.linalg.norm(tangential, axis=1)
    b = beta(r, h, params.epsilon_r)
    th = theta(np.linalg.norm(e, axis=1), h)
    if params.wj_variant == "printed":
        w = 1.0 + th.sum()  # constant over the patch
        wb = w * b
    else:
        wb = (1.0 + th) * b
    denom = wb.sum()
    if denom <= 0:  # all theta weights underflowed; no effective repulsion
        return p_i + data_step
    repulsion_step = params.mu * (wb[:, None] * tangential).sum(axis=0) / denom
    return p_i + data_step + repulsion_step


def _update_all(points, normals, nbrs, params, h):
    """Vectorized Jacobi update of all positions (matches update_point)."""
    d = points[nbrs] - points[:, None, :]  # p_j - p_i
    n_j = normals[nbrs]
    n_i = normals[:, None, :]

    k = nbrs.shape[1]
    gamma = 1.0 / (3.0 * k)
    proj_j = np.einsum("ikj,ikj->ik", d, n_j)
    proj_i = np.einsum("ikj,ikj->ik", d, n_i)
    data_step = gamma * (
        (proj_j[:, :, None] * n_j).sum(axis=1) + (proj_i[:, :, None] * n_i).sum(axis=1)
    )
    if params.mu == 0.0:
        return points + data_step

    e = -d
    tangential = e - np.einsum("ikj,ikj->ik", e, n_j)[:, :, None] * n_j
    r = np.linalg.norm(tangential, axis=2)
    b = beta(r, h, params.epsilon_r)
    th = theta(np.linalg.norm(e, axis=2), h)
    if params.wj_variant == "printed":
        wb = (1.0 + th.sum(axis=1))[:, None] * b
    else:
        wb = (1.0 + th) * b
    denom = wb.sum(axis=1)
    safe = denom > 0  # theta can underflow to 0 for isolated points
    repulsion_step = np.zeros_like(points)
    repulsion_step[safe] = (
        params.mu
        * (wb[safe, :, None] * tangential[safe]).sum(axis=1)
        / denom[safe, None]
    )
    return points + data_step + repulsion_step


def filter_iteration(cloud, normals, params):
    """One Jacobi sweep over all points.

    Rebuilds the neighbor index on the current positions, resolves the
    support radius, updates every point from the pre-iteration snapshot and
    returns the new cloud (normals carried unchanged) plus diagnostics.
    """
    normals = np.asarray(normals, dtype=np.float64)
    pts = cloud.points
    if normals.shape != pts.shape:
        raise ValueError("normals must match points in length")
    if params.k >= len(pts):
        raise ValueError("k exceeds cloud size")
    index = build_neighbor_index(pts)
    nbrs = index.k_nearest_all(params.k)
    h = resolve_support_radius(params, pts)

    new_pts = _update_all(pts, normals, nbrs, params, h)
    displacement = np.linalg.norm(new_pts - pts, axis=1)
    new_cloud = PointCloud(new_pts, normals.copy())
    new_index = build_neighbor_index(new_pts)
    diagnostics = IterationDiagnostics(
        data_energy=data_energy(new_cloud, normals, new_index, params.k),
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
