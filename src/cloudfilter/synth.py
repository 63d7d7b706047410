"""Deterministic synthetic shapes and Gaussian noise injection."""

import numpy as np
from dataclasses import dataclass

from .core import PointCloud, bbox_diagonal, normalize_cloud

SHAPE_KINDS = ("plane", "cube", "sphere", "wedge", "icosahedron")


@dataclass
class NoiseSpec:
    """Gaussian noise level as a fraction of the bounding-box diagonal."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.level) and self.level >= 0):
            raise ValueError("noise level must be finite and non-negative")


def _grid(n):
    # cell centers over [-0.5, 0.5], avoids coincident samples on shared edges
    step = 1.0 / n
    return np.linspace(-0.5 + step / 2, 0.5 - step / 2, n)


def _plane(n):
    u, v = np.meshgrid(_grid(n), _grid(n), indexing="ij")
    pts = np.column_stack([u.ravel(), v.ravel(), np.zeros(n * n)])
    normals = np.tile([0.0, 0.0, 1.0], (n * n, 1))
    return pts, normals


def _cube(n):
    u, v = np.meshgrid(_grid(n), _grid(n), indexing="ij")
    u, v = u.ravel(), v.ravel()
    half = np.full(n * n, 0.5)
    faces = [
        (np.column_stack([half, u, v]), [1, 0, 0]),
        (np.column_stack([-half, u, v]), [-1, 0, 0]),
        (np.column_stack([u, half, v]), [0, 1, 0]),
        (np.column_stack([u, -half, v]), [0, -1, 0]),
        (np.column_stack([u, v, half]), [0, 0, 1]),
        (np.column_stack([u, v, -half]), [0, 0, -1]),
    ]
    pts = np.vstack([f[0] for f in faces])
    normals = np.vstack([np.tile(f[1], (n * n, 1)) for f in faces])
    return pts, normals


def _sphere(n):
    # Fibonacci lattice on the unit sphere, symmetrized with antipodes so
    # the centroid sits at the center; count scales with n^2 to keep
    # density comparable with the grid-based shapes
    half = max((n * n + 1) // 2, 2)
    i = np.arange(half, dtype=np.float64)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / (2 * half)
    radius = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    phi = 2.0 * np.pi * i / golden
    upper = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    pts = np.vstack([upper, -upper])
    return pts, pts.copy()


def _wedge(n):
    # two unit squares meeting at a right angle along the y axis
    u, v = np.meshgrid(_grid(n) + 0.5, _grid(n), indexing="ij")
    u, v = u.ravel(), v.ravel()
    zeros = np.zeros(n * n)
    bottom = np.column_stack([u, v, zeros])
    side = np.column_stack([zeros, v, u])
    pts = np.vstack([bottom, side])
    normals = np.vstack(
        [np.tile([0.0, 0.0, 1.0], (n * n, 1)), np.tile([1.0, 0.0, 0.0], (n * n, 1))]
    )
    return pts, normals


def _icosahedron(n):
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    pts, normals = [], []
    for ia, ib, ic in faces:
        a, b, c = verts[ia], verts[ib], verts[ic]
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        if normal @ (a + b + c) < 0:
            normal = -normal
        # barycentric grid strictly inside the face
        for p in range(n):
            for q in range(n - p):
                wa = (p + 1.0 / 3.0) / n
                wb = (q + 1.0 / 3.0) / n
                wc = 1.0 - wa - wb
                pts.append(wa * a + wb * b + wc * c)
                normals.append(normal)
    return np.asarray(pts), np.asarray(normals)


_BUILDERS = {
    "plane": _plane,
    "cube": _cube,
    "sphere": _sphere,
    "wedge": _wedge,
    "icosahedron": _icosahedron,
}


def make_shape(kind, samples_per_unit):
    """Deterministic surface sampling with exact analytic normals,
    pre-normalized to unit bounding-box diagonal."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown shape kind: {kind!r}")
    if samples_per_unit < 2:
        raise ValueError("samples_per_unit must be >= 2")
    pts, normals = _BUILDERS[kind](samples_per_unit)
    cloud, _ = normalize_cloud(PointCloud(pts, normals))
    return cloud


def add_gaussian_noise(cloud, spec):
    """Perturb each coordinate by zero-mean Gaussian noise with standard
    deviation spec.level x bounding-box diagonal. Normals carried unchanged."""
    if spec.level == 0:
        return cloud.with_points(cloud.points)
    sigma = spec.level * bbox_diagonal(cloud.points)
    rng = np.random.default_rng(spec.seed)
    noisy = cloud.points + rng.normal(0.0, sigma, size=cloud.points.shape)
    return cloud.with_points(noisy)


def make_clustered_plane(clusters, points_per_cluster, seed=0):
    """Planar Gaussian blobs with exact plane normals; drives the uniformity
    ablation of the repulsion term."""
    if clusters < 2:
        raise ValueError("need at least 2 clusters")
    if points_per_cluster < 1:
        raise ValueError("need at least 1 point per cluster")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=(clusters, 2))
    blobs = centers[:, None, :] + rng.normal(
        0.0, 0.05, size=(clusters, points_per_cluster, 2)
    )
    xy = blobs.reshape(-1, 2)
    pts = np.column_stack([xy, np.zeros(len(xy))])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    return PointCloud(pts, normals)
