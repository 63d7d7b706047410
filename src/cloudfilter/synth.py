"""Deterministic synthetic shapes and Gaussian noise injection."""

import numpy as np
from dataclasses import dataclass

from .core import PointCloud, bbox_diagonal, check_count, check_number, normalize_cloud

SHAPE_KINDS = ("plane", "cube", "sphere", "wedge", "icosahedron")


@dataclass
class NoiseSpec:
    """Gaussian noise level as a fraction of the bounding-box diagonal."""

    level: float
    seed: int = 0

    def __post_init__(self):
        check_number("noise level", self.level, zero_ok=True)
        check_count("seed", self.seed, 0)


def _grid(n):
    # cell centers over [-0.5, 0.5], avoids coincident samples on shared edges
    step = 1.0 / n
    return np.linspace(-0.5 + step / 2, 0.5 - step / 2, n)


# Square faces as (origin, u axis, v axis, outward normal). A face's samples
# are origin + u*du + v*dv over the _grid(n) cell centres, u-major.
_SQUARE_FACES = {
    "plane": [((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))],
    "cube": [
        ((0.5, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((-0.5, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)),
        ((0, 0.5, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((0, -0.5, 0), (1, 0, 0), (0, 0, 1), (0, -1, 0)),
        ((0, 0, 0.5), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, -0.5), (1, 0, 0), (0, 1, 0), (0, 0, -1)),
    ],
    # two unit squares meeting at a right angle along the y axis
    "wedge": [
        ((0.5, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 0.5), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ],
}


def _squares(faces, n):
    u, v = np.meshgrid(_grid(n), _grid(n), indexing="ij")
    u, v = u.reshape(-1, 1), v.reshape(-1, 1)
    origin, du, dv, normal = (
        np.array(column, dtype=np.float64)[:, None, :] for column in zip(*faces)
    )
    pts = origin + u * du + v * dv  # (faces, n*n, 3)
    normals = np.broadcast_to(normal, pts.shape)
    return pts.reshape(-1, 3), normals.reshape(-1, 3)


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
    # barycentric grid strictly inside each face: every (p, q) with
    # p + q < n, p-major
    p, q = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    wa = ((p + 1.0 / 3.0) / n)[:, None]
    wb = ((q + 1.0 / 3.0) / n)[:, None]
    wc = 1.0 - wa - wb
    pts, normals = [], []
    for ia, ib, ic in faces:
        a, b, c = verts[ia], verts[ib], verts[ic]
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        if normal @ (a + b + c) < 0:
            normal = -normal
        pts.append(wa * a + wb * b + wc * c)
        normals.append(np.broadcast_to(normal, (len(p), 3)))
    return np.vstack(pts), np.vstack(normals)


def make_shape(kind, samples_per_unit):
    """Deterministic surface sampling with exact analytic normals,
    pre-normalized to unit bounding-box diagonal."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind: {kind!r}")
    check_count("samples_per_unit", samples_per_unit, 2)
    if kind in _SQUARE_FACES:
        pts, normals = _squares(_SQUARE_FACES[kind], samples_per_unit)
    elif kind == "sphere":
        pts, normals = _sphere(samples_per_unit)
    else:
        pts, normals = _icosahedron(samples_per_unit)
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
    check_count("clusters", clusters, 2)
    check_count("points_per_cluster", points_per_cluster, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=(clusters, 2))
    blobs = centers[:, None, :] + rng.normal(
        0.0, 0.05, size=(clusters, points_per_cluster, 2)
    )
    xy = blobs.reshape(-1, 2)
    pts = np.column_stack([xy, np.zeros(len(xy))])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    return PointCloud(pts, normals)
