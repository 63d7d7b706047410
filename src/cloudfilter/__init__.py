"""Feature-preserving point cloud filtering with uniform point distribution.

Pipeline: estimate and bilaterally smooth normals, then iteratively update
point positions against an edge-aware data term plus a tangential repulsion
term that spreads points evenly.
"""

from .core import (
    CloudTransform,
    NeighborIndex,
    PointCloud,
    bbox_diagonal,
    build_neighbor_index,
    normalize_cloud,
)
from .filtering import (
    FilterParams,
    IterationDiagnostics,
    beta,
    data_energy,
    filter_cloud,
    filter_iteration,
    resolve_support_radius,
    theta,
    update_point,
)
from .normals import (
    BilateralParams,
    bilateral_filter_normals,
    estimate_normals_pca,
    orient_normals,
)
from .metrics import MetricReport, chamfer_distance, evaluate, mean_square_error
from .synth import NoiseSpec, add_gaussian_noise, make_clustered_plane, make_shape
from .cloud_io import read_cloud, write_cloud
from .pipeline import RunConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BilateralParams",
    "CloudTransform",
    "FilterParams",
    "IterationDiagnostics",
    "MetricReport",
    "NeighborIndex",
    "NoiseSpec",
    "PointCloud",
    "RunConfig",
    "add_gaussian_noise",
    "bbox_diagonal",
    "beta",
    "bilateral_filter_normals",
    "build_neighbor_index",
    "chamfer_distance",
    "data_energy",
    "estimate_normals_pca",
    "evaluate",
    "filter_cloud",
    "filter_iteration",
    "make_clustered_plane",
    "make_shape",
    "mean_square_error",
    "normalize_cloud",
    "orient_normals",
    "read_cloud",
    "resolve_support_radius",
    "run_pipeline",
    "theta",
    "update_point",
    "write_cloud",
]
