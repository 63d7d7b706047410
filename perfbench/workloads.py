"""Benchmark workloads: seeded synthetic inputs, the pipeline settings each
one runs with, and the span counts one call must produce.

The seed only shapes the inputs (noise draw or row order); the program sees
nothing but the files written here. Why each workload exists is in
README.md beside this file.
"""

import os
from dataclasses import dataclass

import numpy as np

from cloudfilter import FilterParams, PointCloud, RunConfig, cloud_io, synth

K = 30
MU = 0.3
NOISE_LEVEL = 0.005  # fraction of the bounding-box diagonal


@dataclass(frozen=True)
class Workload:
    shape: str
    samples: int  # make_shape samples_per_unit at full size
    tiny_samples: int  # the same shape at self-check size
    noisy: bool
    format: str
    write_normals: bool  # 6-column input carrying the exact normals
    normal_source: str
    t: int
    with_gt: bool
    permute: bool  # seeded row order instead of seeded noise


WORKLOADS = {
    "sphere-35k": Workload(
        shape="sphere", samples=187, tiny_samples=20, noisy=True, format="xyz",
        write_normals=False, normal_source="pca", t=5, with_gt=True, permute=False,
    ),
    "grid-plane-10k": Workload(
        shape="plane", samples=100, tiny_samples=12, noisy=False, format="ply-ascii",
        write_normals=True, normal_source="file", t=5, with_gt=False, permute=True,
    ),
    "sphere-100k-t1": Workload(
        shape="sphere", samples=317, tiny_samples=24, noisy=True, format="xyz",
        write_normals=True, normal_source="file", t=1, with_gt=True, permute=False,
    ),
}


@dataclass
class Inputs:
    config: RunConfig
    clean: np.ndarray  # clean synthetic samples, for chamfer_to_clean


def prepare(name, seed, workdir, tiny=False):
    """Generate the workload's inputs from `seed` and write them to `workdir`
    through cloud_io.write_cloud."""
    w = WORKLOADS[name]
    clean = synth.make_shape(w.shape, w.tiny_samples if tiny else w.samples)
    cloud = clean
    if w.noisy:
        cloud = synth.add_gaussian_noise(clean, synth.NoiseSpec(NOISE_LEVEL, seed))
    if w.permute:
        order = np.random.default_rng(seed).permutation(len(cloud))
        cloud = PointCloud(cloud.points[order], cloud.normals[order])
    if not w.write_normals:
        cloud = PointCloud(cloud.points)

    ext = "ply" if w.format == "ply-ascii" else "xyz"
    input_path = os.path.join(workdir, f"input.{ext}")
    cloud_io.write_cloud(cloud, input_path, w.format)
    gt_path = None
    if w.with_gt:
        gt_path = os.path.join(workdir, f"clean.{ext}")
        cloud_io.write_cloud(PointCloud(clean.points), gt_path, w.format)

    config = RunConfig(
        input_path=input_path,
        output_path=os.path.join(workdir, f"output.{ext}"),
        format=w.format,
        filter_params=FilterParams(k=K, mu=MU, t=w.t),
        normal_source=w.normal_source,
        gt_path=gt_path,
        # a report path keeps run_pipeline from printing the report to stdout
        report_path=os.path.join(workdir, "report.txt") if w.with_gt else None,
    )
    return Inputs(config, clean.points)


def expected_spans(name):
    """Span count per traced call implied by the pipeline's stages for this
    workload. A mismatch means a wrapper sits where the pipeline no longer
    calls, or a stage ran a different number of times."""
    w = WORKLOADS[name]
    return {
        "cli.run_pipeline": 1,
        "cloud_io.read_cloud": 1 + int(w.with_gt),
        "cloud_io.write_cloud": 1,
        "core.normalize_cloud": 1,
        "normals.estimate_normals_pca": int(w.normal_source == "pca"),
        "normals.orient_normals": 1,
        "normals.bilateral_filter_normals": 1,
        "filtering.filter_cloud": 1,
        "filtering.filter_iteration": w.t,
        "filtering.resolve_support_radius": w.t,
        "filtering.data_energy": w.t,
        "metrics.evaluate": int(w.with_gt),
    }


# Exact k-NN counts per call pinned for today's program (see README.md):
# sphere-35k builds 18 KD-trees and makes 13 k_nearest_all, 6 kth_distances
# and 5 nearest_distances queries, none of them on the tie path; the grid
# plane must reach the tie path.
PINNED_COUNTS = {
    "sphere-35k": {
        "core.index_builds": ("==", 18),
        "core.knn_queries": ("==", 13 + 6 + 5),
        "core.tie_fallback_rows": ("==", 0),
    },
    "grid-plane-10k": {
        "core.tie_fallback_rows": (">", 0),
    },
}
