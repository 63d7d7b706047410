"""The end-to-end filtering pipeline and its normals stage."""

import sys
import time
from dataclasses import dataclass, field

from . import cloud_io, metrics
from .core import PointCloud, check_count, normalize_cloud
from .filtering import FilterParams, filter_cloud
from .normals import BilateralParams, bilateral_filter_normals, estimate_normals_pca, orient_normals


class PipelineError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


@dataclass
class RunConfig:
    input_path: str
    output_path: str
    format: str = "xyz"
    filter_params: FilterParams = field(default_factory=FilterParams)
    bilateral_params: BilateralParams = field(default_factory=BilateralParams)
    normal_source: str = "pca"  # "pca" | "file"
    pca_k: int = 12
    gt_path: str | None = None
    report_path: str | None = None
    diagnostics_path: str | None = None

    def __post_init__(self):
        if not self.input_path or not self.output_path:
            raise ValueError("input and output paths required")
        if self.normal_source not in ("pca", "file"):
            raise ValueError("normal source must be 'pca' or 'file'")
        check_count("pca_k", self.pca_k, 3)
        if self.format not in cloud_io.FORMATS:
            raise ValueError(f"unknown format: {self.format!r}")
        if self.report_path and self.gt_path is None:
            raise ValueError("report_path needs gt_path")


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def smoothed_normals(cloud, normal_source, pca_k, bilateral_params):
    """Normals of `cloud` from the file ("file") or from PCA over pca_k
    neighbors ("pca"), oriented over the MST and bilaterally smoothed.

    Raises PipelineError naming the step that failed: "normals", "orient"
    or "bilateral".
    """
    if normal_source == "file":
        if cloud.normals is None:
            raise PipelineError("normals", "input file carries no normals")
        raw_normals = cloud.normals
    else:
        raw_normals, _ = _stage("normals", estimate_normals_pca, cloud, pca_k)
    oriented, _ = _stage("orient", orient_normals, cloud, raw_normals)
    return _stage("bilateral", bilateral_filter_normals, cloud, oriented, bilateral_params)


def run_pipeline(config):
    """Load, normalize, obtain normals, filter, inverse-transform, write.

    Returns (filtered_cloud_in_input_frame, diagnostics, report_or_None).
    """
    started = time.perf_counter()
    cloud = _stage("read", cloud_io.read_cloud, config.input_path, config.format)

    cloud, transform = _stage("normalize", normalize_cloud, cloud)
    smoothed = smoothed_normals(
        cloud, config.normal_source, config.pca_k, config.bilateral_params
    )
    filtered, diagnostics = _stage(
        "filter", filter_cloud, cloud, smoothed, config.filter_params
    )

    out_cloud = PointCloud(transform.invert(filtered.points), filtered.normals)
    _stage("write", cloud_io.write_cloud, out_cloud, config.output_path, config.format)

    diag_path = config.diagnostics_path
    if diag_path is None:
        diag_path = config.output_path + ".diagnostics.csv"
    _stage("diagnostics", _write_diagnostics, diagnostics, diag_path)

    report = None
    if config.gt_path is not None:
        gt = _stage("metrics", cloud_io.read_cloud, config.gt_path, config.format)
        report = _stage("metrics", metrics.evaluate, gt.points, out_cloud.points)
        wall = time.perf_counter() - started
        _write_report(report.to_text() + f"wall_time_seconds={wall:.6g}\n", config.report_path)
    return out_cloud, diagnostics, report


def _write_report(text, path):
    """Write a metric report to `path`, or to stdout when no path is given."""
    if path:
        _stage("report", _write_text, path, text)
    else:
        sys.stdout.write(text)


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_diagnostics(diagnostics, path):
    lines = ["iteration,data_energy,mean_displacement,max_displacement,nn_distance_stddev"]
    for i, d in enumerate(diagnostics, start=1):
        lines.append(
            f"{i},{d.data_energy:.12g},{d.mean_displacement:.12g},"
            f"{d.max_displacement:.12g},{d.nn_distance_stddev:.12g}"
        )
    _write_text(path, "\n".join(lines) + "\n")
