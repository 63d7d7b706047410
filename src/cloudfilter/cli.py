"""Command-line interface: argument parsing and one function per command."""

import argparse
import sys

from . import cloud_io, metrics, synth
from .core import PointCloud, normalize_cloud
from .filtering import FilterParams
from .normals import BilateralParams
from .pipeline import (
    PipelineError,
    RunConfig,
    _stage,
    _write_report,
    run_pipeline,
    smoothed_normals,
)


def _parse_h(text):
    """--h value: a fixed support radius, or "auto" / "auto:MULT" for MULT
    (default FilterParams.h_value) times the mean k-th-neighbor distance."""
    mode, sep, mult = text.partition(":")
    try:
        if mode == "auto":
            return "auto", float(mult) if sep else FilterParams.h_value
        if not sep:
            return "fixed", float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f'expected a number, "auto" or "auto:MULT", got {text!r}')


def _add_normals_flags(sub):
    sub.add_argument("--input", required=True)
    sub.add_argument("--output", required=True)
    sub.add_argument("--format", choices=cloud_io.FORMATS, default=RunConfig.format)
    sub.add_argument("--normals", choices=("file", "pca"), default=RunConfig.normal_source)
    sub.add_argument("--pca-k", type=int, default=RunConfig.pca_k)
    sub.add_argument("--bilateral-sigma-s", type=float, default=BilateralParams.sigma_s)
    sub.add_argument("--bilateral-sigma-r", type=float, default=BilateralParams.sigma_r)
    sub.add_argument("--bilateral-iters", type=int, default=BilateralParams.iterations)
    sub.add_argument("--bilateral-k", type=int, default=BilateralParams.k)


def _add_filter_flags(sub):
    _add_normals_flags(sub)
    sub.add_argument("--k", type=int, default=FilterParams.k)
    sub.add_argument("--mu", type=float, default=FilterParams.mu)
    sub.add_argument("--iters", type=int, default=FilterParams.t)
    sub.add_argument(
        "--h",
        type=_parse_h,
        default=(FilterParams.h_mode, FilterParams.h_value),
        help='fixed value or "auto:MULT"',
    )
    sub.add_argument("--gt", default=RunConfig.gt_path)
    sub.add_argument("--report", default=RunConfig.report_path)
    sub.add_argument("--diagnostics", default=RunConfig.diagnostics_path)


def _bilateral_params(args):
    return BilateralParams(
        sigma_s=args.bilateral_sigma_s,
        sigma_r=args.bilateral_sigma_r,
        iterations=args.bilateral_iters,
        k=args.bilateral_k,
    )


def _config_from_args(args):
    h_mode, h_value = args.h
    return RunConfig(
        input_path=args.input,
        output_path=args.output,
        format=args.format,
        filter_params=FilterParams(
            k=args.k,
            mu=args.mu,
            t=args.iters,
            h_mode=h_mode,
            h_value=h_value,
        ),
        bilateral_params=_bilateral_params(args),
        normal_source=args.normals,
        pca_k=args.pca_k,
        gt_path=args.gt,
        report_path=args.report,
        diagnostics_path=args.diagnostics,
    )


def _cmd_filter(args):
    run_pipeline(_config_from_args(args))
    return 0


def _cmd_normals(args):
    cloud = _stage("read", cloud_io.read_cloud, args.input, args.format)
    # Smooth in the frame `filter` uses, so --bilateral-sigma-s is the same
    # length in both commands. Normals do not change under translation and
    # uniform scaling, so they go out with the points as read.
    normalized, _ = _stage("normalize", normalize_cloud, cloud)
    smoothed = smoothed_normals(normalized, args.normals, args.pca_k, _bilateral_params(args))
    out = PointCloud(cloud.points, smoothed)
    _stage("write", cloud_io.write_cloud, out, args.output, args.format)
    return 0


def _cmd_noise(args):
    cloud = _stage("read", cloud_io.read_cloud, args.input, args.format)
    noisy = synth.add_gaussian_noise(cloud, synth.NoiseSpec(args.level, args.seed))
    _stage("write", cloud_io.write_cloud, noisy, args.output, args.format)
    return 0


def _cmd_shape(args):
    cloud = synth.make_shape(args.kind, args.samples)
    _stage("write", cloud_io.write_cloud, cloud, args.output, args.format)
    return 0


def _cmd_metrics(args):
    gt = _stage("read", cloud_io.read_cloud, args.gt, args.format)
    predicted = _stage("read", cloud_io.read_cloud, args.input, args.format)
    _write_report(metrics.evaluate(gt.points, predicted.points).to_text(), args.report)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cloudfilter",
        description="Feature-preserving point cloud filtering with uniform "
        "point distribution",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_filter = subs.add_parser("filter", help="run the full filtering pipeline")
    _add_filter_flags(p_filter)
    p_filter.set_defaults(fn=_cmd_filter)

    p_normals = subs.add_parser("normals", help="estimate/orient/smooth normals")
    _add_normals_flags(p_normals)
    p_normals.set_defaults(fn=_cmd_normals)

    p_noise = subs.add_parser("noise", help="add seeded Gaussian noise")
    p_noise.add_argument("--input", required=True)
    p_noise.add_argument("--output", required=True)
    p_noise.add_argument("--format", choices=cloud_io.FORMATS, default="xyz")
    p_noise.add_argument("--level", type=float, required=True)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.set_defaults(fn=_cmd_noise)

    p_shape = subs.add_parser("shape", help="generate a synthetic shape")
    p_shape.add_argument("--kind", choices=synth.SHAPE_KINDS, required=True)
    p_shape.add_argument("--samples", type=int, default=10)
    p_shape.add_argument("--output", required=True)
    p_shape.add_argument("--format", choices=cloud_io.FORMATS, default="xyz")
    p_shape.set_defaults(fn=_cmd_shape)

    p_metrics = subs.add_parser("metrics", help="evaluate a cloud against ground truth")
    p_metrics.add_argument("--input", required=True)
    p_metrics.add_argument("--gt", required=True)
    p_metrics.add_argument("--format", choices=cloud_io.FORMATS, default="xyz")
    p_metrics.add_argument("--report", default=None)
    p_metrics.set_defaults(fn=_cmd_metrics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        stage = exc.stage if isinstance(exc, PipelineError) else args.command
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
