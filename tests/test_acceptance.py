"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Each test prints its verdict on a line of its own (with pytest capture
suspended so the lines always appear in the run log) and then asserts it, so
a failed criterion is both visible in the text output and reflected in the
exit code.
"""

import time

import numpy as np
import pytest

from cloudfilter import (
    BilateralParams,
    FilterParams,
    PointCloud,
    NoiseSpec,
    RunConfig,
    add_gaussian_noise,
    bilateral_filter_normals,
    build_neighbor_index,
    chamfer_distance,
    data_energy,
    estimate_normals_pca,
    filter_cloud,
    make_clustered_plane,
    make_shape,
    mean_square_error,
    orient_normals,
    read_cloud,
    run_pipeline,
    update_point,
    write_cloud,
)


@pytest.fixture
def verdict(capsys):
    def _verdict(criterion, passed, detail=""):
        tag = "PASS" if passed else "FAIL"
        line = f"{tag} {criterion}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            # leading newline keeps the verdict on its own line next to
            # pytest's live progress output
            print("\n" + line, flush=True)
        assert passed, line

    return _verdict


# ---------------------------------------------------------------------------
# brute-force references (independent of the library implementations)


def _bf_knn(points, i, k):
    d = np.linalg.norm(points - points[i], axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return [j for j in order if j != i][:k]


def _bf_chamfer(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(np.mean(d.min(axis=1) ** 2) + np.mean(d.min(axis=0) ** 2))


def _bf_mse(a, b, m):
    d = np.sort(np.linalg.norm(b[:, None, :] - a[None, :, :], axis=2), axis=1)
    return float(np.sum(d[:, :m] ** 2)) / (len(b) * m)


def _bf_energy(points, normals, k):
    total = 0.0
    for i in range(len(points)):
        for j in _bf_knn(points, i, k):
            d = points[i] - points[j]
            total += (d @ normals[j]) ** 2 + (d @ normals[i]) ** 2
    return total


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _denoise_ratio(clean, level, seed, filter_params):
    """Full pipeline (PCA normals, orientation, bilateral, filter) in memory;
    chamfer to clean after filtering over chamfer of the noisy input."""
    noisy = add_gaussian_noise(clean, NoiseSpec(level, seed=seed))
    raw, _ = estimate_normals_pca(noisy, 12)
    oriented, _ = orient_normals(noisy, raw)
    smoothed = bilateral_filter_normals(noisy, oriented, BilateralParams())
    filtered, _ = filter_cloud(noisy, smoothed, filter_params)
    before = chamfer_distance(noisy.points, clean.points)
    after = chamfer_distance(filtered.points, clean.points)
    return after / before


def test_criterion_1_brute_force_oracles(verdict):
    """k_nearest, chamfer_distance, mean_square_error and data_energy match
    independent O(n^2) references on 20 seeded instances, rel err < 1e-10."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 201))
        pts = rng.random((n, 3))
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        other = rng.random((int(rng.integers(20, 201)), 3))
        k = int(rng.integers(3, min(15, n - 1)))

        index = build_neighbor_index(pts)
        for i in rng.integers(0, n, size=5):
            assert list(index.k_nearest(int(i), k)) == _bf_knn(pts, int(i), k)

        worst = max(
            worst,
            _rel_err(chamfer_distance(pts, other), _bf_chamfer(pts, other)),
            _rel_err(mean_square_error(pts, other, m=10), _bf_mse(pts, other, 10)),
            _rel_err(
                data_energy(normals, index, k), _bf_energy(pts, normals, k)
            ),
        )
    elapsed = time.perf_counter() - started
    verdict(
        "criterion 1 (oracle equivalence)",
        worst < 1e-10 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_check(verdict):
    """With mu=0 the data step equals -(gamma/2) times the gradient of the
    local energy D_i = sum_j ((p_i-p_j).n_j)^2 + ((p_i-p_j).n_i)^2 with
    gamma = 1/(3k), so |step| * 6k / |grad D_i| should be 1. Verified against
    central finite differences (step 1e-6) on 100 random configurations."""
    rng = np.random.default_rng(2024)
    worst_cos, worst_mag = 1.0, 0.0
    for _ in range(100):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(3, min(12, n - 1)))
        pts = rng.random((n, 3))
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        params = FilterParams(k=k, mu=0.0)
        patch = build_neighbor_index(pts).k_nearest(0, k)

        def local_energy(p):
            d = p - pts[patch]
            return float(
                np.sum(np.einsum("kj,kj->k", d, normals[patch]) ** 2)
                + np.sum((d @ normals[0]) ** 2)
            )

        step = update_point(0, pts, normals, patch, params, h=1.0) - pts[0]
        eps = 1e-6
        grad = np.empty(3)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = eps
            grad[axis] = (
                local_energy(pts[0] + offset) - local_energy(pts[0] - offset)
            ) / (2 * eps)
        if np.linalg.norm(grad) < 1e-9:
            continue
        cos = -(step @ grad) / (np.linalg.norm(step) * np.linalg.norm(grad))
        ratio = np.linalg.norm(step) * 6 * k / np.linalg.norm(grad)
        worst_cos = min(worst_cos, cos)
        worst_mag = max(worst_mag, abs(ratio - 1.0))
    verdict(
        "criterion 2 (gradient check)",
        worst_cos > 0.9999 and worst_mag < 1e-4,
        f"min cosine {worst_cos:.6f}, max magnitude dev {worst_mag:.2e}",
    )


def test_criterion_3_plane_fixed_point(tmp_path, verdict):
    """A clean coplanar cloud with exact normals stays on the plane through
    the full pipeline (any mu, t=10) to within 1e-9 of the diagonal."""
    clean = make_shape("plane", 15)
    src = tmp_path / "plane.xyz"
    write_cloud(clean, src)
    diag = 1.0  # make_shape pre-normalizes to unit diagonal
    worst = 0.0
    for mu in (0.0, 0.1, 0.3):
        dst = tmp_path / f"out_{mu}.xyz"
        config = RunConfig(
            input_path=str(src),
            output_path=str(dst),
            filter_params=FilterParams(k=30, mu=mu, t=10),
            normal_source="file",
        )
        out_cloud, _, _ = run_pipeline(config)
        worst = max(worst, float(np.max(np.abs(out_cloud.points[:, 2]))))
    verdict(
        "criterion 3 (plane fixed point)",
        worst < 1e-9 * diag,
        f"max off-plane {worst:.2e}",
    )


def test_criterion_4_denoising_efficacy(verdict):
    """Cube (384 points) + 0.5% noise, k=30, mu=0.3, t=5: filtered chamfer
    must be at most half the noisy chamfer on each of 5 seeds."""
    started = time.perf_counter()
    clean = make_shape("cube", 8)  # 6 x 8 x 8 = 384 points
    params = FilterParams(k=30, mu=0.3, t=5)
    ratios = [_denoise_ratio(clean, 0.005, seed, params) for seed in range(5)]
    elapsed = time.perf_counter() - started
    verdict(
        "criterion 4 (denoising efficacy)",
        max(ratios) <= 0.5 and elapsed < 5.0,
        f"chamfer ratios {', '.join(f'{r:.3g}' for r in ratios)}, {elapsed:.1f}s",
    )


def test_criterion_5_uniformity_ablation(verdict):
    """Clustered plane, t=10, k=30: final nearest-neighbor distance stddev
    with repulsion (mu=0.3) must beat the ablated run (mu=0) on 5 seeds."""
    wins = []
    details = []
    for seed in range(5):
        cloud = make_clustered_plane(8, 50, seed=seed)
        stds = {}
        for mu in (0.0, 0.3):
            params = FilterParams(k=30, mu=mu, t=10)
            _, history = filter_cloud(cloud, cloud.normals, params)
            stds[mu] = history[-1].nn_distance_stddev
        wins.append(stds[0.3] < stds[0.0])
        details.append(f"{stds[0.3]:.3g} vs {stds[0.0]:.3g}")
    verdict(
        "criterion 5 (uniformity ablation)",
        all(wins),
        "; ".join(details),
    )


def test_criterion_6_noise_level_robustness(verdict):
    """Filtered chamfer on the cube is monotone in the noise level, with an
    actual improvement over the noisy input at 0.5% and 1.0%."""
    clean = make_shape("cube", 40)
    params = FilterParams(k=30, mu=0.3, t=5)
    ratios, chamfers = [], []
    for level in (0.005, 0.010, 0.015):
        noisy = add_gaussian_noise(clean, NoiseSpec(level, seed=0))
        raw, _ = estimate_normals_pca(noisy, 12)
        oriented, _ = orient_normals(noisy, raw)
        smoothed = bilateral_filter_normals(noisy, oriented, BilateralParams())
        filtered, _ = filter_cloud(noisy, smoothed, params)
        chamfers.append(chamfer_distance(filtered.points, clean.points))
        ratios.append(chamfers[-1] / chamfer_distance(noisy.points, clean.points))
    monotone = chamfers[0] < chamfers[1] < chamfers[2]
    improves = ratios[0] < 1.0 and ratios[1] < 1.0
    verdict(
        "criterion 6 (noise-level robustness)",
        monotone and improves,
        f"ratios {', '.join(f'{r:.3g}' for r in ratios)}",
    )


def test_criterion_7_performance_envelope(tmp_path, verdict):
    """A ~35,000-point cloud, k=30, t=5 through the full pipeline in under
    30 s; the wall time is recorded in the metrics report."""
    clean = make_shape("sphere", 187)  # 34,970 points
    src = tmp_path / "big.xyz"
    write_cloud(PointCloud(clean.points), src)
    report_path = tmp_path / "report.txt"
    config = RunConfig(
        input_path=str(src),
        output_path=str(tmp_path / "big_out.xyz"),
        filter_params=FilterParams(k=30, mu=0.3, t=5),
        gt_path=str(src),
        report_path=str(report_path),
    )
    started = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - started
    recorded = "wall_time_seconds=" in report_path.read_text()
    verdict(
        "criterion 7 (performance envelope)",
        elapsed < 30.0 and recorded,
        f"{len(clean)} points in {elapsed:.1f}s, wall time recorded",
    )


def test_criterion_8_determinism(tmp_path, verdict):
    """Two runs with identical config, input and seed produce byte-identical
    output clouds and diagnostics."""
    clean = make_shape("cube", 8)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.005, seed=3))
    src = tmp_path / "in.xyz"
    write_cloud(noisy, src)
    outputs = []
    for run in range(2):
        out = tmp_path / f"out_{run}.xyz"
        diag = tmp_path / f"diag_{run}.csv"
        config = RunConfig(
            input_path=str(src),
            output_path=str(out),
            filter_params=FilterParams(k=30, mu=0.3, t=5),
            diagnostics_path=str(diag),
        )
        run_pipeline(config)
        outputs.append(out.read_bytes() + diag.read_bytes())
    verdict(
        "criterion 8 (determinism)",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes compared",
    )
