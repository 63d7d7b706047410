import warnings

import numpy as np
import pytest

import cloudfilter.pipeline as pipeline_module
from cloudfilter import (
    FilterParams,
    PointCloud,
    RunConfig,
    beta,
    build_neighbor_index,
    data_energy,
    filter_cloud,
    filter_iteration,
    make_clustered_plane,
    make_shape,
    resolve_support_radius,
    run_pipeline,
    theta,
    update_point,
    write_cloud,
)
from cloudfilter.core import KERNEL_WIDTH_MAX, KERNEL_WIDTH_MIN
from cloudfilter.filtering import EPSILON_R, _update_all


def brute_force_data_energy(points, normals, nbrs):
    total = 0.0
    for i in range(len(points)):
        for j in nbrs[i]:
            d = points[i] - points[j]
            total += (d @ normals[j]) ** 2 + (d @ normals[i]) ** 2
    return total


class TestKernels:
    def test_theta_at_zero_is_one(self):
        assert theta(0.0, 1.0) == pytest.approx(1.0)

    def test_theta_analytic(self):
        # r = h/2 puts the argument exactly at -1
        assert theta(0.5, 1.0) == pytest.approx(np.exp(-1.0))
        assert theta(2.0, 2.0) == pytest.approx(np.exp(-4.0))

    def test_theta_monotone_decreasing(self):
        r = np.linspace(0.0, 3.0, 50)
        vals = theta(r, 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_beta_clamps_small_radius(self):
        eps = EPSILON_R
        assert beta(0.0, 1.0) == pytest.approx(theta(eps, 1.0) / eps)
        assert beta(eps / 2, 1.0) == beta(0.0, 1.0)

    def test_beta_analytic(self):
        assert beta(0.5, 1.0) == pytest.approx(np.exp(-1.0) / 0.5)


class TestSupportRadius:
    def test_fixed_mode(self):
        params = FilterParams(h_mode="fixed", h_value=0.123)
        assert resolve_support_radius(params, np.random.default_rng(0).random((50, 3))) == 0.123

    def test_auto_mode_grid(self):
        # interior spacing 1 apart; k=1 mean NN distance is exactly 1
        g = np.arange(8.0)
        x, y = np.meshgrid(g, g)
        pts = np.column_stack([x.ravel(), y.ravel(), np.zeros(64)])
        params = FilterParams(k=1, h_mode="auto", h_value=4.0)
        assert resolve_support_radius(params, pts) == pytest.approx(4.0)

    def test_auto_k_too_large_rejected(self):
        pts = np.random.default_rng(0).random((9, 3))
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            resolve_support_radius(FilterParams(k=9), pts)

    @pytest.mark.parametrize("h_mode", ["fixed", "auto"])
    def test_width_bounds(self, h_mode):
        # on this grid the k=1 mean NN distance is exactly 1, so auto h
        # equals h_value in both modes
        g = np.arange(8.0)
        x, y = np.meshgrid(g, g)
        pts = np.column_stack([x.ravel(), y.ravel(), np.zeros(64)])
        for h in (KERNEL_WIDTH_MIN, KERNEL_WIDTH_MAX):
            assert resolve_support_radius(FilterParams(k=1, h_mode=h_mode, h_value=h), pts) == h
        for h in (np.nextafter(KERNEL_WIDTH_MIN, 0), np.nextafter(KERNEL_WIDTH_MAX, np.inf),
                  1e-200, 1e200):
            params = FilterParams(k=1, h_mode=h_mode, h_value=h)
            with pytest.raises(ValueError, match=r"^support radius h = .* is outside"):
                resolve_support_radius(params, pts)

    @pytest.mark.parametrize("h", [KERNEL_WIDTH_MIN, KERNEL_WIDTH_MAX])
    def test_extreme_accepted_widths_filter_without_warning(self, h):
        cloud = make_shape("plane", 10)
        noisy = cloud.points + np.random.default_rng(2).normal(0.0, 0.01, cloud.points.shape)
        params = FilterParams(k=10, t=1, h_mode="fixed", h_value=h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, history = filter_cloud(PointCloud(noisy), cloud.normals, params)
        assert np.all(np.isfinite(out.points))
        assert np.isfinite(history[0].data_energy)

    def test_smallest_width_on_large_cloud_filters_without_warning(self):
        # neighbours far beyond h overflow theta's argument; their weight is 0
        plane = make_shape("plane", 8)
        cloud = PointCloud(plane.points * 1e5, plane.normals)
        params = FilterParams(h_mode="fixed", h_value=KERNEL_WIDTH_MIN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = filter_cloud(cloud, cloud.normals, params)
        # no repulsion weight survives, and the clean plane's data term is 0
        assert np.array_equal(out.points, cloud.points)


class TestDataEnergy:
    def test_coplanar_points_zero_energy(self):
        cloud = make_shape("plane", 8)
        index = build_neighbor_index(cloud.points)
        assert data_energy(cloud.normals, index, 6) == pytest.approx(0.0, abs=1e-20)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pts = rng.random((120, 3))
        normals = rng.normal(size=(120, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        index = build_neighbor_index(pts)
        nbrs = index.k_nearest_all(10)
        fast = data_energy(normals, index, 10)
        slow = brute_force_data_energy(pts, normals, nbrs)
        assert fast == pytest.approx(slow, rel=1e-12)


class TestUpdatePoint:
    def test_hand_example_single_neighbor(self):
        # p_i = (0,0,1) above a neighbor at the origin, both normals +z,
        # mu = 0: data step is 1/3 * (-1 - 1) * z_hat = (0, 0, -2/3)
        points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        params = FilterParams(k=1, mu=0.0)
        new = update_point(0, points, normals, [1], params, h=1.0)
        assert np.allclose(new, [0.0, 0.0, 1.0 / 3.0])

    def test_pure_repulsion_pushes_apart_in_plane(self):
        points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        normals = np.tile([0.0, 0.0, 1.0], (2, 1))
        params = FilterParams(k=1, mu=0.3)
        new = update_point(0, points, normals, [1], params, h=0.5)
        # data term vanishes (coplanar); repulsion moves point 0 away from 1
        assert new[0] < 0.0
        assert new[1] == pytest.approx(0.0)
        assert new[2] == pytest.approx(0.0)

    def test_repulsion_is_tangential(self):
        rng = np.random.default_rng(23)
        pts = rng.random((40, 3))
        pts[:, 2] = 0.0
        normals = np.tile([0.0, 0.0, 1.0], (40, 1))
        params = FilterParams(k=6, mu=0.5)
        index = build_neighbor_index(pts)
        patch = index.k_nearest(0, 6)
        new = update_point(0, pts, normals, patch, params, h=0.5)
        assert new[2] == pytest.approx(0.0, abs=1e-15)

    def test_underflow_guard_falls_back_to_data_step(self):
        # neighbors far outside a tiny support radius: every theta underflows
        points = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        normals = np.tile([0.0, 0.0, 1.0], (2, 1))
        params = FilterParams(k=1, mu=0.3, h_mode="fixed", h_value=1e-3)
        new = update_point(0, points, normals, [1], params, h=1e-3)
        assert np.all(np.isfinite(new))
        assert np.allclose(new, points[0])  # coplanar, so data step is zero too
        assert np.array_equal(_update_all(points, normals, np.array([[1], [0]]), params, 1e-3), points)

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_one_row_matches_kernel(self, mu):
        rng = np.random.default_rng(31)
        pts = rng.random((80, 3))
        normals = rng.normal(size=(80, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        params = FilterParams(k=8, mu=mu)
        nbrs = build_neighbor_index(pts).k_nearest_all(8)
        h = resolve_support_radius(params, pts)
        blocked = _update_all(pts, normals, nbrs, params, h)
        for i in range(80):
            assert np.array_equal(update_point(i, pts, normals, nbrs[i], params, h), blocked[i])

    @pytest.mark.parametrize("i", [-1, 2])
    def test_point_index_out_of_range_rejected(self, i):
        points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        normals = np.tile([0.0, 0.0, 1.0], (2, 1))
        with pytest.raises(IndexError, match="^point index out of range$"):
            update_point(i, points, normals, [0], FilterParams(k=1), h=0.5)


def brute_force_weighted_update(points, normals, nbrs, mu, h, epsilon_r):
    """Jacobi update with the printed repulsion weight w = 1 + sum_j
    theta(|p_i - p_j|) still applied, one point and one neighbor at a time."""
    def theta_(r):
        return np.exp(-(r**2) / (h / 2.0) ** 2)

    out = np.empty_like(points)
    for i, patch in enumerate(nbrs):
        p_i, n_i = points[i], normals[i]
        data = np.zeros(3)
        w = 1.0
        for j in patch:
            w += theta_(np.linalg.norm(p_i - points[j]))
        weighted = np.zeros(3)
        total = 0.0
        for j in patch:
            d = points[j] - p_i
            n_j = normals[j]
            data += (d @ n_j) * n_j + (d @ n_i) * n_i
            t = -d + (d @ n_j) * n_j
            r = max(np.linalg.norm(t), epsilon_r)
            wb = w * theta_(r) / r
            weighted += wb * t
            total += wb
        out[i] = p_i + data / (3.0 * len(patch)) + mu * weighted / total
    return out


class TestRepulsionWeightCancels:
    @pytest.mark.parametrize("shape", ["random", "clustered-plane"])
    def test_patch_constant_weight_cancels(self, shape):
        if shape == "random":
            rng = np.random.default_rng(5)
            pts = rng.random((150, 3))
            normals = rng.normal(size=(150, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        else:
            cloud = make_clustered_plane(5, 30, seed=3)
            pts, normals = cloud.points, cloud.normals
        # h_value is pinned: the identity does not depend on the default
        params = FilterParams(k=10, mu=0.3, h_value=4.0)
        nbrs = build_neighbor_index(pts).k_nearest_all(params.k)
        h = resolve_support_radius(params, pts)
        fast = _update_all(pts, normals, nbrs, params, h)
        slow = brute_force_weighted_update(pts, normals, nbrs, params.mu, h, EPSILON_R)
        np.testing.assert_allclose(fast, slow, rtol=1e-14)


class TestFilterCloud:
    def test_memory_layout_does_not_change_output(self):
        cloud = make_shape("sphere", 8)
        noisy = cloud.points + np.random.default_rng(2).normal(0.0, 0.01, cloud.points.shape)
        params = FilterParams(k=10, t=2)
        c_out, c_history = filter_cloud(PointCloud(noisy, cloud.normals), cloud.normals, params)
        f_cloud = PointCloud(np.asfortranarray(noisy), np.asfortranarray(cloud.normals))
        f_out, f_history = filter_cloud(f_cloud, np.asfortranarray(cloud.normals), params)
        assert f_out.points.tobytes() == c_out.points.tobytes()
        assert f_history == c_history

    def test_history_length_and_cloud_size(self):
        cloud = make_shape("plane", 10)
        params = FilterParams(k=8, t=3)
        out, history = filter_cloud(cloud, cloud.normals, params)
        assert len(history) == 3
        assert len(out) == len(cloud)

    def test_plane_with_exact_normals_stays_planar(self):
        cloud = make_shape("plane", 12)
        params = FilterParams(k=10, mu=0.3, t=5)
        out, _ = filter_cloud(cloud, cloud.normals, params)
        assert np.max(np.abs(out.points[:, 2])) < 1e-12

    def test_mu_zero_denoises_plane(self):
        rng = np.random.default_rng(13)
        cloud = make_shape("plane", 15)
        noisy_pts = cloud.points.copy()
        noisy_pts[:, 2] += rng.normal(0.0, 0.005, size=len(cloud))
        noisy = PointCloud(noisy_pts, cloud.normals)
        params = FilterParams(k=15, mu=0.0, t=10)
        out, _ = filter_cloud(noisy, cloud.normals, params)
        assert np.abs(out.points[:, 2]).mean() < 0.2 * np.abs(noisy_pts[:, 2]).mean()

    def test_repulsion_spreads_dense_clump(self):
        rng = np.random.default_rng(41)
        pts = rng.random((300, 3))
        pts[:150] *= 0.3  # dense clump in one corner
        pts[:, 2] = 0.0
        cloud = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (300, 1)))

        def clump_spacing(c):
            return build_neighbor_index(c.points).nearest_distances()[:150].mean()

        params = FilterParams(k=20, mu=0.3, t=5)
        out, _ = filter_cloud(cloud, cloud.normals, params)
        assert clump_spacing(out) > 1.5 * clump_spacing(cloud)

    def test_diagnostics_are_finite(self):
        cloud = make_shape("sphere", 10)
        params = FilterParams(k=10, t=2)
        _, history = filter_cloud(cloud, cloud.normals, params)
        for diag in history:
            assert np.isfinite(diag.data_energy)
            assert diag.mean_displacement <= diag.max_displacement
            assert diag.nn_distance_stddev >= 0

    @pytest.mark.parametrize("call", ["filter_iteration", "filter_cloud", "run_pipeline"])
    def test_returned_normals_share_no_memory_with_given(self, monkeypatch, tmp_path, call):
        # The returned cloud holds its own copy of the normals it was given.
        cloud = make_shape("plane", 10)
        params = FilterParams(k=8, t=2)
        if call == "filter_iteration":
            given, (out, _) = cloud.normals, filter_iteration(cloud, cloud.normals, params)
        elif call == "filter_cloud":
            given, (out, _) = cloud.normals, filter_cloud(cloud, cloud.normals, params)
        else:
            seen = []

            def spy(*args):
                seen.append(args[1])  # the normals the filter stage is given
                return filter_cloud(*args)

            monkeypatch.setattr(pipeline_module, "filter_cloud", spy)
            write_cloud(cloud, tmp_path / "in.xyz")
            config = RunConfig(str(tmp_path / "in.xyz"), str(tmp_path / "out.xyz"),
                               filter_params=params, normal_source="file")
            out, _, _ = run_pipeline(config)
            (given,) = seen
        assert not np.shares_memory(out.normals, given)

    def test_mismatched_normals_rejected(self):
        cloud = make_shape("plane", 8)
        with pytest.raises(ValueError):
            filter_iteration(cloud, cloud.normals[:-1], FilterParams(k=5))

    def test_k_too_large_rejected(self):
        cloud = make_shape("plane", 3)
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            filter_iteration(cloud, cloud.normals, FilterParams(k=9))

    def test_all_coincident_cloud_rejected(self):
        cloud = PointCloud(np.ones((10, 3)), np.tile([0.0, 0.0, 1.0], (10, 1)))
        with pytest.raises(ValueError, match="degenerate support radius"):
            filter_cloud(cloud, cloud.normals, FilterParams(k=5, t=1))


class TestFilterParams:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FilterParams(k=0)
        for mu in (-0.1, float("nan"), float("inf"), "0.3", True):
            with pytest.raises(ValueError, match="^mu must be finite and non-negative$"):
                FilterParams(mu=mu)
        with pytest.raises(ValueError):
            FilterParams(t=0)
        with pytest.raises(ValueError):
            FilterParams(h_mode="nope")
        for name, value in (("k", 6.5), ("k", 6.0), ("t", 2.5), ("k", True), ("t", True)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                FilterParams(**{name: value})
        # numpy integers are integers
        FilterParams(k=np.int64(6), t=np.int32(2))
        for h_mode in ("auto", "fixed"):
            for h_value in (0.0, float("nan"), float("inf"), "4", True):
                with pytest.raises(ValueError, match="h_value"):
                    FilterParams(h_mode=h_mode, h_value=h_value)
