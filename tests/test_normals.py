import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

import cloudfilter.normals as normals_module
from cloudfilter import (
    BilateralParams,
    bilateral_filter_normals,
    estimate_normals_pca,
    make_shape,
    orient_normals,
)
from cloudfilter.core import KERNEL_WIDTH_MAX, KERNEL_WIDTH_MIN, PointCloud, build_neighbor_index
from cloudfilter.normals import _MIN_WEIGHT, ORIENT_GRAPH_K, _tree_signs
from test_parallel import sphere_20k


def dfs_orient(cloud, normals):
    """Reference orientation: the former depth-first sign propagation, one
    `@` per tree edge, over the same k-NN graph and spanning forest."""
    pts = cloud.points
    normals = np.array(normals, dtype=np.float64)
    m = len(pts)
    k = min(ORIENT_GRAPH_K, m - 1)
    nbrs = build_neighbor_index(pts).k_nearest_all(k)
    rows = np.repeat(np.arange(m), k)
    cols = nbrs.ravel()
    dots = np.abs(np.einsum("ij,ij->i", normals[rows], normals[cols]))
    weights = np.maximum(1.0 - dots, _MIN_WEIGHT)
    graph = coo_matrix((weights, (rows, cols)), shape=(m, m)).tocsr()
    graph = graph.maximum(graph.T)
    n_components, labels = connected_components(graph, directed=False)
    mst = minimum_spanning_tree(graph).tocsr()
    adjacency = (mst + mst.T).tolil().rows

    oriented = normals.copy()
    visited = np.zeros(m, dtype=bool)
    for comp in range(n_components):
        members = np.flatnonzero(labels == comp)
        root = members[np.argmax(pts[members, 2])]
        if oriented[root, 2] < 0:
            oriented[root] = -oriented[root]
        visited[root] = True
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adjacency[a]:
                if visited[b]:
                    continue
                if oriented[a] @ oriented[b] < 0:
                    oriented[b] = -oriented[b]
                visited[b] = True
                stack.append(b)
    return oriented, n_components


def random_signs(normals, seed):
    signs = np.where(np.random.default_rng(seed).random(len(normals)) < 0.5, 1.0, -1.0)
    return normals * signs[:, None]


class TestEstimateNormalsPca:
    def test_plane_recovers_z_axis(self):
        cloud = make_shape("plane", 10)
        normals, degenerate = estimate_normals_pca(cloud, 8)
        assert degenerate == []
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.allclose(normals[:, :2], 0.0, atol=1e-9)

    def test_noisy_plane_close_to_z_axis(self):
        rng = np.random.default_rng(7)
        cloud = make_shape("plane", 15)
        pts = cloud.points.copy()
        pts[:, 2] += rng.normal(0.0, 0.002, size=len(pts))
        normals, _ = estimate_normals_pca(PointCloud(pts), 12)
        assert np.all(np.abs(normals[:, 2]) > 0.99)

    def test_sphere_normals_radial(self):
        cloud = make_shape("sphere", 14)
        normals, _ = estimate_normals_pca(cloud, 12)
        radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        dots = np.abs(np.einsum("ij,ij->i", normals, radial))
        assert dots.min() > 0.99

    def test_collinear_points_flagged_degenerate(self):
        pts = np.column_stack([np.arange(6.0), np.zeros(6), np.zeros(6)])
        normals, degenerate = estimate_normals_pca(PointCloud(pts), 3)
        assert degenerate == list(range(6))
        # lexicographically smallest unit vector orthogonal to the line
        assert np.allclose(normals, np.tile([0.0, -1.0, 0.0], (6, 1)))

    def test_unit_length_output(self):
        cloud = make_shape("cube", 6)
        normals, _ = estimate_normals_pca(cloud, 10)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)

    def test_too_few_points_rejected(self):
        cloud = PointCloud(np.random.default_rng(0).random((4, 3)))
        with pytest.raises(ValueError, match="^k exceeds cloud size$"):
            estimate_normals_pca(cloud, 4)

    def test_k_below_three_rejected(self):
        cloud = PointCloud(np.random.default_rng(0).random((1000, 3)))
        with pytest.raises(ValueError, match="^k must be >= 3$"):
            estimate_normals_pca(cloud, 2)

    def test_non_integral_k_rejected(self):
        cloud = make_shape("plane", 10)
        for k in (6.5, 2.5):
            with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
                estimate_normals_pca(cloud, k)
        # numpy integers are integers
        assert np.array_equal(estimate_normals_pca(cloud, np.int64(8))[0],
                              estimate_normals_pca(cloud, 8)[0])


class TestOrientNormals:
    def test_sphere_orientation_consistent(self):
        cloud = make_shape("sphere", 14)
        raw, _ = estimate_normals_pca(cloud, 12)
        # scramble the signs first
        rng = np.random.default_rng(11)
        raw = raw * np.where(rng.random(len(raw)) < 0.5, 1.0, -1.0)[:, None]
        oriented, n_components = orient_normals(cloud, raw)
        assert n_components == 1
        radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", oriented, radial)
        # all outward or all inward, never mixed; root rule makes it outward
        assert np.all(dots > 0.99)

    def test_plane_all_same_sign(self):
        cloud = make_shape("plane", 12)
        rng = np.random.default_rng(2)
        signs = np.where(rng.random(len(cloud)) < 0.5, 1.0, -1.0)
        raw = np.tile([0.0, 0.0, 1.0], (len(cloud), 1)) * signs[:, None]
        oriented, n_components = orient_normals(cloud, raw)
        assert n_components == 1
        assert np.allclose(oriented, np.tile([0.0, 0.0, 1.0], (len(cloud), 1)))

    def test_two_distant_components(self):
        near = make_shape("plane", 6).points
        far = near + np.array([100.0, 0.0, 0.0])
        pts = np.vstack([near, far])
        raw = np.tile([0.0, 0.0, -1.0], (len(pts), 1))
        oriented, n_components = orient_normals(PointCloud(pts), raw)
        assert n_components == 2
        # each component is rooted at its own max-z point, flipped toward +z
        assert np.allclose(oriented[:, 2], 1.0)

    def test_single_point(self):
        oriented, n_components = orient_normals(
            PointCloud([[0.0, 0.0, 0.0]]), [[0.0, 0.0, 1.0]]
        )
        assert n_components == 1
        assert np.allclose(oriented, [[0.0, 0.0, 1.0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            orient_normals(PointCloud([[0, 0, 0], [1, 0, 0.0]]), [[0, 0, 1.0]])


class TestOrientMatchesDepthFirstReference:
    def _assert_same(self, points, normals):
        cloud = PointCloud(points)
        given = np.array(normals, dtype=np.float64)
        oriented, n_components = orient_normals(cloud, given)
        assert np.array_equal(given, normals)  # the caller's array is not flipped
        expected, expected_components = dfs_orient(cloud, normals)
        assert n_components == expected_components
        assert np.array_equal(oriented, expected)
        assert np.array_equal(np.signbit(oriented), np.signbit(expected))
        return oriented, n_components

    def test_plane_with_random_signs(self):
        cloud = make_shape("plane", 100)
        assert len(cloud) == 10_000
        self._assert_same(cloud.points, random_signs(cloud.normals, 3))

    def test_three_disjoint_cubes_with_random_signs(self):
        cube = make_shape("cube", 8)
        pts = np.vstack([cube.points + [10.0 * i, 0.0, 0.0] for i in range(3)])
        normals = random_signs(np.vstack([cube.normals] * 3), 4)
        _, n_components = self._assert_same(pts, normals)
        assert n_components == 3

    def test_sphere_with_noisy_random_normals(self):
        # Non-axis-aligned normals: per-edge dots round, and near-perpendicular
        # tree edges get their sign from the last bits of the dot product.
        cloud = make_shape("sphere", 20)
        rng = np.random.default_rng(5)
        normals = cloud.normals + rng.normal(0.0, 0.8, size=cloud.normals.shape)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        self._assert_same(cloud.points, normals)

    def test_zero_dot_child_gets_plus_whatever_its_parent(self):
        # Root r points down, so it and its child d get sign -1. c is exactly
        # perpendicular to both, so it keeps its sign: a zero dot is not < 0.
        pts = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]
        normals = [[0.0, 0.0, -1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
        oriented, _ = self._assert_same(pts, normals)
        assert np.array_equal(oriented, [[0, 0, 1.0], [0, 0, 1.0], [1.0, 0, 0]])

    def test_rounding_dot_pair(self):
        # 0.6*0.8 - 0.8*0.6 is 0 when both products round and about -3e-17
        # when the dot is fused; orient_normals must decide like `a @ b`.
        pts = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        normals = [[0.6, 0.8, 0.0], [0.8, -0.6, 0.0]]
        self._assert_same(pts, normals)


class TestTreeSigns:
    def test_zero_dot_gives_plus_whatever_the_parent(self):
        # Root 4. Node 0 flips; 1 is exactly perpendicular to the flipped 0,
        # so it keeps its sign, as does 3 with a -0.0 dot; 2 flips below 1.
        parent = np.array([4, 0, 1, 0, 4], dtype=np.int32)
        dots = np.array([-1.0, 0.0, -0.5, -0.0, 1.0])
        assert np.array_equal(_tree_signs(parent, dots), [-1, 1, -1, 1, 1])

    def test_matches_breadth_first_loop(self, monkeypatch):
        seen = {}
        bfs, signs = normals_module.breadth_first_order, normals_module._tree_signs

        def record_bfs(*args, **kwargs):
            seen["order"], seen["parent"] = bfs(*args, **kwargs)
            return seen["order"], seen["parent"]

        def record_signs(parent, dots):
            seen["dots"], seen["signs"] = dots, signs(parent, dots)
            return seen["signs"]

        monkeypatch.setattr(normals_module, "breadth_first_order", record_bfs)
        monkeypatch.setattr(normals_module, "_tree_signs", record_signs)
        cloud = sphere_20k()
        orient_normals(cloud, random_signs(cloud.normals, 6))

        # the former per-node loop: parents precede children in BFS order
        child = seen["order"][1:]
        want = [1.0] * (len(child) + 1)
        for b, a, d in zip(child.tolist(), seen["parent"][child].tolist(),
                           seen["dots"][child].tolist()):
            want[b] = -1.0 if want[a] * d < 0 else 1.0
        assert -1.0 in want and 1.0 in want
        assert np.array_equal(seen["signs"], want)


class TestBilateralFilterNormals:
    def _perturbed(self, cloud, sigma, seed):
        rng = np.random.default_rng(seed)
        noisy = cloud.normals + rng.normal(0.0, sigma, size=cloud.normals.shape)
        return noisy / np.linalg.norm(noisy, axis=1, keepdims=True)

    def test_smooths_noisy_plane_normals(self):
        cloud = make_shape("plane", 15)
        noisy = self._perturbed(cloud, 0.15, seed=5)
        smoothed = bilateral_filter_normals(cloud, noisy, BilateralParams(k=20))
        truth = cloud.normals
        before = np.arccos(np.clip(np.einsum("ij,ij->i", noisy, truth), -1, 1))
        after = np.arccos(np.clip(np.einsum("ij,ij->i", smoothed, truth), -1, 1))
        assert after.mean() < 0.25 * before.mean()

    def test_preserves_wedge_crease(self):
        cloud = make_shape("wedge", 12)
        smoothed = bilateral_filter_normals(
            cloud, cloud.normals, BilateralParams(k=12)
        )
        # clean two-sided field: the range kernel keeps the faces separate
        dots = np.einsum("ij,ij->i", smoothed, cloud.normals)
        assert dots.min() > 0.999

    def test_output_unit_length(self):
        cloud = make_shape("sphere", 10)
        noisy = self._perturbed(cloud, 0.1, seed=1)
        smoothed = bilateral_filter_normals(cloud, noisy, BilateralParams())
        assert np.allclose(np.linalg.norm(smoothed, axis=1), 1.0, atol=1e-12)

    def test_iterations_progressively_smooth(self):
        cloud = make_shape("plane", 12)
        noisy = self._perturbed(cloud, 0.2, seed=9)
        truth = cloud.normals

        def err(iters):
            out = bilateral_filter_normals(
                cloud, noisy, BilateralParams(iterations=iters, k=16)
            )
            return np.arccos(
                np.clip(np.einsum("ij,ij->i", out, truth), -1, 1)
            ).mean()

        assert err(3) <= err(1)

    def test_memory_layout_does_not_change_output(self):
        cloud = make_shape("sphere", 12)
        rng = np.random.default_rng(0)
        noisy = cloud.normals + rng.normal(0.0, 0.3, cloud.normals.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        c_out = bilateral_filter_normals(cloud, noisy, BilateralParams())
        f_out = bilateral_filter_normals(cloud, np.asfortranarray(noisy), BilateralParams())
        assert np.array_equal(f_out, c_out)

    def test_input_normals_not_mutated(self):
        cloud = make_shape("plane", 8)
        noisy = self._perturbed(cloud, 0.1, seed=3)
        before = noisy.copy()
        bilateral_filter_normals(cloud, noisy, BilateralParams(k=10))
        assert np.array_equal(noisy, before)

    def test_single_point_keeps_its_normal(self):
        normal = np.array([[0.0, 0.6, 0.8]])
        out = bilateral_filter_normals(PointCloud([[0.0, 0.0, 0.0]]), normal, BilateralParams())
        assert np.array_equal(out, normal)
        assert not np.shares_memory(out, normal)

    def test_all_coincident_cloud_rejected(self):
        cloud = PointCloud(np.ones((40, 3)), np.tile([0.0, 0.0, 1.0], (40, 1)))
        with pytest.raises(ValueError, match="degenerate bilateral scale"):
            bilateral_filter_normals(cloud, cloud.normals, BilateralParams(k=10))

    @pytest.mark.parametrize("name", ["sigma_s", "sigma_r"])
    def test_width_bounds(self, name):
        cloud = make_shape("plane", 8)
        noisy = self._perturbed(cloud, 0.1, seed=4)
        for sigma in (KERNEL_WIDTH_MIN, KERNEL_WIDTH_MAX):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = bilateral_filter_normals(cloud, noisy, BilateralParams(k=10, **{name: sigma}))
            assert np.all(np.isfinite(out))
        for sigma in (np.nextafter(KERNEL_WIDTH_MIN, 0), np.nextafter(KERNEL_WIDTH_MAX, np.inf)):
            with pytest.raises(ValueError, match=rf"^bilateral {name} = .* is outside"):
                bilateral_filter_normals(cloud, noisy, BilateralParams(k=10, **{name: sigma}))

    def test_smallest_sigma_s_on_large_cloud_smooths_without_warning(self):
        # neighbours far beyond sigma_s overflow the spatial argument; with
        # every spatial weight 0 each normal is kept
        plane = make_shape("plane", 8)
        cloud = PointCloud(plane.points * 1e5, plane.normals)
        noisy = self._perturbed(plane, 0.1, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = BilateralParams(sigma_s=KERNEL_WIDTH_MIN)
            out = bilateral_filter_normals(cloud, noisy, params)
        assert np.array_equal(out, noisy)

    @pytest.mark.parametrize("scale", [1e-152, 1e152])
    def test_auto_sigma_s_bounds(self, scale):
        # the automatic sigma_s scales with the cloud as given
        cloud = make_shape("plane", 8)
        scaled = PointCloud(cloud.points * scale, cloud.normals)
        with pytest.raises(ValueError, match=r"^bilateral sigma_s = .* is outside"):
            bilateral_filter_normals(scaled, cloud.normals, BilateralParams(k=10))

    def test_invalid_params_rejected(self):
        for sigma in (0.0, -1.0, float("nan"), float("inf"), "0.3", True):
            with pytest.raises(ValueError, match="sigma_r"):
                BilateralParams(sigma_r=sigma)
            with pytest.raises(ValueError, match="sigma_s"):
                BilateralParams(sigma_s=sigma)
        with pytest.raises(ValueError):
            BilateralParams(iterations=0)
        with pytest.raises(ValueError, match="^k must be >= 3$"):
            BilateralParams(k=2)
        for name, value in (
            ("k", 6.5), ("iterations", 1.5), ("iterations", 2.0), ("k", True), ("iterations", True)
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                BilateralParams(**{name: value})
        # numpy integers are integers
        BilateralParams(k=np.int64(6), iterations=np.int32(2))
